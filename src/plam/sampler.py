"""Monte Carlo runs of single reduction paths.

Differential testing backend for the exact engines: one coin flip per
fired choice, heads (bit 1) taking the left branch.  A run walks an
environment machine instead of the small-step rules of `reduction`: a
CEK machine for call-by-value (Felleisen & Friedman, "Control
operators, the SECD-machine, and the lambda-calculus", 1986) and a
Krivine machine for call-by-name (Krivine, "A call-by-name
lambda-calculus machine", HOSC 2007).  Each beta and each fired choice
counts one step, in the order the small-step strategy fires them, so
step counts and coin sequences are those of the small-step path.  In
the CEK machine an application whose argument is a variable or an
abstraction pushes that argument's closure under one frame, "apply the
incoming function to this": a value takes no step, so the argument
needs no frame of its own.

The machines never build terms: every closure pairs a subterm of the
input with an environment.  A closure reads back to its term with each
free name substituted by the read-back of that name's closure; those
are closed, so `substitute` renames nothing.  `estimate` reads every
sample back through one table per batch, keyed on the id of the
closure's term and the ids of its names' read-backs: an outcome seen
before costs one walk of its closures and builds no term, and outcomes
that read back alpha-equal from distinct keys merge in the counts.
Aggregation is by exact integer counts so results are independent of
sample order, and the seed plus generator name are recorded for replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .dist import sorted_by_term
from .syntax import Abs, App, Choice, OpenTermError, Term, Var, print_term, substitute

RNG_ALGORITHM = "python-random-mersenne-twister"


class SampleOutcome:
    """One path's final value, None once the step budget ran out, and
    the steps it used.  An outcome of `sample_run` holds the machine's
    final closure and reads it back the first time `result` is read."""

    __slots__ = ("_result", "_closure", "steps_used")

    def __init__(self, result: Term | None, steps_used: int):
        self._result = result
        self._closure = None
        self.steps_used = steps_used

    @property
    def result(self) -> Term | None:
        if self._closure is not None:
            self._result = _read_back(self._closure, {}, {})
            self._closure = None
        return self._result

    @property
    def timed_out(self) -> bool:
        return self._result is None and self._closure is None

    def __repr__(self) -> str:
        return f"SampleOutcome(result={self.result!r}, steps_used={self.steps_used!r})"


# A closure is a (term, env) pair whose env maps every free name of the
# term to a closed closure.  Frames of the CEK continuation stack are
# (tag, term or value, env) triples; an _APPLY frame holds the argument
# value that the function value coming back is applied to.
_ARG, _FUN, _APPLY, _RIGHT, _FLIP = range(5)


def _run_cbv(t: Term, max_steps: int, rng):
    """CEK machine: the function, then the argument, then beta; the left
    branch, then the right one, then the coin.  Returns the final value
    closure and its step count, or None once step max_steps + 1 fires."""
    steps = 0
    stack = []
    term, env = t, {}
    while True:
        kind = type(term)
        if kind is App:
            arg = term._arg
            kind = type(arg)
            if kind is Var:
                stack.append((_APPLY, env[arg._name], None))
            elif kind is Abs:
                stack.append((_APPLY, (arg, env), None))
            else:
                stack.append((_ARG, arg, env))
            term = term._fun
            continue
        if kind is Choice:
            stack.append((_RIGHT, term._right, env))
            term = term._left
            continue
        value = env[term._name] if kind is Var else (term, env)
        while True:
            if not stack:
                return value, steps
            tag, a, b = stack.pop()
            if tag == _APPLY:
                fun, arg = value, a
            elif tag == _FUN:
                fun, arg = a, value
            elif tag == _ARG:
                stack.append((_FUN, value, None))
                term, env = a, b
                break
            elif tag == _RIGHT:
                stack.append((_FLIP, value, None))
                term, env = a, b
                break
            else:
                # _FLIP: the step past the budget still tosses its coin,
                # as the small-step path takes that step before it stops
                steps += 1
                if rng.getrandbits(1):
                    value = a
                if steps > max_steps:
                    return None
                continue
            steps += 1
            if steps > max_steps:
                return None
            fun, fun_env = fun
            term, env = fun._body, {**fun_env, fun._binder: arg}
            break


def _run_cbn(t: Term, max_steps: int, rng):
    """Krivine machine: arguments wait on the stack as unevaluated
    closures, and a choice tosses its coin as soon as it is the head.
    Returns like _run_cbv, and the step past the budget tosses too."""
    steps = 0
    stack = []
    term, env = t, {}
    while True:
        kind = type(term)
        if kind is App:
            # a variable argument passes its own closure on, so lookups
            # never chain through closures that only rename
            arg = term._arg
            stack.append(env[arg._name] if type(arg) is Var else (arg, env))
            term = term._fun
        elif kind is Var:
            term, env = env[term._name]
        elif kind is Choice:
            steps += 1
            term = term._left if rng.getrandbits(1) else term._right
            if steps > max_steps:
                return None
        elif stack:
            steps += 1
            if steps > max_steps:
                return None
            env = {**env, term._binder: stack.pop()}
            term = term._body
        else:
            return (term, env), steps


def _read_back(closure, table: dict, memo: dict) -> Term:
    """The closed term a closure stands for.  table maps the id of a
    closure's term and the ids of its free names' read-backs, in the
    order of that term's free-name set, to the term built for them, and
    keeps those terms alive so the ids stay theirs; memo maps the ids
    of one sample's closures to their read-backs, so shared closures
    are walked once."""
    ident = id(closure)
    v = memo.get(ident)
    if v is None:
        term, env = closure
        names = term._free
        parts = [_read_back(env[name], table, memo) for name in names]
        key = (id(term), *map(id, parts))
        v = table.get(key)
        if v is None:
            v = term
            for name, part in zip(names, parts):
                v = substitute(v, name, part)
            table[key] = v
        memo[ident] = v
    return v


_MACHINES = {"cbv": _run_cbv, "cbn": _run_cbn}


def sample_run(t: Term, strategy: str, max_steps: int, rng: random.Random) -> SampleOutcome:
    """Follow one reduction path, flipping rng for every fired choice.

    Raises ValueError for an unknown strategy or a negative budget."""
    run = _MACHINES.get(strategy)
    if run is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if max_steps < 0:
        raise ValueError(f"negative step budget {max_steps}")
    if t.free_names:
        raise OpenTermError(t)
    final = run(t, max_steps, rng)
    if final is None:
        return SampleOutcome(None, max_steps)
    closure, steps = final
    outcome = SampleOutcome(None, steps)
    outcome._closure = closure
    return outcome


@dataclass
class EstimateResult:
    strategy: str
    samples: int
    max_steps: int
    seed: int
    counts: dict[Term, int] = field(default_factory=dict)
    timeouts: int = 0
    algorithm: str = RNG_ALGORITHM

    def frequency(self, v: Term) -> Fraction:
        return Fraction(self.counts.get(v, 0), self.samples)

    @property
    def timeout_rate(self) -> Fraction:
        return Fraction(self.timeouts, self.samples)

    def to_json(self) -> dict:
        entries = [
            {
                "value": print_term(v, canonical=True),
                "count": c,
                "frequency": c / self.samples,
            }
            for v, c in sorted_by_term(self.counts.items())
        ]
        return {
            "strategy": self.strategy,
            "samples": self.samples,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "entries": entries,
            "timeouts": self.timeouts,
            "timeout_rate": self.timeouts / self.samples,
        }


def estimate(
    t: Term, strategy: str, samples: int, max_steps: int, seed: int
) -> EstimateResult:
    """Aggregate `samples` independent runs started from a fixed seed.

    Each sample is read back through one table for the batch
    (`_read_back`).  The counts keep the order in which outcomes were
    first sampled."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    table: dict[tuple, Term] = {}
    counts: dict[Term, int] = {}
    timeouts = 0
    for _ in range(samples):
        outcome = sample_run(t, strategy, max_steps, rng)
        if outcome.timed_out:
            timeouts += 1
            continue
        v = _read_back(outcome._closure, table, {})
        counts[v] = counts.get(v, 0) + 1
    result = EstimateResult(strategy, samples, max_steps, seed)
    result.counts = counts
    result.timeouts = timeouts
    return result
