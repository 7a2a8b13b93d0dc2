"""Seeded random generators shared across the test suite, the round
loop `approximate` is checked against (with or without a graph, and
never skipping a round), the small-step walker the sampler's machines
are checked against, and the pattern-matching tree readers the
encodings' readers are checked against.

Everything takes an explicit random.Random so each suite pins its own
seed and stays reproducible run to run.
"""

from __future__ import annotations

import random
from importlib import resources

import plam.smallstep as smallstep
from plam.checks import load_corpus
from plam.dist import ONE, ZERO, Dyadic, SubDist
from plam.encodings import leaf, node
from plam.reduction import step
from plam.sampler import SampleOutcome
from plam.smallstep import DEFAULT_FRONTIER_CAP, Bracket, FrontierCapError
from plam.syntax import Abs, App, Choice, Term, Var, is_value


def random_term(rng: random.Random, max_size: int = 40) -> Term:
    """Random closed term with between 2 and max_size nodes."""
    return _gen(rng, rng.randint(2, max(2, max_size)), [])


def random_open_term(rng: random.Random, free: list[str], max_size: int = 20) -> Term:
    """Random term whose free names are drawn from `free`."""
    return _gen(rng, rng.randint(1, max(1, max_size)), list(free))


def random_value(rng: random.Random, max_size: int = 20) -> Term:
    """Random closed abstraction."""
    return Abs("x", _gen(rng, rng.randint(1, max(1, max_size - 1)), ["x"]))


def _gen(rng: random.Random, budget: int, env: list[str]) -> Term:
    # smallest closed term has 2 nodes, smallest open one has 1
    floor = 1 if env else 2
    if budget <= 1:
        return Var(rng.choice(env))
    kinds = ["abs"] * 3
    if env:
        kinds += ["var"] * 2
    if budget >= 2 * floor + 1:
        kinds += ["app"] * 3 + ["choice"] * 2
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(rng.choice(env))
    if kind == "abs":
        name = f"v{len(env)}"
        return Abs(name, _gen(rng, max(1, budget - 1), env + [name]))
    left = rng.randint(floor, budget - 1 - floor)
    l = _gen(rng, left, env)
    r = _gen(rng, budget - 1 - left, env)
    return App(l, r) if kind == "app" else Choice(l, r)


def gate_terms() -> list[Term]:
    """The C2 corpus (500 random terms, seed 20260822) and the shipped
    corpora, the inputs of the differential tests."""
    rng = random.Random(20260822)
    terms = [random_term(rng, 40) for _ in range(500)]
    for name in ("golden.l", "terminating.l", "diverging.l"):
        path = resources.files("plam").joinpath(f"data/{name}")
        with resources.as_file(path) as p:
            terms += [t for _, t in load_corpus(str(p))]
    return terms


def random_fdt(rng: random.Random, max_depth: int = 6) -> Term:
    """Random finite dyadic tree with outcomes in 0..9."""
    if max_depth == 0 or rng.random() < 0.4:
        return leaf(rng.randint(0, 9))
    return node(random_fdt(rng, max_depth - 1), random_fdt(rng, max_depth - 1))


def deterministic_steps_to(
    start: Term, target: Term, strategy: str, limit: int
) -> int | None:
    """Steps along the unique reduction path from start to target.

    Returns None if the path forks, gets stuck, or the budget runs out
    before reaching a term alpha-equal to target.
    """
    current = start
    for used in range(limit + 1):
        if current == target:
            return used
        succs = step(current, strategy)
        if succs is None or len(succs) != 1:
            return None
        current = succs[0]
    return None


def reference_sample_run(t: Term, strategy: str, max_steps: int, rng) -> SampleOutcome:
    """One sampled path by the small-step rules: re-step from the root,
    flipping rng for every fired choice, bit 1 taking the left successor.
    The step past the budget is still taken, coin included."""
    current = t
    for used in range(max_steps + 1):
        if is_value(current):
            return SampleOutcome(current, used)
        succs = step(current, strategy)
        if len(succs) == 2:
            current = succs[0] if rng.getrandbits(1) else succs[1]
        else:
            current = succs[0]
    return SampleOutcome(None, max_steps)


def count_steps(monkeypatch) -> list[Term]:
    """Record every term `smallstep` steps, in order."""
    calls = []
    original = smallstep.step

    def counted(term, strategy, graph=None):
        calls.append(term)
        return original(term, strategy, graph)

    monkeypatch.setattr(smallstep, "step", counted)
    return calls


def reference_approximate(
    t: Term,
    strategy: str,
    fuel: int,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
    graph: dict | None = None,
) -> Bracket:
    """The round loop with no reduction graph: every pending term is
    stepped afresh in every round, however often it recurs.  Given a
    graph, each state is stepped once and its stored successors are
    taken from then on, as in `approximate`, but every round is run."""
    lower: dict[Term, Dyadic] = {}
    frontier: dict[Term, Dyadic] = {}

    def put(table, term, mass):
        prev = table.get(term)
        table[term] = mass if prev is None else prev + mass

    put(lower if is_value(t) else frontier, t, ONE)
    for round_no in range(1, fuel + 1):
        if not frontier:
            break
        fresh: dict[Term, Dyadic] = {}
        for term, mass in frontier.items():
            if graph is None:
                succs = step(term, strategy)
            else:
                succs = graph.get(term) or step(term, strategy, graph)
            share = mass.half() if len(succs) == 2 else mass
            for s in succs:
                put(lower if is_value(s) else fresh, s, share)
        if len(fresh) > frontier_cap:
            raise FrontierCapError(frontier_cap, round_no, len(fresh))
        frontier = fresh
    residual = ZERO
    for m in frontier.values():
        residual = residual + m
    return Bracket(
        SubDist(lower), residual, fuel, strategy, tuple(frontier.items())
    )


def reference_divergence(b: Bracket) -> tuple[Dyadic, Dyadic]:
    """`b.divergence()` with a graph private to each closure instead of
    one shared by all, so no closure reuses what an earlier one stepped."""
    certified = ZERO
    divergent: set[Term] = set()
    for term, mass in b.frontier:
        if smallstep._certified_divergent(term, b.strategy, divergent, {}):
            certified = certified + mass
    return certified, b.residual


def reference_decode_nat(t: Term) -> int | None:
    """`encodings.decode_nat` by class patterns."""
    n = 0
    while True:
        match t:
            case Abs(x, Abs(y, Var(h))) if h == x != y:
                return n
            case Abs(_, Abs(y, App(Var(h), inner))) if h == y:
                t, n = inner, n + 1
            case _:
                return None


def reference_fdt_shape(t: Term):
    """`encodings.fdt_shape` by class patterns."""
    match t:
        case Abs(x, Abs(y, App(Var(h), arg))) if h == x and x != y:
            if arg.free_names:
                return None
            n = reference_decode_nat(arg)
            return None if n is None else ("leaf", n)
        case Abs(x, Abs(y, App(App(Var(h), l), r))) if h == y:
            if l.free_names or r.free_names:
                return None
            if reference_fdt_shape(l) is None or reference_fdt_shape(r) is None:
                return None
            return ("node", l, r)
    return None
