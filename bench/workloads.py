"""The four workloads: their inputs, operations and output checks.

A workload is built from a seed (the set-up), then hands out rounds of
operations by round number.  Round k's inputs depend only on the seed
and k, so a replay of round k sees identical inputs.  Every operation
calls into plam through module attributes (`smallstep.approximate`, not a
name imported once), so the traced run can wrap those functions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from plam import bigstep, cps, encodings, sampler, smallstep, syntax

from checks import (
    check_exact,
    check_geo_batch,
    check_geo_total,
    check_mfdt,
    check_simulation,
    frac,
    numeral_table,
    table,
)
from terms import (
    nameless,
    numeral_value,
    random_term,
    random_tree,
    show,
    tree_distribution,
    tree_term,
)

STRATEGIES = ("cbv", "cbn")


class Op:
    """One operation: `run` calls the program, `check` returns the problems
    found in its result, `describe` names it for the slowest-op report."""

    __slots__ = ("run", "check", "describe")

    def __init__(self, run, check, describe):
        self.run = run
        self.check = check
        self.describe = describe


class ExactRandom:
    """Random closed terms under both strategies through approximate,
    divergence_bracket and eval_big at twice the fuel, plus NAT 8000."""

    name = "exact-random"
    FUEL = 4
    TERMS = 1000  # per round
    MAX_SIZE = 40
    DEEP = "NAT 8000"
    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.deep = syntax.parse(self.DEEP)

    def round_ops(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        terms = [random_term(rng, self.MAX_SIZE) for _ in range(self.TERMS)]
        ops = [self._op(t, s) for t in terms for s in STRATEGIES]
        # fails today with RecursionError on every attempt; kept until deep
        # terms work
        ops += [self._op(self.deep, s, self.DEEP) for s in STRATEGIES]
        return ops

    def warmup_ops(self) -> list[Op]:
        return self.round_ops(-1)

    def _op(self, t, strategy: str, text: str | None = None) -> Op:
        fuel = self.FUEL

        def run():
            return (
                smallstep.approximate(t, strategy, fuel),
                smallstep.divergence_bracket(t, strategy, fuel),
                bigstep.eval_big(t, strategy, 2 * fuel),
            )

        def check(result):
            bracket, (low, up), big = result
            return check_exact(
                table(bracket.lower), frac(bracket.residual), (frac(low), frac(up)), table(big)
            )

        return Op(run, check, lambda: f"{strategy} {text or show(t)}")

    def finish(self) -> list[str]:
        return []


class MfdtTrees:
    """Random finite dyadic trees through MFDT, call-by-value, until the
    run stabilizes.  Each round holds one tree for each leaf count."""

    name = "mfdt-trees"
    LEAVES = range(1, 8)
    MAX_DEPTH = 4
    FUEL = 2000
    trace_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed

    def round_ops(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        return [self._op(random_tree(rng, n, self.MAX_DEPTH)) for n in self.LEAVES]

    def warmup_ops(self) -> list[Op]:
        return self.round_ops(-1)

    def _op(self, tree) -> Op:
        t = tree_term(tree)
        expected = tree_distribution(tree)

        def run():
            return encodings.run_mfdt(t, self.FUEL)

        def check(bracket):
            return check_mfdt(numeral_table(bracket.lower), frac(bracket.residual), expected)

        return Op(run, check, lambda: f"tree {tree}")

    def finish(self) -> list[str]:
        return []


class GeoSample:
    """Monte Carlo batches of GEO under call-by-value."""

    name = "geo-sample"
    SAMPLES = 100  # per batch
    MAX_STEPS = 2000
    trace_rounds = 12

    def __init__(self, seed: int):
        self.seed = seed
        self.geo = syntax.parse("GEO")
        self.totals: dict[int, dict] = {}  # round -> {n: count}

    def round_ops(self, k: int) -> list[Op]:
        return [self._op(k)]

    def warmup_ops(self) -> list[Op]:
        return [self._op(k) for k in (-1, -2, -3)]

    def _op(self, k: int) -> Op:
        batch_seed = self.seed * 1_000_003 + k

        def run():
            return sampler.estimate(self.geo, "cbv", self.SAMPLES, self.MAX_STEPS, batch_seed)

        def check(est):
            counts: dict = {}
            for v, c in est.counts.items():
                n = numeral_value(v)
                counts[n] = counts.get(n, 0) + c
            if k >= 0:
                self.totals[k] = counts
            return check_geo_batch(counts, est.timeouts, est.samples)

        return Op(run, check, lambda: f"batch {k} (sampler seed {batch_seed})")

    def finish(self) -> list[str]:
        # replays of a round give the same counts, so each round counts once
        totals: dict[int, int] = {}
        for counts in self.totals.values():
            for n, c in counts.items():
                totals[n] = totals.get(n, 0) + c
        return check_geo_total(totals, self.SAMPLES * len(self.totals))


def spec_table(entries: dict) -> dict:
    """{value text: mass} worked by hand, as a table of nameless values."""
    return {nameless(syntax.parse(text)): Fraction(m) for text, m in entries.items()}


_HALF = Fraction(1, 2)
_BOTH = lambda lower, residual: {"cbv": (lower, residual), "cbn": (lower, residual)}  # noqa: E731

# golden.l terms with their distributions worked by hand (README.md and the
# corpus comments): {text: {strategy: ({value: mass}, residual)}}, at a fuel
# past stabilization for the terms that stabilize
GOLDEN = {
    r"(\x. x) (\x. x)": _BOTH({r"\x. x": 1}, 0),
    "OMEGA": _BOTH({}, 1),
    r"OMEGA (+) \x. x": {"cbv": ({}, 1), "cbn": ({r"\x. x": _HALF}, _HALF)},
    r"(\x. XOR x x) (TT (+) FF)": {"cbv": ({"FF": 1}, 0), "cbn": ({"TT": _HALF, "FF": _HALF}, 0)},
    "TT (+) FF": _BOTH({"TT": _HALF, "FF": _HALF}, 0),
    r"(\x. \y. x) (\z. z)": _BOTH({r"\y. \z. z": 1}, 0),
    r"((\x. \y. x) (+) (\x. \y. y)) (\z. TT) (\z. OMEGA) (\w. w)": _BOTH({"TT": _HALF}, _HALF),
    "NAT 3": _BOTH({"NAT 3": 1}, 0),
    r"MFDT (\x. \y. x (NAT 2))": _BOTH({"NAT 2": 1}, 0),
}


def _read_corpus(name: str) -> list[str]:
    text = resources.files("plam").joinpath(f"data/{name}").read_text(encoding="utf-8")
    lines = (line.split("--", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


class CpsCorpus:
    """The shipped corpora plus random terms through both continuation
    simulations."""

    name = "cps-corpus"
    STABLE_FUEL = 500  # golden and terminating terms
    DIVERGING_FUEL = 64
    RANDOM_FUEL = 16  # some random terms grow 8x in time per 8 more rounds
    RANDOM_TERMS = 100  # per round
    RANDOM_SIZE = 15
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = []  # (kind, text, term, fuel, expected or None)
        sources = (
            ("golden", self.STABLE_FUEL),
            ("terminating", self.STABLE_FUEL),
            ("diverging", self.DIVERGING_FUEL),
        )
        for kind, fuel in sources:
            for text in _read_corpus(f"{kind}.l"):
                spec = GOLDEN.get(text) if kind == "golden" else None
                expected = None
                if spec is not None:
                    expected = {
                        s: {"lower": spec_table(spec[s][0]), "residual": Fraction(spec[s][1])}
                        for s in STRATEGIES
                    }
                self.corpus.append((kind, text, syntax.parse(text), fuel, expected))
        self.hand_checked = sum(1 for entry in self.corpus if entry[4] is not None)

    def round_ops(self, k: int) -> list[Op]:
        ops = [self._op(*entry) for entry in self.corpus]
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        for _ in range(self.RANDOM_TERMS):
            t = random_term(rng, self.RANDOM_SIZE)
            ops.append(self._op("random", None, t, self.RANDOM_FUEL, None))
        return ops

    def warmup_ops(self) -> list[Op]:
        return self.round_ops(-1)

    def _op(self, kind, text, t, fuel, expected) -> Op:
        def run():
            return (
                cps.check_simulation_v_by_n(t, fuel),
                cps.check_simulation_n_by_v(t, fuel),
            )

        def check(reports):
            problems = []
            for report, source_strategy in zip(reports, STRATEGIES):
                sim = {
                    "status": report.status,
                    "source": table(report.source.lower),
                    "source_residual": frac(report.source.residual),
                    "mapped": table(report.mapped_lower),
                    "target": table(report.target.lower),
                    "target_residual": frac(report.target.residual),
                }
                want = None if expected is None else expected[source_strategy]
                problems += [
                    f"{source_strategy} source: {p}" for p in check_simulation(sim, kind, want)
                ]
            return problems

        return Op(run, check, lambda: f"{kind} {text or show(t)}")

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (ExactRandom, MfdtTrees, GeoSample, CpsCorpus)}
