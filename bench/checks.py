"""Checks on each workload's outputs, made apart from the code under test.

Every check returns a list of problems; an empty list means the output
passed.  Masses are compared as exact `Fraction`s built from the
outputs' numerators and exponents, and values by their nameless form as
computed in `terms.nameless`, so neither the program's dyadic arithmetic
nor its alpha-equality decides a verdict.
"""

from __future__ import annotations

from fractions import Fraction

from terms import nameless, numeral_value

ONE = Fraction(1)


def frac(d) -> Fraction:
    """Exact value of a dyadic num/2^exp."""
    return Fraction(d.num, 1 << d.exp)


def table(subdist) -> dict:
    """A sub-distribution as {nameless value: Fraction}."""
    out: dict = {}
    for v, m in subdist.items():
        key = nameless(v)
        out[key] = out.get(key, Fraction(0)) + frac(m)
    return out


def _dominated(low: dict, high: dict) -> bool:
    return all(m <= high.get(v, 0) for v, m in low.items())


# ---------- exact-random ----------


def check_exact(lower: dict, residual: Fraction, div: tuple, big: dict) -> list[str]:
    """lower and big are tables, residual and div hold Fractions.

    - lower mass + residual == 1 exactly
    - divergence bracket: low <= up == residual, converged + low <= 1
    - big-step at twice the fuel dominates the small-step lower approximant
    - once the residual is 0, the two engines agree exactly
    """
    problems = []
    converged = sum(lower.values(), Fraction(0))
    if any(m <= 0 for m in lower.values()):
        problems.append("non-positive mass in lower approximant")
    if converged + residual != ONE:
        problems.append(f"lower mass {converged} + residual {residual} != 1")
    low, up = div
    if not low <= up:
        problems.append(f"divergence lower {low} > upper {up}")
    if up != residual:
        problems.append(f"divergence upper {up} != residual {residual}")
    if converged + low > ONE:
        problems.append(f"converged {converged} + divergence lower {low} > 1")
    if not _dominated(lower, big):
        problems.append("big-step at twice the fuel does not dominate small-step")
    if residual == 0 and lower != big:
        problems.append("small-step stabilized but big-step differs")
    return problems


# ---------- mfdt-trees ----------


def numeral_table(subdist) -> dict | None:
    """{n: Fraction} when every value is a Scott numeral, else None."""
    out: dict[int, Fraction] = {}
    for v, m in subdist.items():
        n = numeral_value(v)
        if n is None:
            return None
        out[n] = out.get(n, Fraction(0)) + frac(m)
    return out


def check_mfdt(lower: dict | None, residual: Fraction, expected: dict) -> list[str]:
    """lower is {n: Fraction} (None if a value was not a numeral); expected
    is the distribution computed from the generated tree."""
    problems = []
    if residual != 0:
        problems.append(f"residual {residual} after stabilization fuel")
    if lower is None:
        problems.append("a value of the tree runner is not a numeral")
    elif lower != expected:
        problems.append(f"tree runner gave {sorted(lower.items())}, tree denotes {sorted(expected.items())}")
    return problems


# ---------- geo-sample ----------


def check_geo_batch(counts: dict, timeouts: int, samples: int) -> list[str]:
    """counts is {n: count} over decoded numerals (None for a non-numeral)."""
    problems = []
    if timeouts:
        problems.append(f"{timeouts} samples timed out")
    if None in counts:
        problems.append("a sampled value is not a numeral")
    if sum(counts.values()) != samples:
        problems.append(f"counts sum to {sum(counts.values())}, not {samples}")
    return problems


def within_4_sigma(count: int, samples: int, p: Fraction) -> bool:
    """|count/samples - p| <= 4 sqrt(p(1-p)/samples), in exact integers."""
    diff = Fraction(count, samples) - p
    return diff * diff * samples <= 16 * p * (1 - p)


def check_geo_total(totals: dict, samples: int, outcomes: int = 8) -> list[str]:
    """Each outcome n < outcomes lies within 4 sigma of 2^-(n+1)."""
    return [
        f"outcome {n}: {totals.get(n, 0)} of {samples} is past 4 sigma of 1/2^{n + 1}"
        for n in range(outcomes)
        if not within_4_sigma(totals.get(n, 0), samples, Fraction(1, 2 ** (n + 1)))
    ]


# ---------- cps-corpus ----------


def _overlap(a: dict, a_res: Fraction, b: dict, b_res: Fraction) -> bool:
    return all(
        a.get(v, 0) <= b.get(v, 0) + b_res and b.get(v, 0) <= a.get(v, 0) + a_res
        for v in set(a) | set(b)
    )


def check_simulation(sim: dict, kind: str, expected: dict | None = None) -> list[str]:
    """sim holds one simulation report as tables: status, source/target
    lower and residual, and mapped (the source lower mapped through the
    value translation).

    - every kind: the brackets of mapped source and target overlap
    - terminating: both sides stabilize and agree exactly
    - both stabilized (any kind): they agree exactly
    - expected (golden): the source run gives the value worked by hand,
      {"lower": table, "residual": Fraction}
    """
    problems = []
    src_res, tgt_res = sim["source_residual"], sim["target_residual"]
    mapped, target = sim["mapped"], sim["target"]
    if sim["status"] == "FAIL":
        problems.append("simulation reported FAIL")
    if not _overlap(mapped, src_res, target, tgt_res):
        problems.append("source and target brackets are disjoint")
    stabilized = src_res == 0 and tgt_res == 0
    if kind == "terminating" and not stabilized:
        problems.append("terminating term did not stabilize")
    if stabilized and mapped != target:
        problems.append("stabilized but mapped source differs from target")
    if stabilized and sim["status"] != "PASS":
        problems.append(f"stabilized but status {sim['status']}")
    if expected is not None and (
        sim["source"] != expected["lower"] or src_res != expected["residual"]
    ):
        problems.append("source run differs from the value worked by hand")
    return problems
