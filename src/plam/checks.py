"""Corpus-driven property suites behind the `check` CLI subcommand.

Each suite yields one PASS/FAIL outcome per corpus term.  Corpus files
hold one term per line; '--' comments and blank lines are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cps
from .bigstep import eval_big
from .dist import ONE
from .reduction import CBN, CBV
from .smallstep import DEFAULT_FRONTIER_CAP, approximate
from .syntax import OpenTermError, ParseError, Term, parse

# largest big-step fuel the bigsmall suite tries when matching a
# stabilized small-step run
MAX_BIG_FUEL = 400


@dataclass(frozen=True)
class CheckOutcome:
    term_text: str
    status: str  # "PASS" | "FAIL"
    detail: str

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def load_corpus(path: str) -> list[tuple[str, Term]]:
    """(text, term) per closed term; an error names its line in the file."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    start = 0
    for number, line in enumerate(source.split("\n"), 1):
        text = line.split("--", 1)[0]
        if text.strip():
            try:
                term = parse(text)
            except ParseError as exc:
                raise ParseError(exc.reason, source, start + exc.pos) from None
            if term.free_names:
                raise ValueError(f"{OpenTermError(term)} (line {number})")
            entries.append((text.strip(), term))
        start += len(line) + 1
    return entries


def _run_suite(corpus, check) -> list[CheckOutcome]:
    """One outcome per corpus term; check(term) lists the term's problems."""
    outcomes = []
    for text, term in corpus:
        problems = check(term)
        outcomes.append(
            CheckOutcome(text, "FAIL" if problems else "PASS", "; ".join(problems))
        )
    return outcomes


def run_duality_suite(
    corpus, fuel: int = 50, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> list[CheckOutcome]:
    """Mass conservation and the divergence bracket inequalities, both
    strategies, all exact."""

    def check(term):
        problems = []
        for strategy in (CBV, CBN):
            bracket = approximate(term, strategy, fuel, frontier_cap)
            if bracket.lower.mass() + bracket.residual != ONE:
                problems.append(f"{strategy}: mass+residual != 1")
            low, up = bracket.divergence()
            if low > up:
                problems.append(f"{strategy}: divergence lower > upper")
            if bracket.lower.mass() + low > ONE:
                problems.append(f"{strategy}: converged mass + divergence lower > 1")
            if up != ONE - bracket.lower.mass():
                problems.append(f"{strategy}: divergence upper mismatch")
        return problems

    return _run_suite(corpus, check)


def run_bigsmall_suite(
    corpus, fuel: int = 50, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> list[CheckOutcome]:
    """Small-step versus big-step: exact equality once both stabilize
    (big-step fuel doubling up to MAX_BIG_FUEL), and big-step domination
    at doubled fuel otherwise."""

    def check(term):
        problems = []
        for strategy in (CBV, CBN):
            small = approximate(term, strategy, fuel, frontier_cap)
            big = eval_big(term, strategy, 2 * fuel)
            if not small.lower.leq(big):
                problems.append(f"{strategy}: big-step at 2*fuel does not dominate")
            if not small.residual:
                stabilized = None
                big_fuel = 1
                while big_fuel <= MAX_BIG_FUEL:
                    candidate = eval_big(term, strategy, big_fuel)
                    if candidate.mass() == small.lower.mass():
                        stabilized = candidate
                        break
                    big_fuel *= 2
                if stabilized is None:
                    problems.append(f"{strategy}: big-step never caught up")
                elif stabilized != small.lower:
                    problems.append(f"{strategy}: stabilized results differ")
        return problems

    return _run_suite(corpus, check)


def run_simulation_suite(
    corpus, fuel: int = 500, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> list[CheckOutcome]:
    """Both continuation-passing simulations; PASS covers exact equality
    at stabilization and bracket overlap otherwise."""

    def check(term):
        problems = []
        for name, checker in (
            ("v-by-n", cps.check_simulation_v_by_n),
            ("n-by-v", cps.check_simulation_n_by_v),
        ):
            report = checker(term, fuel, frontier_cap)
            if report.status == "FAIL":
                problems.append(f"{name}: {report.detail}")
        return problems

    return _run_suite(corpus, check)
