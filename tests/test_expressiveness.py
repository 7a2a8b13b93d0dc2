"""Digit oracles, approximation from below, and the splitting pipeline."""

import random
import sys
import time
from fractions import Fraction

import pytest

from helpers import random_dyadic_dist, random_fdt, reference_remainder_approx
from plam import expressiveness
from plam.dist import HALF, ONE, Dyadic
from plam.encodings import (
    GEO,
    MFDT,
    decode_nat,
    fdt_from_dist,
    leaf,
    pd,
)
from plam.expressiveness import (
    ORACLE_TIMEOUT_S,
    DistOracle,
    FractionOracle,
    OracleError,
    SubprocessOracle,
    completeness_approx,
    geometric_oracle,
    oracle_from_dyadics,
    soundness_approx,
    split,
)
from plam.reduction import CBV
from plam.smallstep import approximate
from plam.syntax import App, parse

GEOMETRIC_SCRIPT = """
import sys
for line in sys.stdin:
    parts = line.split()
    if len(parts) != 2:
        break
    a, n = int(parts[0]), int(parts[1])
    bits = (1 << n) // (2 ** (a + 1))
    sys.stdout.write(format(bits, "0" + str(n) + "b")[-n:] + "\\n")
    sys.stdout.flush()
"""


# ---------- digit oracles ----------


def test_fraction_oracle_truncates_binary_expansions():
    g = geometric_oracle()
    assert g.approx(0, 3) == "100"
    assert g.approx(2, 4) == "0010"
    assert g.approx(5, 10) == "0000010000"


def test_probability_one_uses_the_all_ones_expansion():
    point = oracle_from_dyadics({5: ONE})
    assert point.approx(5, 4) == "1111"
    assert point.approx(0, 4) == "0000"


def test_lower_bound_brackets_the_probability():
    oracle = FractionOracle(lambda a: Fraction(1, 3) if a == 0 else Fraction(0))
    for n in (1, 4, 9):
        lb = oracle.lower_bound(0, n).as_fraction()
        assert lb <= Fraction(1, 3) < lb + Fraction(1, 2**n)


# ---------- reading digits off a term ----------


def test_soundness_on_the_geometric_program():
    assert soundness_approx(GEO, 0, 3) == "100"
    assert soundness_approx(GEO, 3, 5) == "00010"


def test_soundness_on_a_tree_runner():
    t = App(MFDT, leaf(5))
    assert soundness_approx(t, 5, 2) == "11"
    assert soundness_approx(t, 0, 2) == "00"


def test_soundness_gives_up_when_the_residual_stays_large():
    assert soundness_approx(parse("OMEGA"), 0, 2) is None


def test_soundness_with_no_digits_asks_for_nothing():
    assert soundness_approx(GEO, 0, 0) == ""
    assert soundness_approx(parse("OMEGA"), 0, 0) == ""


# P(NAT 0) = 1/4 + 1/8 + 1/8, the last eighth only after a countdown from
# NAT 12, so for many rounds the converged mass of NAT 0 is 3/8
_LATE_HALF = parse(
    "(TT (+) FF) (\\z. NAT 1) (\\z. (TT (+) FF) (\\z. NAT 0)"
    " (\\z. (TT (+) FF) (\\z. NAT 0)"
    " (\\z. H (\\r. \\n. n (\\z. NAT 0) (\\m. \\z. r m) (\\w. w)) (NAT 12))"
    " (\\w. w)) (\\w. w)) (\\w. w)"
)


def test_soundness_waits_until_both_ends_share_their_digits():
    # 3/8 reads "01", but the pending 1/8 may still land: only the
    # digits of the limit 1/2 are returned
    assert soundness_approx(_LATE_HALF, 0, 1) == "1"
    assert soundness_approx(_LATE_HALF, 0, 2) == "10"
    assert soundness_approx(_LATE_HALF, 0, 3) == "100"
    assert soundness_approx(_LATE_HALF, 1, 3) == "100"


def test_soundness_rejects_non_numeral_support():
    with pytest.raises(OracleError):
        soundness_approx(parse("(\\x. x) (\\x. x)"), 0, 2)


def test_soundness_agrees_with_the_denotation_oracle():
    rng = random.Random(23)
    for _ in range(5):
        tree = random_fdt(rng, 3)
        d = {decode_nat(v): m for v, m in pd(tree).items()}
        oracle = oracle_from_dyadics(d)
        t = App(MFDT, tree)
        for a in list(d) + [max(d) + 1]:
            assert soundness_approx(t, a, 3) == oracle.approx(a, 3)


# ---------- splitting off half the mass ----------


def test_split_of_a_point_mass():
    tree, remainder = split(oracle_from_dyadics({7: ONE}))
    assert tree == leaf(7)
    assert remainder.approx(7, 4) == "1111"
    assert remainder.approx(0, 4) == "0000"


def test_split_of_the_geometric_oracle():
    tree, remainder = split(geometric_oracle())
    assert tree == leaf(0)
    # remainder is geometric shifted down one outcome
    assert remainder.approx(0, 4) == "0000"
    assert remainder.approx(1, 4) == "1000"
    assert remainder.approx(2, 4) == "0100"


class _Counting(DistOracle):
    """Base oracle that records every query it answers."""

    def __init__(self, inner: DistOracle):
        self.inner = inner
        self.queries: list[tuple[int, int]] = []

    def approx(self, a: int, n: int) -> str:
        self.queries.append((a, n))
        return self.inner.approx(a, n)


def test_remainder_digits_and_queries_match_the_floor_formula():
    rng = random.Random(20261023)
    answered = 0
    for _ in range(300):
        if rng.random() < 0.5:
            base = oracle_from_dyadics(random_dyadic_dist(rng, 6, 8))
        else:
            # non-dyadic probabilities summing to 1
            ps = [Fraction(rng.randint(1, 100), rng.randint(100, 400)) for _ in range(6)]
            ps = [p / sum(ps) for p in ps]
            base = FractionOracle(
                lambda a, ps=ps: ps[a] if a < len(ps) else Fraction(0)
            )
        _, remainder = split(base)
        ours, theirs = _Counting(base), _Counting(base)
        remainder.base = ours
        for _ in range(3):
            a, n = rng.randint(0, 7), rng.randint(0, 12)
            try:
                want = reference_remainder_approx(theirs, remainder.peeled, a, n)
            except OracleError as exc:
                with pytest.raises(OracleError, match=str(exc)):
                    remainder.approx(a, n)
            else:
                assert remainder.approx(a, n) == want
                answered += 1
            assert ours.queries == theirs.queries
    assert answered > 800


def test_split_respects_its_query_budget(monkeypatch):
    monkeypatch.setattr(expressiveness, "QUERY_BUDGET", 16)
    thin = FractionOracle(lambda a: Fraction(1, 2**100))
    digits = []
    monkeypatch.setattr(
        thin, "approx", lambda a, n: digits.append(n) or "0" * n
    )
    with pytest.raises(OracleError, match="budget of 16 rounds"):
        split(thin)
    assert max(digits) == 16


# ---------- building a term from an oracle ----------


def test_completeness_zero_rounds_is_the_empty_approximation():
    term, guarantee = completeness_approx(geometric_oracle(), rounds=0)
    assert term == parse("OMEGA")
    assert guarantee == Dyadic(0)


def test_completeness_on_the_geometric_oracle():
    term, guarantee = completeness_approx(geometric_oracle(), rounds=5)
    assert guarantee == Dyadic(31, 5)
    bracket = approximate(term, CBV, 400)
    assert bracket.lower.mass() == Dyadic(31, 5)
    support = sorted(decode_nat(v) for v in bracket.lower.support())
    assert support == [0, 1, 2, 3, 4]
    for v, m in bracket.lower.items():
        a = decode_nat(v)
        assert m.as_fraction() <= Fraction(1, 2 ** (a + 1))


def test_completeness_on_a_finite_oracle_reaches_full_mass():
    d = {0: HALF, 3: HALF}
    term, guarantee = completeness_approx(oracle_from_dyadics(d), rounds=3)
    assert guarantee == Dyadic(7, 3)
    bracket = approximate(term, CBV, 400)
    assert bracket.lower.mass() >= guarantee
    for v, m in bracket.lower.items():
        assert m <= d.get(decode_nat(v), Dyadic(0))


# ---------- external oracles over pipes ----------


def test_subprocess_oracle_speaks_the_line_protocol():
    g = geometric_oracle()
    with SubprocessOracle([sys.executable, "-c", GEOMETRIC_SCRIPT]) as oracle:
        for a, n in [(0, 3), (1, 5), (4, 8), (0, 1)]:
            assert oracle.approx(a, n) == g.approx(a, n)


def test_subprocess_oracle_feeds_the_splitting_pipeline():
    with SubprocessOracle([sys.executable, "-c", GEOMETRIC_SCRIPT]) as oracle:
        tree, remainder = split(oracle)
        assert tree == leaf(0)
        assert remainder.approx(1, 4) == "1000"


def test_subprocess_oracle_rejects_malformed_answers():
    bad = "import sys\nfor line in sys.stdin:\n    sys.stdout.write('xx\\n'); sys.stdout.flush()\n"
    with pytest.raises(OracleError):
        with SubprocessOracle([sys.executable, "-c", bad]) as oracle:
            oracle.approx(0, 5)


def test_subprocess_oracle_detects_a_dead_peer():
    with pytest.raises(OracleError):
        with SubprocessOracle([sys.executable, "-c", "pass"]) as oracle:
            oracle.approx(0, 5)


def test_subprocess_oracle_gives_up_on_a_silent_peer():
    silent = [sys.executable, "-c", "import time; time.sleep(60)"]
    started = time.monotonic()
    with pytest.raises(OracleError, match="no oracle answer"):
        with SubprocessOracle(silent) as oracle:
            oracle.approx(0, 5)
    assert time.monotonic() - started < ORACLE_TIMEOUT_S + 5
    assert oracle.proc.returncode is not None  # killed and reaped


def test_subprocess_oracle_reaps_a_peer_that_answered_badly():
    bad = "import sys, time\nsys.stdin.readline(); print('xx', flush=True); time.sleep(60)\n"
    with pytest.raises(OracleError, match="bad oracle answer"):
        with SubprocessOracle([sys.executable, "-c", bad]) as oracle:
            oracle.approx(0, 5)
    assert oracle.proc.returncode is not None
