"""Synchronous-rounds evaluation: lower approximants, residuals, and
divergence brackets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_steps,
    gate_terms,
    random_term,
    reference_approximate,
    reference_divergence,
)
from plam.dist import HALF, ONE, ZERO, Dyadic, SubDist, from_value
from plam.encodings import OMEGA, encode_nat
from plam.reduction import CBN, CBV, STRATEGIES
from plam.smallstep import (
    Bracket,
    FrontierCapError,
    OpenTermError,
    approximate,
    divergence_bracket,
)
from plam.syntax import Choice, Var, parse, print_term

I = parse("\\x. x")
XOR_PROGRAM = parse("(\\x. XOR x x) (TT (+) FF)")


def test_identity_application_converges_in_one_round():
    b = approximate(parse("(\\x. x) (\\x. x)"), CBV, 5)
    assert b.lower == from_value(I)
    assert b.residual == ZERO


def test_value_needs_no_fuel():
    b = approximate(I, CBN, 0)
    assert b.lower == from_value(I) and b.residual == ZERO


def test_omega_never_converges():
    for strategy in STRATEGIES:
        b = approximate(OMEGA, strategy, 50)
        assert b.lower == SubDist()
        assert b.residual == ONE


def test_looping_choice_branch_blocks_cbv_but_not_cbn():
    t = parse("OMEGA (+) \\x. x")
    cbv = approximate(t, CBV, 50)
    assert cbv.lower == SubDist() and cbv.residual == ONE
    cbn = approximate(t, CBN, 50)
    assert cbn.lower == SubDist({I: HALF})
    assert cbn.residual == HALF


def test_xor_of_a_shared_coin():
    # cbv copies the coin's outcome, cbn copies the coin itself
    cbv = approximate(XOR_PROGRAM, CBV, 50)
    assert cbv.lower == from_value(parse("FF")) and cbv.residual == ZERO
    cbn = approximate(XOR_PROGRAM, CBN, 50)
    assert cbn.lower == SubDist({parse("TT"): HALF, parse("FF"): HALF})
    assert cbn.residual == ZERO


def test_bracket_upper_bound_adds_the_residual():
    b = approximate(parse("OMEGA (+) \\x. x"), CBN, 3)
    assert b.upper_bound(I) == ONE
    assert b.upper_bound(parse("TT")) == HALF


def test_open_terms_are_rejected():
    with pytest.raises(OpenTermError):
        approximate(Var("x"), CBV, 1)
    with pytest.raises(OpenTermError):
        divergence_bracket(Var("y"), CBN, 1)


def _choice_tree(values):
    if len(values) == 1:
        return values[0]
    mid = len(values) // 2
    return Choice(_choice_tree(values[:mid]), _choice_tree(values[mid:]))


def test_frontier_cap_aborts_wide_runs():
    t = _choice_tree([encode_nat(n) for n in range(64)])
    with pytest.raises(FrontierCapError) as exc:
        approximate(t, CBN, 20, frontier_cap=10)
    assert exc.value.cap == 10
    assert exc.value.count > 10


def test_wide_run_completes_under_the_default_cap():
    t = _choice_tree([encode_nat(n) for n in range(64)])
    b = approximate(t, CBN, 20)
    assert b.residual == ZERO
    assert b.lower.mass() == ONE
    assert len(b.lower.support()) == 64
    assert b.lower.get(encode_nat(17)) == Dyadic(1, 6)


# ---------- divergence brackets ----------


def test_omega_divergence_is_exact_even_without_fuel():
    for strategy in STRATEGIES:
        assert divergence_bracket(OMEGA, strategy, 0) == (ONE, ONE)
        assert divergence_bracket(OMEGA, strategy, 1) == (ONE, ONE)


def test_half_divergent_choice():
    t = parse("OMEGA (+) \\x. x")
    assert divergence_bracket(t, CBN, 50) == (HALF, HALF)
    # cbv never fires the coin, so the whole mass diverges
    assert divergence_bracket(t, CBV, 50) == (ONE, ONE)


def test_converging_term_has_zero_divergence():
    assert divergence_bracket(XOR_PROGRAM, CBV, 50) == (ZERO, ZERO)
    assert divergence_bracket(XOR_PROGRAM, CBN, 50) == (ZERO, ZERO)


def test_growing_term_keeps_a_trivial_lower_bound():
    # the closure explorer refuses states whose size keeps growing, so
    # this diverges with certainty but only the upper bound shows it
    t = parse("(\\x. x x x) (\\x. x x x)")
    low, up = divergence_bracket(t, CBV, 30)
    assert low == ZERO
    assert up == ONE


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_mass_plus_residual_is_exactly_one(seed, strategy):
    t = random_term(random.Random(seed), 30)
    b = approximate(t, strategy, 25)
    assert b.lower.mass() + b.residual == ONE


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_fuel_monotonicity(seed, strategy):
    t = random_term(random.Random(seed), 25)
    b1 = approximate(t, strategy, 8)
    b2 = approximate(t, strategy, 16)
    assert b1.lower.leq(b2.lower)
    assert b2.residual <= b1.residual


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_divergence_bracket_is_consistent_with_the_approximant(seed, strategy):
    t = random_term(random.Random(seed), 25)
    b = approximate(t, strategy, 25)
    low, up = divergence_bracket(t, strategy, 25)
    assert b.divergence() == (low, up)
    assert low <= up
    assert up == b.residual
    assert b.lower.mass() + low <= ONE


# ---------- the per-run reduction graph ----------


def _canonical(pairs):
    return [(print_term(t, canonical=True), m) for t, m in pairs]


def _cap_hit(run):
    try:
        run()
    except FrontierCapError as exc:
        return exc.round_no, exc.count
    return None


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_the_graph_changes_no_result(strategy):
    caps_hit = 0
    for t in gate_terms():
        for fuel in (0, 3, 12, 50):
            got = approximate(t, strategy, fuel)
            want = reference_approximate(t, strategy, fuel)
            where = (print_term(t), fuel)
            assert _canonical(got.lower.items()) == _canonical(
                want.lower.items()
            ), where
            assert got.residual == want.residual, where
            assert _canonical(got.frontier) == _canonical(want.frontier), where
            assert got.divergence() == reference_divergence(want), where
        hit = _cap_hit(lambda: approximate(t, strategy, 50, frontier_cap=3))
        assert hit == _cap_hit(
            lambda: reference_approximate(t, strategy, 50, frontier_cap=3)
        )
        caps_hit += hit is not None
    assert caps_hit > 0


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_recurring_state_is_stepped_once(monkeypatch, strategy):
    calls = count_steps(monkeypatch)
    b = approximate(OMEGA, strategy, 500)
    assert b.residual == ONE
    assert calls == [OMEGA]


def test_the_closures_share_one_graph(monkeypatch):
    # W W -> W W (+) I -> {W W, I}: a two-state cycle with an exit, and
    # both of its states sit in every frontier; each closure reaches the
    # value, so neither is certified, and with a graph private to each
    # closure the second would step a state the first already stepped
    t = parse("(\\x. x x (+) \\y. y) (\\x. x x (+) \\y. y)")
    t = Choice(t, Choice(t, I))
    b = approximate(t, CBN, 5)
    assert len(b.frontier) == 2
    calls = count_steps(monkeypatch)
    assert b.divergence() == (ZERO, b.residual)
    assert len(calls) == 2 and calls[0] != calls[1]
    calls.clear()
    assert reference_divergence(b) == (ZERO, b.residual)
    assert len(calls) == 3
