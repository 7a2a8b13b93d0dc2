"""Derivation-height-indexed evaluation to sub-distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_term
from plam.bigstep import eval_big
from plam.dist import HALF, ONE, SubDist, ZERO, from_value
from plam.encodings import FF, OMEGA, TT
from plam.reduction import CBN, CBV, STRATEGIES
from plam.smallstep import approximate
from plam.syntax import App, Choice, parse

I = parse("\\x. x")
XOR_PROGRAM = parse("(\\x. XOR x x) (TT (+) FF)")


@pytest.mark.parametrize("strategy, fuel", [("lazy", 5), (CBV, -3), (CBN, -1)])
def test_bad_input_is_rejected(strategy, fuel):
    for t in (parse("\\x. x"), OMEGA):
        with pytest.raises(ValueError, match="unknown strategy|negative fuel"):
            eval_big(t, strategy, fuel)


def test_values_evaluate_to_themselves_with_no_fuel():
    assert eval_big(TT, CBV, 0) == from_value(TT)
    assert eval_big(I, CBN, 0) == from_value(I)


def test_non_values_give_nothing_at_fuel_zero():
    assert eval_big(App(I, I), CBV, 0) == SubDist()
    assert eval_big(Choice(I, I), CBN, 0) == SubDist()


def test_one_unit_of_fuel_runs_one_rule():
    assert eval_big(App(I, I), CBV, 1) == from_value(I)
    assert eval_big(Choice(TT, FF), CBN, 1) == SubDist({TT: HALF, FF: HALF})
    assert eval_big(Choice(TT, FF), CBV, 1) == SubDist({TT: HALF, FF: HALF})


def test_omega_evaluates_to_the_empty_distribution():
    for strategy in STRATEGIES:
        assert eval_big(OMEGA, strategy, 60) == SubDist()


def test_looping_choice_branch():
    t = parse("OMEGA (+) \\x. x")
    assert eval_big(t, CBV, 50) == SubDist()
    assert eval_big(t, CBN, 50) == SubDist({I: HALF})


def test_xor_of_a_shared_coin():
    assert eval_big(XOR_PROGRAM, CBV, 6) == from_value(FF)
    assert eval_big(XOR_PROGRAM, CBN, 6) == SubDist({TT: HALF, FF: HALF})


def test_choice_in_function_position():
    t = App(Choice(TT, I), TT)
    expected = SubDist({parse("\\y. \\x. \\y. x"): HALF, TT: HALF})
    assert eval_big(t, CBV, 10) == expected
    assert eval_big(t, CBN, 10) == expected


def test_cbv_choice_discounts_by_the_other_branch_mass():
    # left branch diverges: under cbv the coin never fires at all
    t = Choice(OMEGA, I)
    assert eval_big(t, CBV, 40) == SubDist()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_fuel_monotonicity(seed, strategy):
    t = random_term(random.Random(seed), 25)
    assert eval_big(t, strategy, 6).leq(eval_big(t, strategy, 12))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_mass_never_exceeds_one(seed, strategy):
    t = random_term(random.Random(seed), 25)
    assert eval_big(t, strategy, 15).mass() <= ONE


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_dominates_the_round_indexed_lower_approximant(seed, strategy):
    # rounds-to-height: doubling the fuel is always enough
    t = random_term(random.Random(seed), 20)
    small = approximate(t, strategy, 10)
    assert small.lower.leq(eval_big(t, strategy, 20))


def test_agrees_with_small_step_at_stabilization():
    for t in (XOR_PROGRAM, parse("(\\x. x x) (\\y. y)"), parse("XOR TT FF")):
        for strategy in STRATEGIES:
            small = approximate(t, strategy, 50)
            assert small.residual == ZERO
            assert eval_big(t, strategy, 100) == small.lower
