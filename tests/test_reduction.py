"""One-step reduction under both strategies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_term
from plam.encodings import FF, OMEGA
from plam.reduction import CBN, CBV, STRATEGIES, StuckTermError, step, step_cbn, step_cbv
from plam.syntax import Abs, App, Choice, Var, is_value, parse

I = parse("\\x. x")


def test_values_have_no_step():
    for strategy in STRATEGIES:
        assert step(I, strategy) is None
        assert step(Var("x"), strategy) is None


def test_function_position_reduces_first():
    t = App(App(I, I), App(I, I))
    expected = [App(I, App(I, I))]
    assert step(t, CBV) == expected
    assert step(t, CBN) == expected


def test_cbv_evaluates_the_argument_cbn_substitutes_it():
    t = App(Abs("z", FF), OMEGA)
    # cbv keeps spinning the argument, cbn discards it in one beta step
    assert step(t, CBV) == [App(Abs("z", FF), OMEGA)]
    assert step(t, CBN) == [FF]


def test_cbn_beta_passes_unevaluated_arguments():
    t = App(Abs("z", App(Var("z"), Var("z"))), App(I, I))
    assert step(t, CBN) == [App(App(I, I), App(I, I))]
    assert step(t, CBV) == [App(Abs("z", App(Var("z"), Var("z"))), I)]


def test_variables_are_values_in_argument_position():
    assert step_cbv(App(I, Var("f")), {}) == [Var("f")]


def test_cbv_choice_waits_for_both_branches():
    t = Choice(App(I, I), FF)
    assert step(t, CBV) == [Choice(I, FF)]
    # right branch next
    assert step(Choice(FF, App(I, I)), CBV) == [Choice(FF, I)]
    # both values: the coin fires
    assert step(Choice(I, FF), CBV) == [I, FF]


def test_cbn_choice_fires_immediately():
    t = Choice(App(I, I), FF)
    assert step(t, CBN) == [App(I, I), FF]


def test_omega_loops_in_place():
    for strategy in STRATEGIES:
        assert step(OMEGA, strategy) == [OMEGA]


def test_stuck_head_variable():
    with pytest.raises(StuckTermError):
        step_cbn(App(Var("f"), I), {})
    with pytest.raises(StuckTermError):
        step_cbv(App(Var("f"), I), {})


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_head_variable_under_an_application_spine_is_stuck(strategy):
    with pytest.raises(StuckTermError):
        step(parse("x y z"), strategy)


@pytest.mark.parametrize("text", ["(x y) (+) \\z. z", "(\\z. z) (+) x y"])
def test_cbv_gets_stuck_inside_a_choice_branch(text):
    with pytest.raises(StuckTermError):
        step(parse(text), CBV)
    # call-by-name tosses the coin before looking into either branch
    assert len(step(parse(text), CBN)) == 2


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_non_term_is_rejected(strategy):
    with pytest.raises(TypeError):
        step(42, strategy)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        step(I, "lazy")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(sorted(STRATEGIES)))
def test_non_values_step_to_one_or_two_closed_successors(seed, strategy):
    t = random_term(random.Random(seed), 25)
    if is_value(t):
        assert step(t, strategy) is None
        return
    succs = step(t, strategy)
    assert len(succs) in (1, 2)
    for s in succs:
        assert not s.free_names
