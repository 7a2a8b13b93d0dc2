"""Synchronous-rounds evaluation: lower approximants, residuals, and
divergence brackets."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_steps,
    gate_terms,
    random_fdt,
    random_term,
    reference_approximate,
    reference_divergence,
)
from plam.dist import HALF, ONE, ZERO, Dyadic, SubDist, from_value
from plam.encodings import MFDT, OMEGA, encode_nat, run_mfdt
from plam import reduction
from plam.reduction import CBN, CBV, STRATEGIES
import plam.smallstep as smallstep
from plam.smallstep import (
    Bracket,
    FrontierCapError,
    approximate,
    divergence_bracket,
)
from plam.syntax import Abs, App, Choice, OpenTermError, Var, parse, print_term

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


@pytest.mark.parametrize("strategy, fuel", [("lazy", 5), (CBV, -5), (CBN, -1)])
def test_bad_input_is_rejected_before_any_work(monkeypatch, strategy, fuel):
    calls = count_steps(monkeypatch)
    for t in (I, OMEGA):
        with pytest.raises(ValueError, match="unknown strategy|negative fuel"):
            approximate(t, strategy, fuel)
    assert calls == []


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_negative_frontier_cap_is_rejected_before_any_work(monkeypatch, strategy):
    calls = count_steps(monkeypatch)
    for t in (I, OMEGA, parse("TT (+) FF")):
        with pytest.raises(ValueError, match="negative frontier cap -5"):
            approximate(t, strategy, 50, frontier_cap=-5)
        with pytest.raises(ValueError, match="negative frontier cap -1"):
            divergence_bracket(t, strategy, 50, frontier_cap=-1)
    assert calls == []


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


def _plain(pairs):
    return [(print_term(t), m) for t, m in pairs]


# fuels on both sides of short periods, and past many of them
_DIFFERENTIAL_FUELS = (0, 1, 2, 3, 5, 8, 13, 64, 500)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_the_graph_changes_no_result(strategy):
    # against the loop that keeps a graph but runs every round, exactly:
    # the periods `approximate` skips change no object, order or mass;
    # against the loop without a graph up to alpha, since a stored
    # successor may be another alpha-variant.  That loop re-steps every
    # state in every round, and under cbn the states of one gate term
    # keep growing (13 s at fuel 500), so it stops at fuel 64
    caps_hit = 0
    for t in gate_terms():
        for fuel in _DIFFERENTIAL_FUELS:
            got = approximate(t, strategy, fuel)
            where = (print_term(t), fuel)
            if fuel <= 64:
                want = reference_approximate(t, strategy, fuel)
                assert got.residual == want.residual, where
                assert _canonical(got.lower.items()) == _canonical(
                    want.lower.items()
                ), where
                assert _canonical(got.frontier) == _canonical(
                    want.frontier
                ), where
                assert got.divergence() == reference_divergence(want), where
            every_round = reference_approximate(t, strategy, fuel, graph={})
            assert _plain(got.lower.items()) == _plain(
                every_round.lower.items()
            ), where
            assert got.residual == every_round.residual, where
            assert _plain(got.frontier) == _plain(every_round.frontier), where
            assert got.divergence() == every_round.divergence(), where
        hit = _cap_hit(lambda: approximate(t, strategy, 50, frontier_cap=3))
        assert hit == _cap_hit(
            lambda: reference_approximate(t, strategy, 50, frontier_cap=3)
        )
        caps_hit += hit is not None
    assert caps_hit > 0


@pytest.mark.parametrize("fuel", [30, 31, 32])
def test_a_frontier_whose_masses_shrink_is_never_skipped(fuel):
    # the same two states recur in every frontier, each time with half
    # the mass they had a period before
    t = parse("(\\x. x x) (\\x. OMEGA (+) (TT (+) (x x)))")
    got = approximate(t, CBN, fuel)
    want = reference_approximate(t, CBN, fuel)
    assert _plain(got.lower.items()) == _plain(want.lower.items())
    assert got.residual == want.residual
    assert _plain(got.frontier) == _plain(want.frontier)
    assert got.divergence() == want.divergence()
    assert ZERO < got.lower.get(parse("TT")) < got.upper_bound(parse("TT"))


@pytest.mark.parametrize(
    "text, strategy, lower",
    [
        ("OMEGA", CBV, {}),
        ("OMEGA", CBN, {}),
        ("OMEGA (+) \\x. x", CBN, {"\\x. x": HALF}),
    ],
)
def test_a_repeating_frontier_costs_the_same_at_any_fuel(text, strategy, lower):
    start = time.perf_counter()
    b = approximate(parse(text), strategy, 10**7)
    assert time.perf_counter() - start < 1.0
    assert b.lower == SubDist({parse(v): m for v, m in lower.items()})
    assert b.residual == ONE - b.lower.mass()
    assert b.divergence() == (b.residual, b.residual)


def test_the_graph_changes_no_mfdt_result():
    # MFDT's frontier states share the most context subterms: each
    # settled left subtree leaves one state per outcome, all holding the
    # same unreduced right subtree
    rng = random.Random(20261020)
    for _ in range(20):
        tree = random_fdt(rng, 4)
        for fuel in (40, 80, 120, 2000):
            got = run_mfdt(tree, fuel)
            want = reference_approximate(App(MFDT, tree), CBV, fuel)
            where = (print_term(tree), fuel)
            assert _canonical(got.lower.items()) == _canonical(
                want.lower.items()
            ), where
            assert got.residual == want.residual, where
            assert _canonical(got.frontier) == _canonical(want.frontier), where


def test_a_context_subterm_shared_by_two_states_is_reduced_once(monkeypatch):
    # the coin leaves TT R and FF R, and cbv reduces R = (\y. y) (\z. z)
    # in both; the graph holds R's successors after the first
    redex = parse("(\\y. y) (\\z. z)")
    t = App(parse("TT (+) FF"), redex)
    fired = []
    original = reduction.substitute

    def counted(body, var, replacement):
        fired.append(App(Abs(var, body), replacement))
        return original(body, var, replacement)

    monkeypatch.setattr(reduction, "substitute", counted)
    b = approximate(t, CBV, 10)
    assert b.lower == SubDist({parse("\\y. \\z. z"): HALF, I: HALF})
    assert fired.count(redex) == 1
    fired.clear()
    assert reference_approximate(t, CBV, 10) == b
    assert fired.count(redex) == 2


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_recurring_state_is_stepped_once(monkeypatch, strategy):
    calls = count_steps(monkeypatch)
    b = approximate(OMEGA, strategy, 500)
    assert b.residual == ONE
    assert calls == [OMEGA]


def test_a_closure_gives_up_past_the_closure_limit(monkeypatch):
    # the frontier state I (W W) steps to W W and back: a two-state cycle
    t = parse("(\\x. (\\y. y) (x x)) (\\x. (\\y. y) (x x))")
    assert approximate(t, CBN, 5).divergence() == (ONE, ONE)
    monkeypatch.setattr(smallstep, "CLOSURE_LIMIT", 1)
    assert approximate(t, CBN, 5).divergence() == (ZERO, ONE)


def test_a_closure_stops_at_states_an_earlier_one_certified():
    # the second frontier state reaches (\x. OMEGA) (\w. w), which the
    # first closure certified
    t = parse(
        "(\\x. OMEGA) (\\w. w) (+) (\\y. \\z. OMEGA) (\\w. w) (\\w. w)"
    )
    b = approximate(t, CBN, 1)
    assert len(b.frontier) == 2
    assert b.divergence() == (ONE, ONE)


def test_a_frontier_state_already_certified_counts():
    # OMEGA is certified by the first closure before its own turn comes
    b = approximate(parse("(\\x. OMEGA) (\\w. w) (+) OMEGA"), CBN, 1)
    assert [t for t, _ in b.frontier][1] == OMEGA
    assert b.divergence() == (ONE, ONE)


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
