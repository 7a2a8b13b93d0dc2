"""Monte Carlo runs over single reduction paths."""

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import gate_terms, reference_sample_run
from plam.encodings import FF, GEO, TT, decode_nat
from plam import sampler
from plam.reduction import CBN, CBV, STRATEGIES
from plam.sampler import RNG_ALGORITHM, estimate, sample_run
from plam.syntax import Choice, OpenTermError, Var, parse, print_term


class ScriptedBits:
    """Stand-in generator replaying a fixed coin script."""

    def __init__(self, bits):
        self.bits = list(bits)

    def getrandbits(self, n):
        assert n == 1
        return self.bits.pop(0)


I = parse("\\x. x")


def test_bit_one_takes_the_left_branch():
    out = sample_run(Choice(TT, FF), CBN, 10, ScriptedBits([1]))
    assert out.result == TT
    assert out.steps_used == 1


def test_bit_zero_takes_the_right_branch():
    out = sample_run(Choice(TT, FF), CBN, 10, ScriptedBits([0]))
    assert out.result == FF


def test_deterministic_steps_consume_no_bits():
    out = sample_run(parse("(\\x. x) (\\y. y)"), CBV, 10, ScriptedBits([]))
    assert out.result == parse("\\y. y")
    assert out.steps_used == 1


def test_step_budget_exhaustion_reports_a_timeout():
    out = sample_run(parse("OMEGA"), CBV, 25, ScriptedBits([]))
    assert out.timed_out
    assert out.result is None
    assert out.steps_used == 25


def test_values_finish_instantly():
    out = sample_run(I, CBN, 0, ScriptedBits([]))
    assert out.result == I and out.steps_used == 0


def test_open_terms_are_rejected():
    with pytest.raises(OpenTermError):
        sample_run(Var("x"), CBV, 5, ScriptedBits([]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_negative_step_budgets_are_rejected(strategy):
    with pytest.raises(ValueError):
        sample_run(I, strategy, -1, ScriptedBits([]))
    with pytest.raises(ValueError):
        estimate(Choice(TT, FF), strategy, 5, -1, 0)


def test_unknown_strategies_are_rejected():
    with pytest.raises(ValueError):
        sample_run(I, "cbneed", 5, ScriptedBits([]))
    with pytest.raises(ValueError):
        estimate(I, "cbneed", 5, 5, 0)


# ---------- step budget and coin order ----------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_value_reached_at_exactly_the_budget_is_returned(strategy):
    t = parse("(\\x. x) ((\\x. x) (\\y. y))")
    out = sample_run(t, strategy, 2, ScriptedBits([]))
    assert out.result == I and out.steps_used == 2
    out = sample_run(t, strategy, 1, ScriptedBits([]))
    assert out.timed_out and out.steps_used == 1


def test_the_step_past_the_budget_still_tosses_its_coin():
    bits = ScriptedBits([1, 0])
    out = sample_run(parse("(\\x. x) (TT (+) FF)"), CBV, 0, bits)
    assert out.timed_out and out.steps_used == 0
    assert bits.bits == [0]


def test_cbv_flips_the_inner_left_then_inner_right_then_outer_choice():
    t = Choice(Choice(TT, FF), Choice(FF, TT))
    for inner_left, inner_right, outer in product((0, 1), repeat=3):
        bits = ScriptedBits([inner_left, inner_right, outer])
        out = sample_run(t, CBV, 10, bits)
        left = TT if inner_left else FF
        right = FF if inner_right else TT
        assert out.result == (left if outer else right)
        assert out.steps_used == 3 and bits.bits == []


def test_cbn_flips_the_outer_choice_first_and_only_the_chosen_branch():
    t = Choice(Choice(TT, FF), Choice(FF, TT))
    for outer, inner in product((0, 1), repeat=2):
        bits = ScriptedBits([outer, inner, 1])
        out = sample_run(t, CBN, 10, bits)
        branch = (TT, FF) if outer else (FF, TT)
        assert out.result == branch[0 if inner else 1]
        assert out.steps_used == 2 and bits.bits == [1]


# ---------- the machines against the small-step rules ----------


def _gate_terms():
    return gate_terms() + [GEO, parse("(\\x. x x x) (\\x. x x x)")]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_machines_take_the_small_step_path(strategy):
    timeouts = 0
    for i, t in enumerate(_gate_terms()):
        for seed, max_steps in product((i, 7 * i + 1), (0, 3, 12, 60)):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = sample_run(t, strategy, max_steps, ours)
            want = reference_sample_run(t, strategy, max_steps, theirs)
            assert got.result == want.result, (print_term(t), seed, max_steps)
            assert got.steps_used == want.steps_used
            assert got.timed_out == want.timed_out
            assert ours.getstate() == theirs.getstate()
            timeouts += got.timed_out
    assert timeouts > 0


# ---------- aggregation ----------


def test_estimate_is_reproducible_for_a_fixed_seed():
    a = estimate(Choice(TT, FF), CBN, 500, 50, 123)
    b = estimate(Choice(TT, FF), CBN, 500, 50, 123)
    assert a.counts == b.counts and a.timeouts == b.timeouts


def test_estimate_frozen_run():
    r = estimate(Choice(TT, FF), CBN, 1000, 100, 42)
    assert r.counts == {TT: 508, FF: 492}
    assert r.timeouts == 0
    assert r.frequency(TT) == Fraction(508, 1000)


def test_estimate_counts_timeouts():
    r = estimate(parse("OMEGA (+) \\x. x"), CBN, 2000, 200, 7)
    assert r.counts == {I: 1059}
    assert r.timeouts == 941
    assert r.timeout_rate == Fraction(941, 2000)


def test_frequencies_concentrate_near_the_exact_mass():
    # 4 sigma band around 1/2 at 10000 samples
    r = estimate(Choice(TT, FF), CBN, 10_000, 10, 1)
    assert abs(r.frequency(TT) - Fraction(1, 2)) <= Fraction(2, 100)
    assert r.frequency(TT) + r.frequency(FF) == 1


def test_seeded_counts_are_pinned():
    # the counts the small-step sampler gave for these seeds
    geo = estimate(GEO, CBV, 1000, 2000, 3)
    assert {decode_nat(v): c for v, c in geo.counts.items()} == {
        0: 490, 1: 247, 2: 132, 3: 66, 4: 30, 5: 18, 6: 6, 7: 7, 8: 1, 10: 3
    }
    assert geo.timeouts == 0
    geo = estimate(GEO, CBV, 1000, 2000, 20261019)
    assert {decode_nat(v): c for v, c in geo.counts.items()} == {
        0: 478, 1: 250, 2: 144, 3: 68, 4: 35, 5: 10, 6: 10, 7: 1, 9: 1, 10: 3
    }
    assert geo.timeouts == 0
    nested = parse("((TT (+) FF) (+) (\\z. z (+) OMEGA)) ((\\w. w) (+) FF)")
    r = estimate(nested, CBN, 1000, 40, 5)
    assert {print_term(v, canonical=True): c for v, c in r.counts.items()} == {
        "\\x0. (\\x1. x1) (+) \\x2. \\x3. x3": 220,
        "\\x0. \\x1. x1": 140,
        "\\x0. x0": 374,
    }
    assert r.timeouts == 266


def _recording_sample_run(monkeypatch):
    """Route estimate's samples through a wrapper of `sampler.sample_run`
    that records each (generator, outcome) pair."""
    calls = []
    original = sampler.sample_run

    def recorded(t, strategy, max_steps, rng):
        outcome = original(t, strategy, max_steps, rng)
        calls.append((rng, outcome))
        return outcome

    monkeypatch.setattr(sampler, "sample_run", recorded)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_estimate_matches_counting_each_sample_by_its_term(strategy, monkeypatch):
    calls = _recording_sample_run(monkeypatch)
    samples = 6
    for i, t in enumerate(_gate_terms()):
        calls.clear()
        seed, max_steps = 3 * i + 1, 12
        got = estimate(t, strategy, samples, max_steps, seed)
        rng = random.Random(seed)
        want: dict = {}
        timeouts = 0
        for _ in range(samples):
            outcome = sample_run(t, strategy, max_steps, rng)
            if outcome.timed_out:
                timeouts += 1
            else:
                want[outcome.result] = want.get(outcome.result, 0) + 1
        assert list(got.counts.items()) == list(want.items()), print_term(t)
        assert [print_term(v) for v in got.counts] == [print_term(v) for v in want]
        assert got.timeouts == timeouts
        # every sample went through sampler.sample_run, on one generator
        assert len(calls) == samples
        assert calls[-1][0].getstate() == rng.getstate()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "text",
    [
        # two distinct subterms with the same value
        "(\\x. x) (+) (\\y. y)",
        # one subterm, \y. x, in two environments whose x reads back
        # alpha-equal
        "(\\f. f TT (+) f (\\a. \\b. a)) (\\x. \\y. x)",
    ],
)
def test_alpha_equal_outcomes_of_distinct_closures_merge(strategy, text, monkeypatch):
    calls = _recording_sample_run(monkeypatch)
    r = estimate(parse(text), strategy, 64, 20, 11)
    assert r.timeouts == 0
    assert list(r.counts.values()) == [64]
    # through one table, as estimate reads them, the samples' closures
    # read back to two distinct objects, so the merge is the counts'
    table: dict = {}
    values = [sampler._read_back(o._closure, table, {}) for _, o in calls]
    assert len({id(v) for v in values}) == 2
    assert len(set(values)) == 1


def test_an_outcome_seen_again_builds_nothing(monkeypatch):
    built = []
    original = sampler.substitute

    def recorded(body, var, replacement):
        v = original(body, var, replacement)
        built.append(v)
        return v

    monkeypatch.setattr(sampler, "substitute", recorded)
    r = estimate(GEO, CBV, 100, 2000, 3)
    assert r.timeouts == 0 and len(r.counts) == 7
    # no substitution builds a term built before, up to alpha, and the
    # hundred samples cost a handful of them
    assert len(set(built)) == len(built)
    assert len(built) <= 10


def test_estimate_rejects_empty_sample_counts():
    with pytest.raises(ValueError):
        estimate(I, CBV, 0, 10, 0)


def test_json_shape():
    r = estimate(Choice(TT, FF), CBN, 100, 10, 5)
    obj = r.to_json()
    assert obj["algorithm"] == RNG_ALGORITHM
    assert obj["strategy"] == CBN
    assert obj["samples"] == 100
    assert sum(e["count"] for e in obj["entries"]) + obj["timeouts"] == 100
    assert obj["seed"] == 5
