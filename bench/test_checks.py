"""Each workload's check accepts the program's real output and marks the
operation incorrect when fed a wrong one: a mass off by 2^-k, two
outcomes swapped, a count moved past 4 sigma.

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from plam.dist import Dyadic, SubDist  # noqa: E402
from plam.syntax import parse  # noqa: E402

from checks import check_geo_total  # noqa: E402
from workloads import CpsCorpus, ExactRandom, GeoSample, MfdtTrees  # noqa: E402


def off_by(d: Dyadic, k: int) -> Dyadic:
    return d + Dyadic(1, k)


def with_masses(subdist: SubDist, masses: dict) -> SubDist:
    """subdist with the masses of some values replaced, unchecked."""
    out = SubDist()
    out._entries = {v: masses.get(v, m) for v, m in subdist.items()}
    return out


@pytest.fixture(scope="module")
def exact_op():
    op = ExactRandom(0)._op(parse("(TT (+) FF) (+) OMEGA"), "cbn")
    return op, op.run()


def test_exact_random_accepts_the_real_result(exact_op):
    op, result = exact_op
    assert op.check(result) == []


@pytest.mark.parametrize("k", [1, 5, 40])
def test_exact_random_flags_a_residual_off_by_a_power_of_two(exact_op, k):
    op, (bracket, div, big) = exact_op
    wrong = dataclasses.replace(bracket, residual=off_by(bracket.residual, k))
    assert op.check((wrong, div, big))


@pytest.mark.parametrize("k", [3, 40])
def test_exact_random_flags_a_big_step_mass_off_by_a_power_of_two(exact_op, k):
    op, (bracket, div, big) = exact_op
    v, m = next(iter(big.items()))
    wrong = with_masses(big, {v: Dyadic(m.num * 2**k - 1, m.exp + k)})
    assert op.check((bracket, div, wrong))


def test_exact_random_flags_a_divergence_bound_off_by_a_power_of_two(exact_op):
    op, (bracket, (low, up), big) = exact_op
    assert op.check((bracket, (low, off_by(up, 7)), big))


def test_exact_random_counts_the_deep_numeral_as_failed():
    workload = ExactRandom(0)
    deep = workload.round_ops(0)[-2:]
    for op in deep:
        with pytest.raises(RecursionError):
            op.run()


def _mfdt_op():
    workload = MfdtTrees(0)
    # ("node", ("leaf", 0), ("node", ("leaf", 1), ("leaf", 2))): 1/2, 1/4, 1/4
    tree = ("node", ("leaf", 0), ("node", ("leaf", 1), ("leaf", 2)))
    op = workload._op(tree)
    return op, op.run()


def test_mfdt_accepts_the_real_result():
    op, bracket = _mfdt_op()
    assert op.check(bracket) == []


def test_mfdt_flags_two_outcomes_swapped():
    op, bracket = _mfdt_op()
    by_mass = sorted(bracket.lower.items(), key=lambda vm: vm[1])
    (v_small, m_small), (v_big, m_big) = by_mass[0], by_mass[-1]
    wrong = with_masses(bracket.lower, {v_small: m_big, v_big: m_small})
    assert op.check(dataclasses.replace(bracket, lower=wrong))


def test_mfdt_flags_a_mass_off_by_a_power_of_two():
    op, bracket = _mfdt_op()
    v, m = next(iter(bracket.lower.items()))
    wrong = with_masses(bracket.lower, {v: Dyadic(m.num * 2**9 - 1, m.exp + 9)})
    assert op.check(dataclasses.replace(bracket, lower=wrong, residual=Dyadic(1, 9)))


def _geo_batches(workload, count):
    ops = [workload.round_ops(k)[0] for k in range(count)]
    return ops, [op.run() for op in ops]


def test_geo_accepts_real_batches():
    workload = GeoSample(0)
    ops, results = _geo_batches(workload, 20)
    assert all(op.check(r) == [] for op, r in zip(ops, results))
    assert workload.finish() == []


def test_geo_flags_a_count_moved_past_4_sigma():
    workload = GeoSample(0)
    ops, results = _geo_batches(workload, 20)
    for op, r in zip(ops, results):
        op.check(r)
    totals: dict = {}
    for counts in workload.totals.values():
        for n, c in counts.items():
            totals[n] = totals.get(n, 0) + c
    samples = sum(totals.values())
    assert check_geo_total(totals, samples) == []
    # 4 sigma of outcome 0 at p = 1/2 is 2 sqrt(samples); move just past it
    shift = int(2 * samples**0.5) + 1 + abs(totals[0] - samples // 2)
    moved = dict(totals)
    moved[0] -= shift
    moved[1] += shift
    assert check_geo_total(moved, samples)


def test_geo_flags_a_lost_sample():
    workload = GeoSample(0)
    op = workload.round_ops(0)[0]
    est = op.run()
    v = next(iter(est.counts))
    est.counts[v] -= 1
    assert op.check(est)


@pytest.fixture(scope="module")
def cps_ops():
    workload = CpsCorpus(0)
    ops = workload.round_ops(0)
    kinds = [entry[0] for entry in workload.corpus]
    texts = [entry[1] for entry in workload.corpus]
    return workload, ops, kinds, texts


def test_cps_hand_checks_every_golden_entry(cps_ops):
    workload, _, _, _ = cps_ops
    assert workload.hand_checked == 9


def test_cps_accepts_the_real_golden_results(cps_ops):
    _, ops, kinds, _ = cps_ops
    for op, kind in zip(ops, kinds):
        if kind == "golden":
            assert op.check(op.run()) == []


def _xor_reports(cps_ops):
    _, ops, _, texts = cps_ops
    op = ops[texts.index(r"(\x. XOR x x) (TT (+) FF)")]
    return op, op.run()


def test_cps_flags_two_outcomes_swapped_against_the_hand_value(cps_ops):
    op, (v_by_n, n_by_v) = _xor_reports(cps_ops)
    # call-by-value gives FF with mass 1; put that mass on TT instead
    (ff, one), = v_by_n.source.lower.items()
    wrong_source = dataclasses.replace(
        v_by_n.source, lower=SubDist({parse("TT"): one})
    )
    assert op.check((dataclasses.replace(v_by_n, source=wrong_source), n_by_v))


def test_cps_flags_a_target_mass_off_by_a_power_of_two(cps_ops):
    op, (v_by_n, n_by_v) = _xor_reports(cps_ops)
    v, m = next(iter(n_by_v.target.lower.items()))
    wrong_lower = with_masses(n_by_v.target.lower, {v: Dyadic(m.num * 2**6 - 1, m.exp + 6)})
    wrong_target = dataclasses.replace(n_by_v.target, lower=wrong_lower)
    assert op.check((v_by_n, dataclasses.replace(n_by_v, target=wrong_target)))
