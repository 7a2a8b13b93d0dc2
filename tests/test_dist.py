"""Exact dyadic arithmetic and value sub-distributions."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gate_terms
from plam.bigstep import eval_big
from plam.dist import (
    EMPTY,
    HALF,
    ONE,
    ZERO,
    Dyadic,
    MassError,
    SubDist,
    _digits,
    combine,
    from_value,
)
from plam.reduction import STRATEGIES
from plam.smallstep import approximate
from plam.syntax import Abs, App, Var, parse

I = parse("\\x. x")
K = parse("\\x. \\y. x")
K2 = parse("\\x. \\y. y")

dyadics = st.builds(
    Dyadic, st.integers(0, 1 << 20), st.integers(0, 24)
).filter(lambda d: d.as_fraction() <= 1)
# masses above 1 too, and integers, whose numerators may be even
any_dyadics = st.one_of(
    st.builds(Dyadic, st.integers(0, 64)),
    st.builds(Dyadic, st.integers(0, 1 << 20), st.integers(0, 24)),
)


# ---------- Dyadic ----------


def test_normalization_cancels_common_powers():
    assert Dyadic(2, 1) == ONE
    assert Dyadic(4, 3) == HALF
    assert Dyadic(0, 7) == ZERO
    assert Dyadic(6, 3) == Dyadic(3, 2)


def test_normalization_stops_at_exponent_zero():
    assert Dyadic(8, 2) == Dyadic(2) and Dyadic(8, 2).num == 2
    assert Dyadic(12, 5) == Dyadic(3, 3)
    assert Dyadic(5, 0).exp == 0
    for num, exp in ((-1, 0), (1, -1)):
        with pytest.raises(ValueError):
            Dyadic(num, exp)


def _in_lowest_terms(d: Dyadic) -> bool:
    return d.exp == 0 or d.num % 2 == 1


@settings(max_examples=300)
@given(any_dyadics, any_dyadics)
@example(Dyadic(2), Dyadic(3, 2))
@example(Dyadic(3, 2), Dyadic(2))
@example(Dyadic(2), Dyadic(2))
@example(Dyadic(1, 1), Dyadic(1, 1))
@example(Dyadic(3, 2), Dyadic(1, 2))
@example(ZERO, Dyadic(4))
def test_arithmetic_results_are_in_lowest_terms(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    results = [(a + b, fa + fb), (a * b, fa * fb), (a.half(), fa / 2)]
    if fb <= fa:
        results.append((a - b, fa - fb))
    for d, f in results:
        assert d.as_fraction() == f
        assert _in_lowest_terms(d), d
        assert d == Dyadic(d.num, d.exp)


def test_products_and_halves_with_even_numerators():
    assert Dyadic(2) * Dyadic(3, 2) == Dyadic(3, 1)
    assert Dyadic(3, 2) * Dyadic(2) == Dyadic(3, 1)
    assert Dyadic(4).half() == Dyadic(2) and Dyadic(4).half().exp == 0
    assert Dyadic(2).half() == ONE
    assert ZERO.half() == ZERO and ZERO.half().exp == 0
    assert HALF + HALF == ONE and (HALF + HALF).exp == 0


def test_dyadic_is_an_immutable_value():
    d = Dyadic(6, 3)
    assert repr(d) == "Dyadic(num=3, exp=2)"
    assert repr(Dyadic(2, 2)) == "Dyadic(num=1, exp=1)"
    assert hash(d) == hash((3, 2))
    assert d == Dyadic(3, 2) and d != Dyadic(3, 1)
    assert Dyadic(1) != 1 and not Dyadic(1) == 1
    assert Dyadic(1, 0) != (1, 0)
    for attr in ("num", "exp", "other"):
        with pytest.raises(AttributeError):
            setattr(d, attr, 1)
    assert (d.num, d.exp) == (3, 2)
    copies = [copy.copy(d), copy.deepcopy(d)]
    copies += [
        pickle.loads(pickle.dumps(d, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for c in copies:
        assert type(c) is Dyadic and c == d and (c.num, c.exp) == (3, 2)


def test_str_format():
    assert str(Dyadic(3, 2)) == "3/2^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"


def test_error_messages_shorten_only_huge_numerators():
    small = Dyadic(2**200 + 1, 201)
    with pytest.raises(ValueError) as exc:
        Dyadic(1, 300) - small
    assert str(exc.value) == f"negative result: 1/2^300 - {small}"
    huge = Dyadic(2**5000 + 1, 4999)  # about 2
    with pytest.raises(ValueError) as exc:
        huge.digits(4)
    assert str(exc.value) == "<5001-bit numerator>/2^4999 (about 2) > 1 has no digit expansion"
    with pytest.raises(MassError) as exc:
        SubDist({parse("\\x. x"): huge})
    assert str(exc.value) == "total mass <5001-bit numerator>/2^4999 (about 2) exceeds 1"
    with pytest.raises(ValueError, match="^not a nonnegative dyadic: -<5001-bit numerator>/2\\^0 "):
        Dyadic(-(2**5000), 0)
    # everything but an error message stays exact
    assert str(huge) == f"{2**5000 + 1}/2^4999"
    assert Dyadic.from_json(huge.to_json()) == huge


@settings(max_examples=200)
@given(dyadics, dyadics)
def test_add_matches_fraction_arithmetic(a, b):
    if a.as_fraction() + b.as_fraction() <= 1:
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@settings(max_examples=200)
@given(dyadics, dyadics)
def test_mul_matches_fraction_arithmetic(a, b):
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()


@settings(max_examples=200)
@given(dyadics, dyadics)
def test_sub_matches_fraction_arithmetic(a, b):
    if b.as_fraction() <= a.as_fraction():
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    else:
        with pytest.raises(ValueError):
            a - b


@settings(max_examples=200)
@given(dyadics)
def test_half_and_comparisons(a):
    assert a.half().as_fraction() == a.as_fraction() / 2
    assert (a < ONE) == (a.as_fraction() < 1)
    assert (a <= a) and not (a < a)


def test_truthiness():
    assert not ZERO
    assert HALF


def test_from_fraction_round_trip():
    assert Dyadic.from_fraction(Fraction(3, 8)) == Dyadic(3, 3)
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))
    # the message names the denominator, not the numerator's 5000 digits
    with pytest.raises(ValueError, match="^denominator 3 is not a power of two$"):
        Dyadic.from_fraction(Fraction(10**5000 + 1, 3))


def test_digit_expansion_examples():
    assert HALF.digits(3) == "100"
    assert Dyadic(3, 3).digits(3) == "011"
    assert Dyadic(1, 4).digits(2) == "00"
    # probability one uses the all-ones expansion
    assert ONE.digits(4) == "1111"


_DIGIT_VALUES = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(3, 8),
    Fraction(1, 2**64),
    Fraction(2**64 - 1, 2**64),
    Fraction(2**70 - 3, 2**70),
    Fraction(1, 3),
    Fraction(2, 7),
    Fraction(999, 1000),
    Fraction(10**30 - 1, 10**30),
    Fraction(3, 2),
]


@pytest.mark.parametrize("v", _DIGIT_VALUES, ids=str)
def test_the_digit_rule_is_the_floor_formula(v):
    for n in range(65):
        if v >= 1:
            want = "1" * n
        else:
            want = format(v * 2**n // 1, f"0{n}b") if n else ""
        assert _digits(v.numerator, v.denominator, n) == want
        if v <= 1 and v.denominator & (v.denominator - 1) == 0:
            assert Dyadic.from_fraction(v).digits(n) == want


@settings(max_examples=200)
@given(dyadics, st.integers(1, 12))
def test_digits_truncate_from_below(d, n):
    if d == ONE:
        return
    bits = int(d.digits(n), 2)
    assert Fraction(bits, 1 << n) <= d.as_fraction() < Fraction(bits + 1, 1 << n)


def test_json_round_trip_keeps_exactness():
    d = Dyadic(12345, 20)
    assert Dyadic.from_json(d.to_json()) == d
    assert d.to_json() == {"num": "12345", "exp": 20}  # num is a string
    assert Dyadic.from_json({"num": 12345, "exp": 20}) == d


# float("inf") is what JSON's 1e400 parses to
@pytest.mark.parametrize(
    "text", ["1.5", "1E0", "10e0", " 1", "0x1", "", 1.0, True, 1.99, 0.5, float("inf")]
)
def test_from_json_rejects_anything_but_decimal_digits(text):
    with pytest.raises(ValueError):
        Dyadic.from_json({"num": text, "exp": 0})
    with pytest.raises(ValueError):
        Dyadic.from_json({"num": "3", "exp": text})


# ---------- SubDist ----------


def test_subdist_rejects_non_value_keys():
    with pytest.raises(ValueError):
        SubDist({App(I, I): HALF})


def test_subdist_rejects_mass_above_one():
    with pytest.raises(MassError):
        SubDist({K: Dyadic(3, 2), K2: HALF})


def test_subdist_drops_zero_entries():
    d = SubDist({I: ZERO})
    assert d == EMPTY
    assert d.support() == []


def test_subdist_merges_alpha_equal_keys():
    d = SubDist([(parse("\\a. a"), Dyadic(1, 2)), (parse("\\b. b"), Dyadic(1, 2))])
    assert d.support() == [I]
    assert d.get(I) == HALF


def test_support_is_sorted_by_canonical_text():
    d = SubDist({K2: HALF, K: HALF})
    assert d.support() == [K, K2]


def test_from_value_is_a_point_mass():
    d = from_value(I)
    assert d.mass() == ONE and d.get(I) == ONE
    assert d.get(K) == ZERO


def test_combine_weights_and_merges():
    d = combine([(HALF, from_value(I)), (HALF, SubDist({I: HALF, K: HALF}))])
    assert d.get(I) == Dyadic(3, 2)
    assert d.get(K) == Dyadic(1, 2)
    assert d.mass() == ONE


def test_combine_still_checks_the_total_mass():
    with pytest.raises(MassError):
        combine([(ONE, from_value(I)), (HALF, from_value(K))])


def test_from_value_rejects_a_non_value():
    with pytest.raises(ValueError):
        from_value(App(I, I))


def test_combine_of_nothing_is_empty():
    for parts in ([], [(HALF, EMPTY)], [(ZERO, from_value(I))]):
        d = combine(parts)
        assert d == EMPTY and d.mass() == ZERO and len(d) == 0


def _entry_sum(d: SubDist) -> Dyadic:
    total = ZERO
    for _, m in d.items():
        total = total + m
    return total


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_engine_results_carry_the_exact_sum_of_their_entries(strategy):
    for t in gate_terms():
        lower = approximate(t, strategy, 8).lower
        big = eval_big(t, strategy, 8)
        assert lower.mass() == _entry_sum(lower), t
        assert big.mass() == _entry_sum(big), t


def test_leq_is_pointwise():
    small = SubDist({I: Dyadic(1, 2)})
    big = SubDist({I: HALF, K: Dyadic(1, 2)})
    assert small.leq(big)
    assert not big.leq(small)
    assert EMPTY.leq(small)


def test_subdist_equality_and_hash():
    a = SubDist({parse("\\a. a"): HALF})
    b = SubDist({parse("\\b. b"): HALF})
    assert a == b
    assert len({a, b}) == 1


def test_subdist_json_round_trip():
    d = SubDist({I: Dyadic(1, 2), K: Dyadic(3, 3)})
    obj = d.to_json()
    assert SubDist.from_json(obj) == d
    assert obj["mass"] == Dyadic(5, 3).to_json()
    assert [e["value"] for e in obj["entries"]] == [
        "\\x0. \\x1. x0",
        "\\x0. x0",
    ]
