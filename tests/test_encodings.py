"""Standard program encodings: booleans, numerals, trees, loops."""

import random
import time

import pytest

from helpers import (
    random_fdt,
    random_open_term,
    random_term,
    random_dyadic_dist,
    random_value,
    reference_decode_nat,
    reference_fdt_from_dist,
    reference_fdt_shape,
)
from plam.bigstep import eval_big
from plam.dist import HALF, ONE, ZERO, Dyadic, SubDist, from_value
from plam.encodings import (
    FF,
    GEO,
    H,
    MFDT,
    OMEGA,
    TT,
    XOR,
    FdtError,
    decode_nat,
    encode_bits,
    encode_nat,
    fdt_from_dist,
    fdt_shape,
    is_fdt,
    leaf,
    node,
    pair,
    pd,
    run_mfdt,
    standard_choice,
)
from plam.reduction import CBN, CBV, step
from plam.smallstep import approximate, divergence_bracket
from plam.syntax import print_term
from plam import encodings
from plam.syntax import RESERVED, Abs, App, Var, is_value, parse, print_term


# ---------- booleans ----------


def test_boolean_projections():
    assert eval_big(App(App(TT, FF), TT), CBV, 10) == from_value(FF)
    assert eval_big(App(App(FF, FF), TT), CBV, 10) == from_value(TT)


@pytest.mark.parametrize(
    "a, b, out", [(TT, TT, FF), (TT, FF, TT), (FF, TT, TT), (FF, FF, FF)]
)
def test_xor_truth_table(a, b, out):
    assert eval_big(App(App(XOR, a), b), CBV, 30) == from_value(out)
    assert eval_big(App(App(XOR, a), b), CBN, 30) == from_value(out)


# ---------- numerals ----------


def test_numeral_round_trip():
    for n in range(50):
        v = encode_nat(n)
        assert is_value(v) and not v.free_names
        assert decode_nat(v) == n


def test_zero_shares_the_boolean_shape():
    assert encode_nat(0) == TT


def test_decode_rejects_non_numerals():
    assert decode_nat(parse("\\x. x")) is None
    assert decode_nat(Var("n")) is None
    assert decode_nat(parse("\\x. \\y. y (\\z. z)")) is None


def test_decode_reads_binders_not_names():
    assert decode_nat(parse("\\x. \\x. x")) is None
    assert decode_nat(parse("\\y. \\y. y (NAT 3)")) == 4
    assert decode_nat(parse("\\y. \\x. x (\\a. \\b. a)")) == 1
    # the inner numeral must be closed
    assert decode_nat(parse("\\x. \\y. y (\\a. \\b. x)")) is None


def _numeral_look_alike(rng: random.Random, depth: int):
    """A numeral's shape of the given depth with binders drawn from three
    names, so shadowing is common, and heads drawn from the two binders."""
    names = "xyz"
    x, y = rng.choice(names), rng.choice(names)
    if depth == 0:
        return Abs(x, Abs(y, Var(rng.choice((x, y)))))
    inner = _numeral_look_alike(rng, depth - 1)
    return Abs(x, Abs(y, App(Var(rng.choice((x, y))), inner)))


def test_decode_agrees_with_alpha_equality_on_look_alikes():
    rng = random.Random(20261019)
    decoded = 0
    for _ in range(400):
        depth = rng.randint(0, 6)
        t = _numeral_look_alike(rng, depth)
        want = depth if t == encode_nat(depth) else None
        assert decode_nat(t) == want, print_term(t)
        decoded += want is not None
    assert 10 < decoded < 390


def test_bit_strings_are_distinct_values():
    strings = ["", "0", "1", "01", "10", "101"]
    encoded = [encode_bits(s) for s in strings]
    assert all(is_value(t) and not t.free_names for t in encoded)
    assert len(set(encoded)) == len(strings)


# ---------- pairs ----------


def test_pair_selects_components():
    assert eval_big(App(pair(TT, FF), TT), CBV, 10) == from_value(TT)
    assert eval_big(App(pair(TT, FF), FF), CBV, 10) == from_value(FF)


# ---------- the looping combinator ----------


def test_loop_head_unfolds_in_two_deterministic_steps():
    rng = random.Random(20260822)
    for _ in range(50):
        v = random_value(rng, 12)
        first = step(App(H, v), CBV)
        assert len(first) == 1
        second = step(first[0], CBV)
        assert len(second) == 1
        expected = App(v, Abs("z", App(App(H, v), Var("z"))))
        assert second[0] == expected


def test_omega_is_the_closed_loop():
    assert OMEGA == parse("(\\x. x x) (\\x. x x)")
    assert divergence_bracket(OMEGA, CBV, 1) == (ONE, ONE)


# ---------- finite dyadic trees ----------


def test_tree_recognizer():
    assert fdt_shape(leaf(7)) == ("leaf", 7)
    assert fdt_shape(node(leaf(0), leaf(1)))[0] == "node"
    assert is_fdt(leaf(0))
    assert not is_fdt(TT)
    assert not is_fdt(OMEGA)


def test_node_rejects_non_tree_children():
    with pytest.raises(FdtError):
        node(leaf(0), parse("\\x. x"))


# near misses of the two readers, with the answer of each
_NEAR_MISSES = [
    # shadowed binders: the head is the inner binder
    ("\\x. \\x. x", None, None),
    ("\\x. \\x. x (NAT 1)", 2, None),
    ("\\y. \\y. y (NAT 2)", 3, None),
    ("\\y. \\y. y (\\a. \\b. a (NAT 0)) (\\a. \\b. a (NAT 1))", None, "node"),
    # a head bound by the wrong binder
    ("\\x. \\y. y (NAT 0)", 1, None),
    ("\\x. \\y. x (\\a. \\b. a (NAT 0)) (\\a. \\b. a (NAT 1))", None, None),
    ("\\x. \\y. y (\\a. \\b. b (NAT 0)) (\\a. \\b. a (NAT 1))", None, None),
    # open subtrees
    ("\\x. \\y. y (\\a. \\b. a (NAT 0)) (\\a. \\b. x (NAT 1))", None, None),
    ("\\x. \\y. y (\\a. \\b. a (NAT 0)) (\\a. \\b. a y)", None, None),
    # a numeral with a free inner variable
    ("\\x. \\y. x (\\a. \\b. b (\\c. \\d. y))", None, None),
    ("\\x. \\y. x (\\a. \\b. b (\\c. \\d. a))", None, None),
    ("\\a. \\b. b (\\c. \\d. a)", None, None),
    # the two readers' own shapes, for contrast
    ("\\x. \\y. x (NAT 4)", None, "leaf"),
    ("\\a. \\b. b (\\c. \\d. c)", 1, None),
]


@pytest.mark.parametrize("text, number, shape", _NEAR_MISSES)
def test_tree_readers_on_near_misses(text, number, shape):
    t = parse(text)
    assert decode_nat(t) == reference_decode_nat(t) == number
    got = fdt_shape(t)
    assert got == reference_fdt_shape(t)
    assert (got and got[0]) == shape
    if shape is None:
        with pytest.raises(FdtError):
            run_mfdt(t, 10)


def _tree_look_alike(rng: random.Random, depth: int):
    """A tree's shape with binders drawn from three names, so shadowing is
    common, heads drawn from the two binders and a free name, and leaves
    over numeral look-alikes or open terms in the tree's binders."""
    x, y = rng.choice("xyz"), rng.choice("xyz")
    head = Var(rng.choice((x, y, y, "w")))
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.2:
            arg = random_open_term(rng, [x, y], 6)
        else:
            arg = _numeral_look_alike(rng, rng.randint(0, 3))
        return Abs(x, Abs(y, App(head, arg)))
    left = _tree_look_alike(rng, depth - 1)
    right = _tree_look_alike(rng, depth - 1)
    return Abs(x, Abs(y, App(App(head, left), right)))


def test_tree_readers_agree_with_the_pattern_references():
    rng = random.Random(20261020)
    makers = (
        lambda: random_term(rng, 30),
        lambda: random_fdt(rng, 3),
        lambda: _tree_look_alike(rng, 3),
        lambda: _numeral_look_alike(rng, rng.randint(0, 5)),
    )
    shapes = {None: 0, "leaf": 0, "node": 0}
    numbers = 0
    for _ in range(500):
        for make in makers:
            t = make()
            got = fdt_shape(t)
            assert got == reference_fdt_shape(t), print_term(t)
            assert decode_nat(t) == reference_decode_nat(t), print_term(t)
            shapes[got and got[0]] += 1
            numbers += decode_nat(t) is not None
    assert min(shapes.values()) > 100 and numbers > 100, (shapes, numbers)


def test_denoted_distribution_examples():
    d = pd(node(leaf(0), node(leaf(1), leaf(2))))
    assert d == SubDist(
        {
            encode_nat(0): HALF,
            encode_nat(1): Dyadic(1, 2),
            encode_nat(2): Dyadic(1, 2),
        }
    )
    assert pd(leaf(9)) == from_value(encode_nat(9))


def test_runner_recovers_the_denoted_distribution():
    rng = random.Random(11)
    for _ in range(20):
        tree = random_fdt(rng, 5)
        bracket = run_mfdt(tree, 1000)
        assert bracket.residual == ZERO
        assert bracket.lower == pd(tree)


def test_runner_rejects_non_trees():
    with pytest.raises(FdtError):
        run_mfdt(parse("\\x. x"), 10)


def test_tree_from_distribution_round_trips():
    d = {0: HALF, 1: Dyadic(1, 2), 2: Dyadic(1, 2)}
    tree = fdt_from_dist(d)
    assert pd(tree) == SubDist({encode_nat(n): m for n, m in d.items()})


def test_trees_over_many_outcomes_round_trip():
    # numerals up to the largest outcome are built once, each over the
    # last, and shared between the leaves that hold them
    uniform = {n: Dyadic(1, 8) for n in range(256)}
    # 3/8 splits into two leaves for outcome 0
    skewed = {0: Dyadic(3, 3), 7: Dyadic(1, 2), 299: Dyadic(1, 2), 300: Dyadic(1, 3)}
    for d in (uniform, skewed):
        tree = fdt_from_dist(d)
        assert is_fdt(tree)
        assert pd(tree) == SubDist({encode_nat(n): m for n, m in d.items()})


def test_tree_outcomes_must_be_natural_numbers():
    with pytest.raises(FdtError, match="not a natural number"):
        fdt_from_dist({-1: HALF, 0: HALF})
    # an outcome of mass 0 gets no leaf
    assert fdt_from_dist({-1: ZERO, 2: ONE}) == leaf(2)


def test_tree_from_point_mass_is_a_leaf():
    assert fdt_from_dist({3: ONE}) == leaf(3)


def test_tree_from_distribution_requires_total_mass_one():
    with pytest.raises(FdtError):
        fdt_from_dist({0: HALF})
    with pytest.raises(FdtError) as exc:
        fdt_from_dist({})
    assert "need exactly 1" in str(exc.value)


def test_random_tree_distributions_round_trip():
    rng = random.Random(13)
    for _ in range(25):
        tree = random_fdt(rng, 5)
        d = {decode_nat(v): m for v, m in pd(tree).items()}
        rebuilt = fdt_from_dist(d)
        assert pd(rebuilt) == pd(tree)


def test_trees_match_the_canonical_code_builder():
    # the Knuth-Yao descent and the canonical prefix code give the same
    # tree, leaf for leaf, and the same error for the same bad input
    rng = random.Random(20261021)
    built = 0
    for _ in range(600):
        d = random_dyadic_dist(rng)
        if rng.random() < 0.1:
            d[rng.choice(list(d))] = Dyadic(rng.randint(0, 5), rng.randint(0, 3))
        if rng.random() < 0.05:
            d[-1] = Dyadic(rng.randint(0, 1), 1)
        try:
            want = print_term(reference_fdt_from_dist(d))
        except FdtError as exc:
            with pytest.raises(FdtError) as got:
                fdt_from_dist(d)
            assert str(got.value) == str(exc)
            continue
        assert print_term(fdt_from_dist(d)) == want, d
        built += 1
    assert built > 400


def test_a_tiny_mass_is_rejected_at_once():
    started = time.monotonic()
    with pytest.raises(FdtError, match="need exactly 1"):
        fdt_from_dist({0: Dyadic(1, 10**9)})
    with pytest.raises(FdtError, match="exceeds 1"):
        fdt_from_dist({0: Dyadic(2**64 + 1, 64), 1: Dyadic(1, 10**9)})
    assert time.monotonic() - started < 1.0


# ---------- the geometric program ----------


def test_geometric_prefix_probabilities():
    bracket = approximate(GEO, CBV, 30)
    expected = SubDist({encode_nat(n): Dyadic(1, n + 1) for n in range(3)})
    assert bracket.lower == expected
    assert bracket.residual == Dyadic(1, 3)


# ---------- thunk-guarded choice ----------


def test_standard_choice_fires_under_cbv_despite_a_looping_branch():
    t = standard_choice(TT, OMEGA)
    bracket = approximate(t, CBV, 50)
    assert bracket.lower == SubDist({TT: HALF})
    assert bracket.residual == HALF
    # the raw coin would never fire
    raw = approximate(parse("TT (+) OMEGA"), CBV, 50)
    assert raw.lower == SubDist()


def test_standard_choice_matches_plain_choice_under_cbn():
    t = standard_choice(TT, FF)
    assert eval_big(t, CBN, 20) == SubDist({TT: HALF, FF: HALF})
    assert eval_big(t, CBV, 20) == SubDist({TT: HALF, FF: HALF})


# ---------- parser constants ----------


def test_every_reserved_name_parses_to_its_encodings_constant():
    names = [n for n in RESERVED if n != "NAT"]
    assert names == [
        "TT", "FF", "XOR", "DELTA", "OMEGA", "H", "MFDT", "SUCC", "GEO", "PAIR"
    ]
    for name in names:
        assert parse(name) is getattr(encodings, name)


def test_later_constants_share_the_objects_of_earlier_ones():
    assert OMEGA.fun is OMEGA.arg is encodings.DELTA
    assert MFDT.fun is H
    assert GEO.arg is TT  # NAT 0
    assert XOR.body.body.fun.fun.arg.body.fun.arg is FF
