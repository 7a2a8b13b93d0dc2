"""Terms, alpha equality, substitution, and the concrete syntax."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plam.syntax as syntax
from helpers import random_open_term, random_term
from plam.dist import ONE
from plam.encodings import OMEGA, TT
from plam.reduction import STRATEGIES
from plam.smallstep import approximate
from plam.syntax import (
    Abs,
    App,
    Choice,
    ParseError,
    Var,
    canonicalize,
    fresh_name,
    is_value,
    parse,
    print_term,
    size,
    substitute,
)

I = Abs("x", Var("x"))


# ---------- parsing ----------


def test_parse_application_is_left_associative():
    assert parse("x y z") == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_choice_is_left_associative():
    assert parse("x (+) y (+) z") == Choice(Choice(Var("x"), Var("y")), Var("z"))


def test_parse_application_binds_tighter_than_choice():
    assert parse("x y (+) z") == Choice(App(Var("x"), Var("y")), Var("z"))


def test_parse_lambda_body_extends_right():
    assert parse("\\x. x (+) y") == Abs("x", Choice(Var("x"), Var("y")))
    assert parse("\\x. x y") == Abs("x", App(Var("x"), Var("y")))


def test_parse_accepts_both_choice_spellings():
    assert parse("x ⊕ y") == parse("x (+) y")


def test_parse_accepts_lambda_glyph():
    assert parse("λx. x") == I


def test_parse_constants_expand():
    assert parse("TT") == TT
    assert parse("OMEGA") == OMEGA
    assert parse("NAT 0") == parse("TT")  # same Scott shape


def test_parse_hash_suffixed_names_round_trip():
    t = Abs("k#1", App(Var("k#1"), Var("k#2")))
    assert parse(print_term(t)) == t


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input (line 1, column 1)"),
        ("(\\x. x", "expected RPAREN (line 1, column 7)"),
        ("(+) x", "expected a term, found '(+)' (line 1, column 1)"),
        ("\\. x", "expected IDENT, found '.' (line 1, column 2)"),
        ("x )", "expected EOF, found ')' (line 1, column 3)"),
    ],
)
def test_parse_errors_carry_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parse_strips_comments():
    # `--` starts a comment anywhere, not just in corpus files
    assert parse("x -- trailing comment") == Var("x")
    assert parse("\\x. x -- id") == I


# ---------- printing ----------


def test_print_trailing_lambda_needs_no_parens():
    assert print_term(Abs("x", Abs("y", App(Var("x"), Var("y"))))) == "\\x. \\y. x y"
    assert print_term(Choice(Var("x"), Abs("y", Var("y")))) == "x (+) \\y. y"


def test_print_choice_under_application_is_parenthesized():
    assert print_term(App(Choice(Var("x"), Var("y")), Var("z"))) == "(x (+) y) z"


def test_print_application_argument_grouping():
    assert print_term(parse("x (y z)")) == "x (y z)"
    assert print_term(parse("(x y) z")) == "x y z"


def test_print_canonical_renames_binders_in_preorder():
    out = print_term(parse("(\\x. x) (+) OMEGA"), canonical=True)
    assert out == "(\\x0. x0) (+) (\\x1. x1 x1) (\\x2. x2 x2)"


def test_repr_is_the_printer():
    assert repr(parse("\\x. x y")) == "\\x. x y"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_print_parse_round_trip(seed):
    t = random_term(random.Random(seed), 30)
    assert parse(print_term(t)) == t
    assert parse(print_term(t, canonical=True)) == t


# ---------- alpha equality and hashing ----------


def test_alpha_eq_ignores_binder_names():
    assert Abs("x", Var("x")) == Abs("y", Var("y"))
    assert parse("\\a. \\b. a b") == parse("\\p. \\q. p q")


def test_alpha_eq_distinguishes_binding_structure():
    assert parse("\\x. \\y. x") != parse("\\x. \\y. y")


def test_alpha_eq_tracks_free_names_exactly():
    assert Var("x") != Var("y")
    assert parse("\\a. a x") != parse("\\a. a y")


def test_hash_agrees_with_alpha_eq():
    assert len({parse("\\x. x"), parse("\\y. y"), parse("\\x. x x")}) == 2


def test_keys_share_the_keys_of_closed_subterms():
    t = OMEGA
    assert App(t, t).alpha_key[1] is t.alpha_key
    assert Abs("x", App(Var("x"), t)).alpha_key[1][2] is t.alpha_key


def de_bruijn(t, scope=()):
    """Nameless key by a walk of its own: scope lists the enclosing
    binders outermost first, and a bound variable's index counts the
    binders between it and the innermost binder of its name."""
    match t:
        case Var(name) if name in scope:
            return ("b", scope[::-1].index(name))
        case Var(name):
            return ("f", name)
        case Abs(binder, body):
            return ("l", de_bruijn(body, scope + (binder,)))
        case App(fun, arg):
            return ("a", de_bruijn(fun, scope), de_bruijn(arg, scope))
        case Choice(left, right):
            return ("c", de_bruijn(left, scope), de_bruijn(right, scope))


# terms over three names, so binders rebind and shadow each other and
# some occurrences stay free
_NAMES = st.sampled_from("xyz")
_SHADOWING_TERMS = st.recursive(
    _NAMES.map(Var),
    lambda sub: st.one_of(
        st.builds(Abs, _NAMES, sub),
        st.builds(App, sub, sub),
        st.builds(Choice, sub, sub),
    ),
    max_leaves=12,
)
_OPEN_TERMS = st.integers(0, 10**9).map(
    lambda seed: random_open_term(random.Random(seed), ["x", "y", "v1"], 25)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SHADOWING_TERMS, _OPEN_TERMS))
def test_alpha_key_is_the_de_bruijn_form(t):
    assert t.alpha_key == de_bruijn(t)
    # wrap t, whose keys are now cached, under binders that may capture
    # its free names
    wrappers = (Abs("x", t), Abs("y", Abs("x", App(t, Choice(t, Var("y"))))))
    for wrapped in wrappers:
        assert wrapped.alpha_key == de_bruijn(wrapped)
    c = canonicalize(t)
    assert c == t and c.free_names == t.free_names


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_deep_numerals_evaluate(strategy):
    t = parse("NAT 2000")
    bracket = approximate(t, strategy, 2)
    assert bracket.lower.get(t) == ONE


def test_canonicalize_is_idempotent_and_alpha_preserving():
    t = parse("(\\x. \\y. y x) (\\z. z)")
    c = canonicalize(t)
    assert c == t
    assert canonicalize(c) == c
    assert print_term(c) == print_term(c, canonical=True)


# ---------- free variables, values, size ----------


def test_free_vars_examples():
    assert parse("\\x. x y").free_names == {"y"}
    assert OMEGA.free_names == frozenset()
    assert Var("q").free_names == {"q"}


def test_is_value_on_each_constructor():
    assert is_value(Var("x"))
    assert is_value(I)
    assert not is_value(App(I, I))
    assert not is_value(Choice(I, I))


def test_size_counts_nodes():
    assert size(Var("x")) == 1
    assert size(I) == 2
    assert size(parse("(\\x. x x) (\\x. x x)")) == 9


def test_size_is_built_from_the_childrens_cached_sizes(monkeypatch):
    counted = []
    original = syntax._node_count
    monkeypatch.setattr(
        syntax, "_node_count", lambda t: counted.append(t) or original(t)
    )
    omega = parse("(\\x. x x) (\\x. x x)")
    assert size(omega) == 9 and len(counted) == 9
    assert size(omega) == 9 and len(counted) == 9
    assert size(App(omega, omega)) == 19 and len(counted) == 10


# ---------- substitution ----------


def test_substitute_replaces_free_occurrences():
    assert substitute(App(Var("x"), Var("y")), "x", I) == App(I, Var("y"))


def test_substitute_respects_shadowing():
    t = Abs("x", Var("x"))
    assert substitute(t, "x", OMEGA) == t


def test_substitute_avoids_capture():
    # (\y. x)[x := y] must not let y be captured
    t = Abs("y", Var("x"))
    got = substitute(t, "x", Var("y"))
    assert got == Abs("z", Var("y"))
    assert got.free_names == {"y"}


def test_substitute_returns_same_object_when_var_not_free():
    t = parse("\\a. a a")
    assert substitute(t, "q", OMEGA) is t


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_substitute_closes_terms(seed):
    rng = random.Random(seed)
    body = random_term(rng, 15)
    opened = App(Var("hole"), body)
    closed = substitute(opened, "hole", random_term(rng, 10))
    assert not closed.free_names


def test_fresh_name_avoids_collisions():
    # always suffixes with the first free counter value
    assert fresh_name("x", {"x", "x1", "x2"}) == "x3"
    assert fresh_name("y", set()) == "y1"
