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
        # digits are ASCII: int() rejects '²', and '٣' is not a 3
        ("NAT ²", "unexpected character '²' (line 1, column 5)"),
        ("NAT ٣", "unexpected character '٣' (line 1, column 5)"),
        # one message for a number outside NAT n, wherever it stands
        ("x 3", "number literal only allowed after NAT (line 1, column 3)"),
        ("3", "number literal only allowed after NAT (line 1, column 1)"),
        ("(3)", "number literal only allowed after NAT (line 1, column 2)"),
        ("x (+) 3", "number literal only allowed after NAT (line 1, column 7)"),
        ("\\x. 3", "number literal only allowed after NAT (line 1, column 5)"),
    ],
)
def test_parse_errors_carry_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parse_takes_deeply_nested_parentheses():
    n = 6000
    assert parse("(" * n + "x" + ")" * n) == Var("x")


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


def test_hash_is_composed_from_the_childrens_hashes():
    # one step over the children's hashes, with no name in it
    t, u = OMEGA, parse("\\y. y")
    assert hash(App(t, u)) == hash(("a", hash(t), hash(u)))
    assert hash(Choice(u, t)) == hash(("c", hash(u), hash(t)))
    body = App(Var("x"), t)
    assert hash(Abs("x", body)) == hash(("l", hash(body), True))
    assert hash(Abs("y", body)) == hash(("l", hash(body), False))
    assert hash(Var("x")) == hash(Var("y")) == hash(Var("x'"))


def test_keying_a_term_over_keyed_children_takes_one_call(monkeypatch):
    # the mended cost: a new term's hash takes the stored hashes of its
    # hashed subterms, and its key their stored keys, however large,
    # without walking them
    calls = []
    original = syntax._alpha_key
    monkeypatch.setattr(syntax, "_alpha_key", lambda t: calls.append(t) or original(t))
    t = parse("NAT 200")
    t.alpha_key
    calls.clear()
    for wrapped in (App(t, t), Choice(t, t)):
        hash(wrapped)
        assert calls == [wrapped]
        calls.clear()
        wrapped.alpha_key
        assert calls == [wrapped]
        calls.clear()
    # an abstraction's new nodes are each hashed by a call of their own
    body = App(Var("x"), t)
    wrapped = Abs("x", body)
    hash(wrapped)
    assert calls == [wrapped, body, body._fun]
    calls.clear()
    wrapped.alpha_key
    assert calls == [wrapped]


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


def _binder_chain(names, target):
    """\\names[0]. ... \\names[-1]. target, built without the parser."""
    t = Var(target)
    for name in reversed(names):
        t = Abs(name, t)
    return t


def test_a_key_under_thousands_of_binders_is_the_de_bruijn_form():
    n = 4000
    t = _binder_chain([f"x{i}" for i in range(n)], "x0")
    assert t.alpha_key == de_bruijn(t)
    assert t.body.alpha_key == de_bruijn(t.body)
    renamed = _binder_chain([f"y{n - i}" for i in range(n)], f"y{n}")
    assert renamed == t and hash(renamed) == hash(t)
    assert renamed.alpha_key == t.alpha_key
    # one name for every binder: the variable is bound by the innermost
    shadowed = _binder_chain(["x"] * n, "x")
    assert shadowed.alpha_key == de_bruijn(shadowed)
    assert shadowed != t
    assert shadowed == _binder_chain([f"x{i}" for i in range(n)], f"x{n - 1}")


def _rename_binders(t, scope=()):
    """t with every binder primed: alpha-equal to t, with other names."""
    match t:
        case Var(name):
            return Var(name + "'" if name in scope else name)
        case Abs(binder, body):
            return Abs(binder + "'", _rename_binders(body, scope + (binder,)))
        case App(fun, arg):
            return App(_rename_binders(fun, scope), _rename_binders(arg, scope))
        case Choice(left, right):
            return Choice(_rename_binders(left, scope), _rename_binders(right, scope))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SHADOWING_TERMS, _OPEN_TERMS))
def test_alpha_equal_terms_hash_equal(t):
    renamed = _rename_binders(t)
    assert renamed == t
    assert hash(t) == hash(canonicalize(t)) == hash(renamed)
    # wrappers over keyed subterms, and fresh copies keyed from the top
    for u in (Abs("x", t), App(renamed, t)):
        assert hash(u) == hash(canonicalize(u)) == hash(_rename_binders(u))


def _copy(t):
    """t rebuilt node by node: equal to t, sharing no node with it."""
    match t:
        case Var(name):
            return Var(name)
        case Abs(binder, body):
            return Abs(binder, _copy(body))
        case App(fun, arg):
            return App(_copy(fun), _copy(arg))
        case Choice(left, right):
            return Choice(_copy(left), _copy(right))


def _reference_canonical(t, scope=(), names=None):
    """`canonicalize` by a walk of the named term: binders become x0, x1,
    ... in preorder, skipping t's free names."""
    if names is None:
        names = (n for n in map("x{}".format, range(10**6)) if n not in t.free_names)
    match t:
        case Var(name):
            return Var(next((new for old, new in scope if old == name), name))
        case Abs(binder, body):
            new = next(names)
            return Abs(new, _reference_canonical(body, ((binder, new), *scope), names))
        case App(fun, arg):
            fun = _reference_canonical(fun, scope, names)
            return App(fun, _reference_canonical(arg, scope, names))
        case Choice(left, right):
            left = _reference_canonical(left, scope, names)
            return Choice(left, _reference_canonical(right, scope, names))


def test_an_application_is_hashed_without_a_key():
    t = App(OMEGA, Choice(TT, Var("x")))
    assert t._hash is None and t._key is None
    hash(t)
    assert t._key is None and t._arg._key is None
    # equality against a distinct term with the same hash builds the keys
    u = _copy(t)
    assert u == t
    assert t._key == u._key == de_bruijn(t)
    # a term with another hash is told apart without a key
    v = App(OMEGA, Choice(Var("y"), TT))
    assert hash(v) != hash(t)
    assert v != t and v._key is None


def test_an_abstraction_is_hashed_without_a_key():
    t = parse("\\x. \\y. x (\\z. z y) (+) y")
    hash(t)
    assert t._key is None and t._body._key is None
    u = parse("\\a. \\b. a (\\c. c b) (+) b")
    assert hash(u) == hash(t) and u == t
    assert t._key == u._key == de_bruijn(t)


@pytest.mark.parametrize(
    "a, b", [("\\x. \\y. x y", "\\x. \\y. y x"), ("x y", "y x")]
)
def test_distinct_terms_that_share_a_hash_stay_apart(a, b):
    # the hash is blind to names, so these pairs collide on purpose
    s, t = parse(a), parse(b)
    assert hash(s) == hash(t)
    assert s != t and t != s
    table = {s: "s", t: "t"}
    assert len(table) == 2
    assert table[parse(a)] == "s" and table[parse(b)] == "t"


def _rename_all(t, renaming):
    """t with every name, free or bound, sent through the injective
    renaming; names it does not list are primed."""
    match t:
        case Var(name):
            return Var(renaming.get(name, name + "'"))
        case Abs(binder, body):
            return Abs(renaming.get(binder, binder + "'"), _rename_all(body, renaming))
        case App(fun, arg):
            return App(_rename_all(fun, renaming), _rename_all(arg, renaming))
        case Choice(left, right):
            return Choice(_rename_all(left, renaming), _rename_all(right, renaming))


_LISTED = ("x", "y", "z", "v1")


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SHADOWING_TERMS, _OPEN_TERMS), st.permutations(_LISTED))
def test_renaming_never_changes_the_hash(t, names):
    assert hash(_rename_binders(t)) == hash(t)
    assert hash(_rename_all(t, dict(zip(_LISTED, names)))) == hash(t)


_COMPOUND = st.one_of(
    st.builds(App, _SHADOWING_TERMS, _SHADOWING_TERMS),
    st.builds(Choice, _SHADOWING_TERMS, _SHADOWING_TERMS),
)
_FIRST_CALLS = st.permutations(("hash a", "hash b", "a == b", "b == a", "key a", "key b"))


@settings(max_examples=300, deadline=None)
@given(_COMPOUND, st.one_of(_COMPOUND, st.none()), st.booleans(), _FIRST_CALLS)
def test_lazy_keys_agree_whatever_is_asked_first(a, other, rename, order):
    assert a._hash is None and a._key is None
    # b is built apart from a: a renamed or plain copy, or another term
    if other is None:
        b = _rename_binders(a) if rename else _copy(a)
    else:
        b = other
    answers = {}
    for call in order:
        if call == "hash a":
            answers[call] = hash(a)
        elif call == "hash b":
            answers[call] = hash(b)
        elif call == "a == b":
            answers[call] = a == b
        elif call == "b == a":
            answers[call] = b == a
        else:
            answers[call] = (a if call == "key a" else b).alpha_key
    same = print_term(a, canonical=True) == print_term(b, canonical=True)
    assert answers["a == b"] == answers["b == a"] == same
    assert same == (de_bruijn(a) == de_bruijn(b))
    if same:
        assert answers["hash a"] == answers["hash b"]
    assert answers["key a"] == de_bruijn(a) and answers["key b"] == de_bruijn(b)


@settings(max_examples=200, deadline=None)
@given(_COMPOUND)
def test_an_application_only_ever_hashed_keys_and_canonicalizes(t):
    hash(t)
    assert t._key is None
    assert t.alpha_key == de_bruijn(t)
    u = _copy(t)
    hash(u)
    c = canonicalize(u)
    assert print_term(c) == print_term(_reference_canonical(t))
    assert de_bruijn(c) == de_bruijn(t)


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


def test_size_is_built_from_the_childrens_cached_sizes():
    t = parse("(\\x. x x) (\\x. x x)")
    assert App(t, t)._size == 2 * t._size + 1 == 19
    # the constructor reads the children's stored sizes and walks nothing
    t._size = 1000
    assert App(t, t)._size == 2001
    assert Abs("x", t)._size == 1001


def test_free_names_share_the_childrens_sets():
    open_term = parse("\\x. x y")
    assert App(open_term, OMEGA).free_names is open_term.free_names
    assert Choice(OMEGA, open_term).free_names is open_term.free_names
    assert Abs("x", open_term).free_names is open_term.free_names
    assert Abs("y", open_term).free_names == frozenset()
    assert App(open_term, Var("z")).free_names == {"y", "z"}


@pytest.mark.parametrize(
    "term, field",
    [
        (Var("x"), "name"),
        (I, "binder"),
        (I, "body"),
        (App(I, I), "fun"),
        (App(I, I), "arg"),
        (Choice(I, I), "left"),
        (Choice(I, I), "right"),
        (Var("x"), "free_names"),
        (App(I, I), "free_names"),
    ],
)
def test_public_fields_are_read_only(term, field):
    before = getattr(term, field)
    with pytest.raises(AttributeError):
        setattr(term, field, Var("q"))
    assert getattr(term, field) is before


@pytest.mark.parametrize("term", [Var("x"), I, App(I, I), Choice(I, I)])
def test_terms_have_no_instance_dict(term):
    assert not hasattr(term, "__dict__")
    with pytest.raises(AttributeError):
        term.note = 1


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
