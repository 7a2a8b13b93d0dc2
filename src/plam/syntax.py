"""Terms of the untyped lambda calculus with binary fair choice.

Equality and hashing on terms are up to renaming of bound variables, so
terms can be used directly as keys of distributions; the nameless key
that decides it is private to this module.

Terms are `__slots__` objects without an instance dict.  The
constructors build free names and size from the children's; nothing is
hashed or keyed at construction.  A term's hash is one step over its
children's stored hashes (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", 2006) and ignores names altogether, so it is the same
for alpha-equivalent terms without any key: a variable hashes to a
constant, and an abstraction to its body's hash and whether its binder
occurs in the body.  Distinct terms may share a hash.  A term fills its
hash on its first hash or comparison, and builds its nameless key only
on its first equality test against a distinct term with the same hash:
a dict compares keys only then, so most states, context subterms and
values of a run are never keyed.  Fields are read-only properties over
private slots.

The hot walks (free names, hashes, keys, substitution, and the
steppers, the big-step engine, the sampler's machines and read-back,
and the finite dyadic tree readers in their modules) dispatch on
`type(t)` and read the slots directly: a class pattern with two
subpatterns costs about ten times a type test and two slot reads, and a
property read costs more than a slot read.  `__match_args__` names the
slots for the cold walks (printing, canonical forms, the CPS
translations, the other encodings), which keep their `match`
statements.  Recursive walks are module-level functions: a nested one
calling itself through its own cell would leave a cycle per call.

The concrete syntax is

    term    := operand ('(+)' operand)*
    operand := '\\' ident '.' term | atom+
    atom    := ident | 'NAT' number | '(' term ')'

so application binds tighter than '(+)', '(+)' associates to the left,
and a lambda's body extends right.  In ASCII only, an ident matches
[A-Za-z_][A-Za-z0-9_']*(#[0-9]+)? and a number [0-9]+.  '--' starts a
comment that runs to the end of the line.
The reserved constants (TT, FF, XOR, DELTA, OMEGA, H, MFDT, SUCC, GEO,
PAIR) are written in this syntax in `_CONSTANT_TEXTS` and parsed once at
import; `NAT n` is the Scott numeral n.
"""

from __future__ import annotations

import re
import sys
from itertools import count
from operator import attrgetter

# Reduction of translated terms stacks continuations a few thousand frames
# deep; the default limit is too small for that.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.reason = message
        self.pos = pos
        self.line = line
        self.col = col


class OpenTermError(ValueError):
    def __init__(self, t: Term):
        names = ", ".join(sorted(t.free_names))
        super().__init__(f"term has free variables: {names}")


class Term:
    """Base class for Var, Abs, App and Choice.  `_hash` and `_key` are
    None until `_alpha_key` fills them in, the hash first."""

    __slots__ = ("_free", "_size", "_key", "_hash")
    __match_args__ = ()

    free_names = property(attrgetter("_free"))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash is None:
            _alpha_key(self)
        if other._hash is None:
            _alpha_key(other)
        if self._hash != other._hash:
            return False
        if self._key is None:
            _alpha_key(self)
        if other._key is None:
            _alpha_key(other)
        return self._key == other._key

    def __hash__(self):
        if self._hash is None:
            _alpha_key(self)
        return self._hash

    @property
    def alpha_key(self):
        """Nameless form: identical keys exactly for alpha-equivalent terms."""
        while self._key is None:
            _alpha_key(self)
        return self._key

    def __repr__(self):
        return print_term(self)


class Var(Term):
    __slots__ = ("_name",)
    __match_args__ = ("_name",)
    name = property(attrgetter("_name"))

    def __init__(self, name: str):
        self._name = name
        self._free = _free_names(self)
        self._size = 1
        self._key = self._hash = None


class Abs(Term):
    __slots__ = ("_binder", "_body")
    __match_args__ = ("_binder", "_body")
    binder = property(attrgetter("_binder"))
    body = property(attrgetter("_body"))

    def __init__(self, binder: str, body: Term):
        self._binder = binder
        self._body = body
        self._free = _free_names(self)
        self._size = body._size + 1
        self._key = self._hash = None


class App(Term):
    __slots__ = ("_fun", "_arg")
    __match_args__ = ("_fun", "_arg")
    fun = property(attrgetter("_fun"))
    arg = property(attrgetter("_arg"))

    def __init__(self, fun: Term, arg: Term):
        self._fun = fun
        self._arg = arg
        self._free = _free_names(self)
        self._size = fun._size + arg._size + 1
        self._key = self._hash = None


class Choice(Term):
    __slots__ = ("_left", "_right")
    __match_args__ = ("_left", "_right")
    left = property(attrgetter("_left"))
    right = property(attrgetter("_right"))

    def __init__(self, left: Term, right: Term):
        self._left = left
        self._right = right
        self._free = _free_names(self)
        self._size = left._size + right._size + 1
        self._key = self._hash = None


def is_value(t: Term) -> bool:
    """Values are variables and abstractions."""
    return isinstance(t, (Var, Abs))


# the hash of every variable
_VAR_HASH = hash("v")


def _alpha_key(t: Term) -> None:
    """Fill in t's hash on the first call and its nameless key on the
    second.

    The hash is blind to names, so renaming any variable, bound or free,
    keeps it: a variable hashes to a constant, an abstraction to its
    body's hash and whether the binder occurs in the body, and an
    application or a choice to its tag and its children's hashes.  Each
    is one step over the children's stored hashes.  Distinct terms may
    share a hash (`x y` and `y x` do); their keys tell them apart.

    Keys are ("f", name) for a free variable, ("b", i) for the variable
    bound i binders up, and ("l", body), ("a", fun, arg), ("c", left,
    right).  A dict compares the keys of two terms only when their
    hashes are equal, so most terms of a run never build one."""
    kind = type(t)
    if kind is App or kind is Choice:
        if kind is App:
            tag, fun, arg = "a", t._fun, t._arg
        else:
            tag, fun, arg = "c", t._left, t._right
        if t._hash is None:
            if fun._hash is None:
                _alpha_key(fun)
            if arg._hash is None:
                _alpha_key(arg)
            t._hash = hash((tag, fun._hash, arg._hash))
        else:
            # a term with a hash has children with hashes, so one call
            # each builds their keys
            if fun._key is None:
                _alpha_key(fun)
            if arg._key is None:
                _alpha_key(arg)
            t._key = (tag, fun._key, arg._key)
    elif kind is Abs:
        body = t._body
        if t._hash is None:
            if body._hash is None:
                _alpha_key(body)
            t._hash = hash(("l", body._hash, t._binder in body._free))
        else:
            t._key = ("l", _bound_key(body, {t._binder: 0}, 1))
    elif t._hash is None:
        t._hash = _VAR_HASH
    else:
        t._key = ("f", t._name)


def _bound_key(t: Term, depth: dict[str, int], level: int):
    """t's key under `level` binders, where `depth` maps each name they
    bind to the number of binders outside the innermost one of that
    name.  A subterm with none of them free gives back its own stored
    key.  Each binder sets its name's entry and restores it on the way
    out, so the walk is linear in the binder depth."""
    if depth.keys().isdisjoint(t._free):
        while t._key is None:
            _alpha_key(t)
        return t._key
    kind = type(t)
    if kind is App:
        return (
            "a",
            _bound_key(t._fun, depth, level),
            _bound_key(t._arg, depth, level),
        )
    if kind is Choice:
        return (
            "c",
            _bound_key(t._left, depth, level),
            _bound_key(t._right, depth, level),
        )
    if kind is Abs:
        binder = t._binder
        outer = depth.get(binder)
        depth[binder] = level
        key = ("l", _bound_key(t._body, depth, level + 1))
        if outer is None:
            del depth[binder]
        else:
            depth[binder] = outer
        return key
    return ("b", level - 1 - depth[t._name])


def _free_names(t: Term) -> frozenset[str]:
    """t's free names from its children's; a child's set is shared, not
    copied, where it is already the answer.  Every constructor calls
    this, so it tests the type instead of matching class patterns, which
    cost several times more."""
    kind = type(t)
    if kind is App:
        names, other = t._fun._free, t._arg._free
    elif kind is Choice:
        names, other = t._left._free, t._right._free
    elif kind is Abs:
        names = t._body._free
        return names - {t._binder} if t._binder in names else names
    else:
        return frozenset((t._name,))
    if not other:
        return names
    return names | other if names else other


def size(t: Term) -> int:
    """Number of AST nodes."""
    return t._size


def fresh_name(base: str, avoid) -> str:
    """Smallest base<n> not in avoid; deterministic for a given input."""
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def substitute(body: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for free var in body."""
    return _substitute(body, var, replacement, replacement._free)


def _substitute(t: Term, var: str, repl: Term, repl_free) -> Term:
    if var not in t._free:
        return t
    kind = type(t)
    if kind is App:
        fun = _substitute(t._fun, var, repl, repl_free)
        return App(fun, _substitute(t._arg, var, repl, repl_free))
    if kind is Abs:
        # var is free in t, so binder != var here
        binder, inner = t._binder, t._body
        if binder in repl_free:
            binder = fresh_name(binder, repl_free | inner._free | {var})
            inner = substitute(inner, t._binder, Var(binder))
        return Abs(binder, _substitute(inner, var, repl, repl_free))
    if kind is Choice:
        left = _substitute(t._left, var, repl, repl_free)
        return Choice(left, _substitute(t._right, var, repl, repl_free))
    return repl  # the variable var itself


def canonicalize(t: Term) -> Term:
    """Rename binders to x0, x1, ... in leftmost-outermost order.

    Free variables keep their names; alpha-equivalent terms map to the
    same canonical term.  The binder structure is read off the key.
    """
    names = (n for n in map("x{}".format, count()) if n not in t._free)
    return _from_key(t.alpha_key, (), names)


def _from_key(key, scope: tuple[str, ...], names) -> Term:
    """key's term; `scope` names its enclosing binders, innermost first."""
    match key:
        case ("f", name):
            return Var(name)
        case ("b", index):
            return Var(scope[index])
        case ("l", body):
            name = next(names)
            return Abs(name, _from_key(body, (name, *scope), names))
        case ("a", fun, arg):
            return App(_from_key(fun, scope, names), _from_key(arg, scope, names))
        case ("c", left, right):
            return Choice(_from_key(left, scope, names), _from_key(right, scope, names))


# ---------- printing ----------

# Context levels for parenthesization.  A bare lambda is only legal where
# it can extend to the end of the enclosing region ("trailing").
_TERM, _CHOICE_LEFT, _CHOICE_RIGHT, _APP_FUN, _APP_ARG = range(5)


def print_term(t: Term, canonical: bool = False) -> str:
    """Concrete syntax for t; re-parses to an alpha-equivalent term.

    With canonical=True binders are renamed deterministically first, so
    alpha-equivalent terms print identically.
    """
    if canonical:
        t = canonicalize(t)
    return _pp(t, _TERM, True)


def _pp(t: Term, level: int, trailing: bool) -> str:
    match t:
        case Var(name):
            return name
        case Abs(binder, body):
            bare = trailing and level in (_TERM, _CHOICE_RIGHT)
            s = f"\\{binder}. {_pp(body, _TERM, True)}"
            return s if bare else f"({s})"
        case App(fun, arg):
            s = f"{_pp(fun, _APP_FUN, False)} {_pp(arg, _APP_ARG, False)}"
            return s if level <= _APP_FUN else f"({s})"
        case Choice(left, right):
            bare = level in (_TERM, _CHOICE_LEFT)
            s = "{} (+) {}".format(
                _pp(left, _CHOICE_LEFT, False),
                _pp(right, _CHOICE_RIGHT, trailing if bare else True),
            )
            return s if bare else f"({s})"
    raise TypeError(f"not a term: {t!r}")


# ---------- parsing ----------

# The reserved constants in concrete syntax.  Each text may use the
# constants above it, and shares their objects once parsed.
_CONSTANT_TEXTS = {
    "TT": r"\x. \y. x",
    "FF": r"\x. \y. y",
    # parity: XOR b c reduces to TT exactly when b and c differ
    "XOR": r"\x. \y. x (\z. z FF TT) (\z. z TT FF) y",
    "DELTA": r"\x. x x",
    "OMEGA": "DELTA DELTA",
    # H V rewrites in two steps to V (\z. H V z), handing V an
    # eta-guarded copy of the recursive call
    "H": r"(\x. \y. y (\z. x x y z)) (\x. \y. y (\z. x x y z))",
    # tree runner: ask the tree whether it is a leaf (return the numeral)
    # or a node (recurse on a fair choice of the two subtrees)
    "MFDT": r"H (\x. \y. y (\z. z) (\z. \w. x z (+) x w))",
    "SUCC": r"\n. \x. \y. y n",
    # geometric generator: flip a coin at numeral n, either return n or
    # move on to n+1; the recursive call sits behind a thunk so
    # call-by-value does not chase it before the coin is tossed
    "GEO": r"H (\r. \n. (TT (+) FF) (\z. n) (\z. r (SUCC n)) (\w. w)) (NAT 0)",
    "PAIR": r"\a. \b. \x. x a b",
}
# NAT additionally takes a number
RESERVED = (*_CONSTANT_TEXTS, "NAT")
# the parsed constants, filled in table order at the end of this module
_CONSTANTS: dict[str, Term] = {}

# One pattern per token kind, tried in order.  Digits are ASCII, as
# `int` takes them; continuation variables print as name#digits.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|--[^\n]*)"
    r"|(?P<OPLUS>\(\+\)|⊕)"
    r"|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))"
    r"|(?P<LAMBDA>[\\λ])"
    r"|(?P<DOT>\.)"
    r"|(?P<NUMBER>[0-9]+)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_']*(?:#[0-9]+)?)"
)


def _lex(text: str):
    tokens, i = [], 0
    while i < len(text):
        if (m := _TOKEN.match(text, i)) is None:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
        if m.lastgroup != "skip":
            tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(("EOF", "", i))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind}, found {tok[1]!r}" if tok[1] else f"expected {kind}",
                self.text,
                tok[2],
            )
        return tok

    def term(self) -> Term:
        # a lambda's body extends right, so no '(+)' follows a lambda
        t = self.operand()
        while self.peek()[0] == "OPLUS":
            self.take()
            t = Choice(t, self.operand())
        return t

    def operand(self) -> Term:
        if self.peek()[0] == "LAMBDA":
            self.take()
            tok = self.expect("IDENT")
            if tok[1] in RESERVED:
                raise ParseError(f"{tok[1]} is a reserved constant", self.text, tok[2])
            self.expect("DOT")
            return Abs(tok[1], self.term())
        t = self.atom()
        while self.peek()[0] in ("IDENT", "LPAREN", "NUMBER"):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.take()
        if tok[0] == "IDENT":
            if tok[1] == "NAT":
                return encode_nat(int(self.expect("NUMBER")[1]))
            if tok[1] in RESERVED:
                return _CONSTANTS[tok[1]]
            return Var(tok[1])
        if tok[0] == "LPAREN":
            t = self.term()
            self.expect("RPAREN")
            return t
        if tok[0] == "NUMBER":
            reason = "number literal only allowed after NAT"
        elif tok[1]:
            reason = f"expected a term, found {tok[1]!r}"
        else:
            reason = "unexpected end of input"
        raise ParseError(reason, self.text, tok[2])


def parse(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect("EOF")
    return t


def encode_nat(n: int) -> Term:
    """Scott numeral: 0 is \\x.\\y. x, n+1 is \\x.\\y. y <n>."""
    if n < 0:
        raise ValueError(f"not a natural number: {n}")
    t = _CONSTANTS["TT"]
    for _ in range(n):
        t = Abs("x", Abs("y", App(Var("y"), t)))
    return t


for _name, _text in _CONSTANT_TEXTS.items():
    _CONSTANTS[_name] = parse(_text)
del _name, _text
