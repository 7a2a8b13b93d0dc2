"""Terms of the untyped lambda calculus with binary fair choice.

Equality and hashing on terms are up to renaming of bound variables, so
terms can be used directly as keys of distributions.  The concrete syntax
is

    term := '\\' ident '.' term | app
    app  := atom+
    atom := ident | '(' term ')' | atom '(+)' atom

with application binding tighter than '(+)', '(+)' associating to the
left, and '--' starting a comment that runs to the end of the line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count

# Reduction of translated terms stacks continuations a few thousand frames
# deep; the default limit is too small for that.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos
        self.line = line
        self.col = col


class _cached:
    """`functools.cached_property` without the lock Python 3.11 takes on
    every first access.  The first access stores the value in the
    instance `__dict__`, which then shadows this non-data descriptor;
    two threads racing on it at worst compute the same value twice."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Term:
    """Base class for Var, Abs, App and Choice."""

    __match_args__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self.alpha_key == other.alpha_key

    def __hash__(self):
        return self._hash

    @_cached
    def _hash(self) -> int:
        return hash(self.alpha_key)

    @_cached
    def alpha_key(self):
        """Nameless form: identical keys exactly for alpha-equivalent terms."""
        return _alpha_key(self)

    @_cached
    def free_names(self) -> frozenset[str]:
        return _free_names(self)

    @_cached
    def _size(self) -> int:
        return _node_count(self)

    def __repr__(self):
        return print_term(self)


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Abs(Term):
    binder: str
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class Choice(Term):
    left: Term
    right: Term


def is_value(t: Term) -> bool:
    """Values are variables and abstractions."""
    return isinstance(t, (Var, Abs))


def _alpha_key(t: Term):
    """Nameless key from the children's cached keys: ("f", name) for a
    free variable, ("b", i) for the variable bound i binders up, and
    ("l", body), ("a", fun, arg), ("c", left, right)."""
    match t:
        case Var(name):
            return ("f", name)
        case Abs(binder, body):
            return ("l", _bound_key(body, (binder,)))
        case App(fun, arg):
            return ("a", fun.alpha_key, arg.alpha_key)
        case Choice(left, right):
            return ("c", left.alpha_key, right.alpha_key)
    raise TypeError(f"not a term: {t!r}")


def _bound_key(t: Term, bound: tuple[str, ...]):
    """Key of t under the binders `bound`, innermost first.  A subterm
    with none of them free keeps its own cached key."""
    if t.free_names.isdisjoint(bound):
        return t.alpha_key
    match t:
        case Var(name):
            return ("b", bound.index(name))
        case Abs(binder, body):
            return ("l", _bound_key(body, (binder, *bound)))
        case App(fun, arg):
            return ("a", _bound_key(fun, bound), _bound_key(arg, bound))
        case Choice(left, right):
            return ("c", _bound_key(left, bound), _bound_key(right, bound))
    raise TypeError(f"not a term: {t!r}")


def _free_names(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Abs(binder, body):
            return body.free_names - {binder}
        case App(fun, arg):
            return fun.free_names | arg.free_names
        case Choice(left, right):
            return left.free_names | right.free_names
    raise TypeError(f"not a term: {t!r}")


def size(t: Term) -> int:
    """Number of AST nodes."""
    return t._size


def _node_count(t: Term) -> int:
    match t:
        case Var():
            return 1
        case Abs(_, body):
            return 1 + body._size
        case App(fun, arg) | Choice(fun, arg):
            return 1 + fun._size + arg._size
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid) -> str:
    """Smallest base<n> not in avoid; deterministic for a given input."""
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def substitute(body: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for free var in body."""
    repl_free = replacement.free_names

    def go(t: Term) -> Term:
        if var not in t.free_names:
            return t
        match t:
            case Var():
                return replacement
            case Abs(binder, inner):
                # var is free in t, so binder != var here
                if binder in repl_free:
                    renamed = fresh_name(
                        binder, repl_free | inner.free_names | {var}
                    )
                    inner = substitute(inner, binder, Var(renamed))
                    binder = renamed
                return Abs(binder, go(inner))
            case App(fun, arg):
                return App(go(fun), go(arg))
            case Choice(left, right):
                return Choice(go(left), go(right))
        raise TypeError(f"not a term: {t!r}")

    return go(body)


def canonicalize(t: Term) -> Term:
    """Rename binders to x0, x1, ... in leftmost-outermost order.

    Free variables keep their names; alpha-equivalent terms map to the
    same canonical term.  The binder structure is read off the key.
    """
    names = (n for n in map("x{}".format, count()) if n not in t.free_names)

    def go(key, scope: tuple[str, ...]) -> Term:
        match key:
            case ("f", name):
                return Var(name)
            case ("b", index):
                return Var(scope[index])
            case ("l", body):
                name = next(names)
                return Abs(name, go(body, (name, *scope)))
            case ("a", fun, arg):
                return App(go(fun, scope), go(arg, scope))
            case ("c", left, right):
                return Choice(go(left, scope), go(right, scope))

    return go(t.alpha_key, ())


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

    def pp(t: Term, level: int, trailing: bool) -> str:
        match t:
            case Var(name):
                return name
            case Abs(binder, body):
                bare = trailing and level in (_TERM, _CHOICE_RIGHT)
                s = f"\\{binder}. {pp(body, _TERM, True)}"
                return s if bare else f"({s})"
            case App(fun, arg):
                s = f"{pp(fun, _APP_FUN, False)} {pp(arg, _APP_ARG, False)}"
                return s if level <= _APP_FUN else f"({s})"
            case Choice(left, right):
                bare = level in (_TERM, _CHOICE_LEFT)
                s = "{} (+) {}".format(
                    pp(left, _CHOICE_LEFT, False),
                    pp(right, _CHOICE_RIGHT, trailing if bare else True),
                )
                return s if bare else f"({s})"
        raise TypeError(f"not a term: {t!r}")

    return pp(t, _TERM, True)


# ---------- parsing ----------

# Named constants the parser expands (NAT additionally takes a number).
RESERVED = ("OMEGA", "TT", "FF", "XOR", "H", "MFDT", "GEO", "PAIR", "NAT")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")


def _lex(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
        elif text.startswith("(+)", i):
            tokens.append(("OPLUS", "(+)", i))
            i += 3
        elif c == "⊕":  # ⊕, alias for (+)
            tokens.append(("OPLUS", c, i))
            i += 1
        elif c == "(":
            tokens.append(("LPAREN", c, i))
            i += 1
        elif c == ")":
            tokens.append(("RPAREN", c, i))
            i += 1
        elif c in "\\λ":  # backslash or λ
            tokens.append(("LAMBDA", c, i))
            i += 1
        elif c == ".":
            tokens.append(("DOT", c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUMBER", text[i:j], i))
            i = j
        elif c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            # continuation variables print as name#digits; accept them back
            if j < n and text[j] == "#":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k > j + 1:
                    j = k
            tokens.append(("IDENT", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", text, i)
    tokens.append(("EOF", "", n))
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
        if self.peek()[0] == "LAMBDA":
            return self.lam()
        return self.choice()

    def lam(self) -> Term:
        self.expect("LAMBDA")
        tok = self.expect("IDENT")
        if tok[1] in RESERVED:
            raise ParseError(f"{tok[1]} is a reserved constant", self.text, tok[2])
        self.expect("DOT")
        return Abs(tok[1], self.term())

    def choice(self) -> Term:
        left = self.app()
        while self.peek()[0] == "OPLUS":
            self.take()
            right = self.lam() if self.peek()[0] == "LAMBDA" else self.app()
            left = Choice(left, right)
        return left

    def app(self) -> Term:
        t = self.atom()
        while self.peek()[0] in ("IDENT", "LPAREN", "NUMBER"):
            if self.peek()[0] == "NUMBER":
                tok = self.peek()
                raise ParseError(
                    "number literal only allowed after NAT", self.text, tok[2]
                )
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.take()
        if tok[0] == "IDENT":
            if tok[1] == "NAT":
                num = self.expect("NUMBER")
                from . import encodings

                return encodings.encode_nat(int(num[1]))
            if tok[1] in RESERVED:
                from . import encodings

                return encodings.constants()[tok[1]]
            return Var(tok[1])
        if tok[0] == "LPAREN":
            t = self.term()
            self.expect("RPAREN")
            return t
        raise ParseError(
            f"expected a term, found {tok[1]!r}" if tok[1] else "unexpected end of input",
            self.text,
            tok[2],
        )


def parse(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect("EOF")
    return t
