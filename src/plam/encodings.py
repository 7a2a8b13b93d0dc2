"""Closed terms for programming in the calculus.

The parser's reserved constants, taken from `syntax` where they are
written in concrete syntax: booleans TT and FF, exclusive-or XOR, the
self-application DELTA and the looping term OMEGA, the call-by-value
fixed-point term H, the finite dyadic tree runner MFDT, the successor
SUCC, the geometric generator GEO, and PAIR.  Also Scott numerals
(`encode_nat` is the parser's `NAT n`), binary strings, pairs, and the
finite dyadic tree helpers: such a tree is either a leaf \\x.\\y. x <n>
holding a numeral or a node \\x.\\y. y M N over two subtrees, and pd
gives the distribution it denotes (half the left pd plus half the
right).

The two readers, `decode_nat` and `fdt_shape`, test `type()` and read
the terms' slots instead of matching nested class patterns: `run_mfdt`
reads the whole tree, every leaf's numeral included, before each run.
"""

from __future__ import annotations

from typing import Mapping

from .dist import Dyadic, HALF, ONE, ZERO, SubDist, _mass_text, combine, from_value
from .reduction import CBV
from .smallstep import approximate
from .syntax import (
    Abs,
    App,
    Choice,
    Term,
    Var,
    encode_nat,
    fresh_name,
    is_value,
    parse,
)

TT = parse("TT")
FF = parse("FF")
XOR = parse("XOR")
DELTA = parse("DELTA")
OMEGA = parse("OMEGA")
H = parse("H")
MFDT = parse("MFDT")
SUCC = parse("SUCC")
GEO = parse("GEO")
PAIR = parse("PAIR")


def decode_nat(t: Term) -> int | None:
    """Inverse of encode_nat up to alpha; None for non-numerals."""
    n = 0
    while True:
        if type(t) is not Abs:
            return None
        x, inner = t._binder, t._body
        if type(inner) is not Abs:
            return None
        y, body = inner._binder, inner._body
        kind = type(body)
        if kind is Var:  # zero, \x. \y. x
            return n if body._name == x != y else None
        if kind is not App:
            return None
        head = body._fun
        if type(head) is not Var or head._name != y:
            return None
        t, n = body._arg, n + 1  # a successor, \x. \y. y <n>


def encode_bits(bits: str) -> Term:
    """Binary strings: empty is \\x.\\y.\\z. x, '0'+s is \\x.\\y.\\z. y <s>,
    '1'+s is \\x.\\y.\\z. z <s>."""
    if not bits:
        return Abs("x", Abs("y", Abs("z", Var("x"))))
    head, tail = bits[0], encode_bits(bits[1:])
    if head == "0":
        return Abs("x", Abs("y", Abs("z", App(Var("y"), tail))))
    if head == "1":
        return Abs("x", Abs("y", Abs("z", App(Var("z"), tail))))
    raise ValueError(f"not a bit: {head!r}")


def pair(v: Term, w: Term) -> Term:
    """\\x. x V W for values V, W (x chosen fresh)."""
    if not (is_value(v) and is_value(w)):
        raise ValueError("pair components must be values")
    avoid = v.free_names | w.free_names
    x = "x" if "x" not in avoid else fresh_name("x", avoid)
    return Abs(x, App(App(Var(x), v), w))


def standard_choice(m: Term, n: Term) -> Term:
    """Thunked fair choice usable under call-by-value even when a branch
    diverges: (TT (+) FF) (\\z. M) (\\z. N) (\\w. w)."""
    avoid = m.free_names | n.free_names
    z = "z" if "z" not in avoid else fresh_name("z", avoid)
    w = "w" if "w" not in avoid else fresh_name("w", avoid)
    return App(
        App(App(Choice(TT, FF), Abs(z, m)), Abs(z, n)),
        Abs(w, Var(w)),
    )


# ---------- finite dyadic trees ----------


class FdtError(ValueError):
    pass


def leaf(n: int) -> Term:
    return _leaf(encode_nat(n))


def node(left: Term, right: Term) -> Term:
    if fdt_shape(left) is None or fdt_shape(right) is None:
        raise FdtError("node children must be finite dyadic trees")
    return _node(left, right)


def _leaf(numeral: Term) -> Term:
    return Abs("x", Abs("y", App(Var("x"), numeral)))


def _node(left: Term, right: Term) -> Term:
    return Abs("x", Abs("y", App(App(Var("y"), left), right)))


def fdt_shape(t: Term):
    """('leaf', n), ('node', left, right), or None."""
    if type(t) is not Abs:
        return None
    x, inner = t._binder, t._body
    if type(inner) is not Abs:
        return None
    y, body = inner._binder, inner._body
    if type(body) is not App:
        return None
    head, arg = body._fun, body._arg
    kind = type(head)
    if kind is Var:  # a leaf, \x. \y. x <n>
        if head._name != x or x == y or arg._free:
            return None
        n = decode_nat(arg)
        return None if n is None else ("leaf", n)
    if kind is not App:
        return None
    # a node, \x. \y. y <left> <right>
    fun, left = head._fun, head._arg
    if type(fun) is not Var or fun._name != y or left._free or arg._free:
        return None
    if fdt_shape(left) is None or fdt_shape(arg) is None:
        return None
    return ("node", left, arg)


def is_fdt(t: Term) -> bool:
    return fdt_shape(t) is not None


def pd(t: Term) -> SubDist:
    """Distribution over numerals denoted by a finite dyadic tree."""
    shape = fdt_shape(t)
    if shape is None:
        raise FdtError(f"not a finite dyadic tree: {t}")
    if shape[0] == "leaf":
        return from_value(encode_nat(shape[1]))
    return combine([(HALF, pd(shape[1])), (HALF, pd(shape[2]))])


def fdt_from_dist(d: Mapping[int, Dyadic]) -> Term:
    """Tree whose pd is exactly d; d must have total mass 1.

    Knuth and Yao's generating tree ("The complexity of nonuniform random
    number generation", 1976): each set bit 2^-k of a mass is a leaf at
    depth k.  Read left to right, the leaves come in order of (depth,
    outcome), and each closes a subtree with the one before it whenever
    their depths are equal; they fill the tree because the masses sum to 1.
    """
    total = ZERO
    for n in sorted(d):
        m = d[n]
        if not m:
            continue
        if n < 0:
            raise FdtError(f"outcome {n} is not a natural number")
        if m.num >> m.exp and m != ONE:  # m > 1, without shifting ONE to m.exp
            raise FdtError(f"mass {_mass_text(m.num, m.exp)} of outcome {n} exceeds 1")
        total = total + m
    if total != ONE:
        raise FdtError(f"total mass is {_mass_text(total.num, total.exp)}, need exactly 1")

    atoms: list[tuple[int, int]] = []  # (depth, outcome), one per set bit
    for n, m in d.items():
        num = m.num
        while num:
            bit = num & -num
            atoms.append((m.exp + 1 - bit.bit_length(), n))
            num ^= bit
    atoms.sort()

    # one leaf per outcome; NAT k is the argument inside NAT k+1, so every
    # numeral is read off the largest one
    top = max(n for _, n in atoms)
    numerals = [encode_nat(top)]  # NAT top, NAT top-1, ..., NAT 0
    while len(numerals) <= top:
        numerals.append(numerals[-1]._body._body._arg)
    leaves = {n: _leaf(numerals[top - n]) for _, n in atoms}

    # finished subtrees with their depths, deepest last; the builder made
    # every subtree, so nodes are built unchecked
    stack: list[tuple[int, Term]] = []
    for depth, n in atoms:
        tree = leaves[n]
        while stack and stack[-1][0] == depth:
            tree, depth = _node(stack.pop()[1], tree), depth - 1
        stack.append((depth, tree))
    return stack[0][1]


def run_mfdt(t: Term, fuel: int):
    """Evaluate MFDT applied to a tree, call-by-value."""
    if fdt_shape(t) is None:
        raise FdtError(f"not a finite dyadic tree: {t}")
    return approximate(App(MFDT, t), CBV, fuel)
