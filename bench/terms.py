"""Term helpers the benchmark owns, so its inputs and checks do not lean
on the code under test.

Only the term constructors of `plam.syntax` are used.  The generators
follow the shape of the acceptance suite's generators; the readers
(`nameless`, `numeral_value`, `show`, `count_nodes`) walk terms without
the caches the program keeps on them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from plam.syntax import Abs, App, Choice, Var


def random_term(rng: random.Random, max_size: int = 40):
    """Random closed term with between 2 and max_size nodes."""
    return _gen(rng, rng.randint(2, max(2, max_size)), [])


def _gen(rng: random.Random, budget: int, env: list[str]):
    # smallest closed term has 2 nodes, smallest open one has 1
    floor = 1 if env else 2
    if budget <= 1:
        return Var(rng.choice(env))
    kinds = ["abs"] * 3
    if env:
        kinds += ["var"] * 2
    if budget >= 2 * floor + 1:
        kinds += ["app"] * 3 + ["choice"] * 2
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(rng.choice(env))
    if kind == "abs":
        name = f"v{len(env)}"
        return Abs(name, _gen(rng, max(1, budget - 1), env + [name]))
    left = rng.randint(floor, budget - 1 - floor)
    l = _gen(rng, left, env)
    r = _gen(rng, budget - 1 - left, env)
    return App(l, r) if kind == "app" else Choice(l, r)


# ---------- finite dyadic trees ----------
# A tree is ("leaf", n) or ("node", left, right).


def random_tree(rng: random.Random, leaves: int, max_depth: int):
    """Random tree with exactly `leaves` leaves and depth <= max_depth,
    outcomes in 0..9.  The split of the leaves between the two subtrees
    is uniform over the splits that fit the depth."""
    if leaves == 1:
        return ("leaf", rng.randint(0, 9))
    cap = 1 << (max_depth - 1)
    left = rng.randint(max(1, leaves - cap), min(cap, leaves - 1))
    return (
        "node",
        random_tree(rng, left, max_depth - 1),
        random_tree(rng, leaves - left, max_depth - 1),
    )


def tree_distribution(tree) -> dict:
    """Exact distribution a tree denotes: a leaf at depth d carries 2^-d."""
    dist: dict[int, Fraction] = {}
    stack = [(tree, 0)]
    while stack:
        t, depth = stack.pop()
        if t[0] == "leaf":
            dist[t[1]] = dist.get(t[1], Fraction(0)) + Fraction(1, 1 << depth)
        else:
            stack.append((t[1], depth + 1))
            stack.append((t[2], depth + 1))
    return dist


def numeral(n: int):
    """Scott numeral: 0 is \\x.\\y. x, n+1 is \\x.\\y. y <n>."""
    t = Abs("x", Abs("y", Var("x")))
    for _ in range(n):
        t = Abs("x", Abs("y", App(Var("y"), t)))
    return t


def tree_term(tree):
    """Leaf \\x.\\y. x <n>, node \\x.\\y. y L R."""
    if tree[0] == "leaf":
        return Abs("x", Abs("y", App(Var("x"), numeral(tree[1]))))
    return Abs("x", Abs("y", App(App(Var("y"), tree_term(tree[1])), tree_term(tree[2]))))


# ---------- readers ----------


def nameless(t):
    """De Bruijn form as nested tuples; equal exactly for alpha-equal terms."""

    def go(t, env):
        if isinstance(t, Var):
            for i in range(len(env) - 1, -1, -1):
                if env[i] == t.name:
                    return ("b", len(env) - 1 - i)
            return ("f", t.name)
        if isinstance(t, Abs):
            return ("l", go(t.body, env + [t.binder]))
        if isinstance(t, App):
            return ("a", go(t.fun, env), go(t.arg, env))
        if isinstance(t, Choice):
            return ("c", go(t.left, env), go(t.right, env))
        raise TypeError(f"not a term: {t!r}")

    return go(t, [])


def numeral_value(t) -> int | None:
    """n when t is alpha-equal to the Scott numeral n, else None."""
    n = 0
    while True:
        if not (isinstance(t, Abs) and isinstance(t.body, Abs)):
            return None
        x, y, body = t.binder, t.body.binder, t.body.body
        if x == y:
            return None
        if isinstance(body, Var) and body.name == x:
            return n
        if not (isinstance(body, App) and isinstance(body.fun, Var) and body.fun.name == y):
            return None
        t = body.arg
        if _mentions(t, x) or _mentions(t, y):
            return None
        n += 1


def _mentions(t, name: str) -> bool:
    """True when name occurs free in t."""
    stack = [(t, frozenset())]
    while stack:
        t, bound = stack.pop()
        if isinstance(t, Var):
            if t.name == name and name not in bound:
                return True
        elif isinstance(t, Abs):
            stack.append((t.body, bound | {t.binder}))
        elif isinstance(t, App):
            stack.extend(((t.fun, bound), (t.arg, bound)))
        else:
            stack.extend(((t.left, bound), (t.right, bound)))
    return False


def count_nodes(t) -> int:
    n = 0
    stack = [t]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, Abs):
            stack.append(t.body)
        elif isinstance(t, App):
            stack.extend((t.fun, t.arg))
        elif isinstance(t, Choice):
            stack.extend((t.left, t.right))
    return n


def show(t, limit: int = 160) -> str:
    """Fully parenthesized text of t, cut at `limit` characters."""
    out: list[str] = []
    stack = [t]
    length = 0
    while stack and length < limit:
        t = stack.pop()
        if isinstance(t, str):
            piece = t
        elif isinstance(t, Var):
            piece = t.name
        elif isinstance(t, Abs):
            piece = f"(\\{t.binder}. "
            stack.extend((")", t.body))
        elif isinstance(t, App):
            piece = "("
            stack.extend((")", t.arg, " ", t.fun))
        else:
            piece = "("
            stack.extend((")", t.right, " (+) ", t.left))
        out.append(piece)
        length += len(piece)
    text = "".join(out)
    return text if not stack else text[:limit] + "..."
