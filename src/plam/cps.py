"""Continuation-passing translations between the two strategies.

cps_v_to_n turns a term into one whose call-by-name runs simulate the
source's call-by-value runs; cps_n_to_v goes the other way.  psi and phi
map source values to the values the translated programs deliver to their
continuations, and colon_v / colon_n give the administrative normal form
the translated term reaches against a given continuation by plain
deterministic steps (no coin toss), which is what makes the simulations
testable step-for-step.

Each rule's continuation is built once, by one private helper that the
translation and its colon form share, so the two cannot drift apart.
Continuation binders come from the k#<n> namespace, numbered from 1 in
each top-level translation, so output is reproducible; when the input
already uses some k#<n> names (the parser accepts them), numbering
starts past the largest such n, so no continuation binder captures one.

The simulation checks map each source outcome that is an abstraction of
the input through the image its translation already built, the object
the target run delivers, and build psi/phi afresh only for the rest.
So `SimulationReport.mapped_lower` holds the translation's own images:
alpha-equal to psi_dist/phi_dist of the source, but their plain printing
may number the k#<n> binders differently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count

from .dist import SubDist
from .reduction import CBN, CBV
from .smallstep import Bracket, DEFAULT_FRONTIER_CAP, approximate
from .syntax import Abs, App, Choice, Term, Var, is_value

IDENTITY = Abs("x", Var("x"))

_CONT_NAME = re.compile("k#([0-9]+)")


class _Fresh:
    """One translation's name supply: each call hands out the next k#<n>.

    `images` is None, or a dict in which the translation records the
    image each abstraction of its input gets inside the output, keyed by
    the abstraction's id(); an abstraction object that occurs more than
    once in the input keeps the image of its first translation."""

    __slots__ = ("_next", "images")

    def __init__(self, first: int, images: dict[int, Term] | None):
        self._next = map("k#{}".format, count(first)).__next__
        self.images = images

    def __call__(self) -> str:
        return self._next()


def _fresh(*inputs: Term, images: dict[int, Term] | None = None) -> _Fresh:
    """k#<n> from n = 1, or from past the largest n the inputs already
    use as a name, so that no continuation binder captures one."""
    top = 0
    stack = list(inputs)
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is App:
            stack += (t._fun, t._arg)
        elif kind is Choice:
            stack += (t._left, t._right)
        elif kind is Abs or kind is Var:
            found = _CONT_NAME.fullmatch(t._binder if kind is Abs else t._name)
            if found:
                top = max(top, int(found[1]))
            if kind is Abs:
                stack.append(t._body)
    return _Fresh(top + 1, images)


def _recorded(v: Term, image: Term, k: _Fresh) -> Term:
    """image, after it is noted as the abstraction v's in k's record, if
    k keeps one."""
    if k.images is not None:
        k.images.setdefault(id(v), image)
    return image


# ---------- call-by-value source, call-by-name target ----------


def _fire(t: Term, a: Term, b: Term, cont: Term, k: _Fresh) -> Term:
    """a b K for an application t of the values a and b, and for a choice
    the translated coin toss ((\\g. g a) (+) (\\g. g b)) K."""
    if type(t) is App:
        return App(App(a, b), cont)
    g1, g2 = k(), k()
    return App(Choice(Abs(g1, App(Var(g1), a)), Abs(g2, App(Var(g2), b))), cont)


def _rest(t: Term, n: Term, a: str, b: str, cont: Term, k: _Fresh) -> Term:
    """\\a. <N> (\\b. fire): the continuation that receives t's first
    part as a, then runs its second part N and fires on its value b."""
    return Abs(a, App(_v2n(n, k), Abs(b, _fire(t, Var(a), Var(b), cont, k))))


def _v2n(t: Term, k: _Fresh) -> Term:
    if type(t) is App:
        m, n = t._fun, t._arg
    elif type(t) is Choice:
        m, n = t._left, t._right
    elif is_value(t):
        e = k()
        return Abs(e, App(Var(e), _psi(t, k)))
    else:
        raise TypeError(f"not a term: {t!r}")
    e, a, b = k(), k(), k()
    return Abs(e, App(_v2n(m, k), _rest(t, n, a, b, Var(e), k)))


def _psi(v: Term, k: _Fresh) -> Term:
    match v:
        case Var():
            return v
        case Abs(binder, body):
            return _recorded(v, Abs(binder, _v2n(body, k)), k)
    raise ValueError(f"not a value: {v}")


def cps_v_to_n(t: Term, images: dict[int, Term] | None = None) -> Term:
    """t translated.  When `images` is a dict, it receives, keyed by
    id(V), the image psi(V) built inside the output for each abstraction
    V of t; the ids name t's own subterms only while t is alive."""
    return _v2n(t, _fresh(t, images=images))


def psi(v: Term) -> Term:
    """Value translation: variables unchanged, \\x.M to \\x.<M translated>."""
    return _psi(v, _fresh(v))


def psi_dist(d: SubDist) -> SubDist:
    return SubDist((psi(v), m) for v, m in d.items())


def colon_v(t: Term, cont: Term) -> Term:
    """Administrative normal form of <t translated> applied to cont.

    cont must be a value; the translated application reaches this form
    by single-successor call-by-name steps alone; `_colon_v` builds it.
    """
    if not is_value(cont):
        raise ValueError(f"continuation must be a value: {cont}")
    return _colon_v(t, cont, _fresh(t, cont))


def _colon_v(t: Term, cont: Term, k: _Fresh) -> Term:
    match t:
        case Var() | Abs():
            return App(cont, _psi(t, k))
        case App(m, n) | Choice(m, n) if not is_value(m):
            a, b = k(), k()
            return _colon_v(m, _rest(t, n, a, b, cont, k), k)
        case App(m, n) | Choice(m, n) if not is_value(n):
            b = k()
            return _colon_v(n, Abs(b, _fire(t, _psi(m, k), Var(b), cont, k)), k)
        case App(m, n) | Choice(m, n):
            return _fire(t, _psi(m, k), _psi(n, k), cont, k)
    raise TypeError(f"not a term: {t!r}")


# ---------- call-by-name source, call-by-value target ----------


def _arg_cont(a: str, n: Term, cont: Term, k: _Fresh) -> Term:
    """\\a. a <N> K: the continuation that applies the function value a
    to the unevaluated argument N."""
    return Abs(a, App(App(Var(a), _n2v(n, k)), cont))


def _feeders(m: Term, n: Term, k: _Fresh) -> Term:
    """(\\a. <M> a) (+) (\\b. <N> b): the toss picks which side the
    continuation is fed to."""
    a, b = k(), k()
    return Choice(Abs(a, App(_n2v(m, k), Var(a))), Abs(b, App(_n2v(n, k), Var(b))))


def _n2v(t: Term, k: _Fresh) -> Term:
    if type(t) is App:
        e, a = k(), k()
        return Abs(e, App(_n2v(t._fun, k), _arg_cont(a, t._arg, Var(e), k)))
    if type(t) is Choice:
        e = k()
        return Abs(e, App(_feeders(t._left, t._right, k), Var(e)))
    if type(t) is Abs:
        e = k()
        return Abs(e, App(Var(e), _phi(t, k)))
    if type(t) is Var:
        return t
    raise TypeError(f"not a term: {t!r}")


def cps_n_to_v(t: Term, images: dict[int, Term] | None = None) -> Term:
    """t translated.  When `images` is a dict, it receives, keyed by
    id(V), the image phi(V) built inside the output for each abstraction
    V of t; the ids name t's own subterms only while t is alive."""
    return _n2v(t, _fresh(t, images=images))


def _phi(v: Term, k: _Fresh) -> Term:
    match v:
        case Var():
            # not a value; callers relying on value-hood must keep v bound
            return App(v, Abs("y", Var("y")))
        case Abs(binder, body):
            return _recorded(v, Abs(binder, _n2v(body, k)), k)
    raise ValueError(f"not a value: {v}")


def phi(v: Term) -> Term:
    return _phi(v, _fresh(v))


def phi_dist(d: SubDist) -> SubDist:
    return SubDist((phi(v), m) for v, m in d.items())


def colon_n(t: Term, cont: Term) -> Term:
    """Administrative normal form of <t translated> applied to cont,
    reached by single-successor call-by-value steps alone; `_colon_n` builds it."""
    if not is_value(cont):
        raise ValueError(f"continuation must be a value: {cont}")
    return _colon_n(t, cont, _fresh(t, cont))


def _colon_n(t: Term, cont: Term, k: _Fresh) -> Term:
    match t:
        case Var() | Abs():
            return App(cont, _phi(t, k))
        case App(m, n) if not is_value(m):
            return _colon_n(m, _arg_cont(k(), n, cont, k), k)
        case App(m, n):
            return App(App(_phi(m, k), _n2v(n, k)), cont)
        case Choice(left, right):
            return App(_feeders(left, right, k), cont)
    raise TypeError(f"not a term: {t!r}")


# ---------- simulation checks ----------


@dataclass(frozen=True)
class SimulationReport:
    """The outcome of one simulation check.  `mapped_lower` is the source
    lower approximant mapped to the target side: alpha-equal to psi_dist
    (phi_dist) of `source.lower`, through the images the translation
    built, so plain printing may number their k#<n> binders otherwise."""

    status: str  # "PASS" | "BRACKET-CONSISTENT" | "FAIL"
    source: Bracket
    target: Bracket
    mapped_lower: SubDist
    detail: str


def _brackets_overlap(a_lower: SubDist, a_res, b_lower: SubDist, b_res) -> bool:
    for v in {v for v, _ in a_lower.items()} | {v for v, _ in b_lower.items()}:
        lo_a, lo_b = a_lower.get(v), b_lower.get(v)
        if lo_a > lo_b + b_res or lo_b > lo_a + a_res:
            return False
    return True


def _check_simulation(
    t, fuel, frontier_cap, src_strategy, tgt_strategy, translate, image
):
    source = approximate(t, src_strategy, fuel, frontier_cap)
    images: dict[int, Term] = {}
    target_term = App(translate(t, images), IDENTITY)
    target = approximate(target_term, tgt_strategy, fuel, frontier_cap)
    # An outcome that is itself an abstraction of t takes the image the
    # translation built for it, which is mostly the very object the
    # target run delivers, so comparing the two needs no nameless keys;
    # only outcomes the run built, such as numerals, get a new image.
    mapped = SubDist(
        (images.get(id(v)) or image(v), m) for v, m in source.lower.items()
    )
    if not source.residual and not target.residual:
        if mapped == target.lower:
            status, detail = "PASS", "stabilized, exactly equal"
        else:
            status, detail = "FAIL", "stabilized but unequal"
    elif _brackets_overlap(mapped, source.residual, target.lower, target.residual):
        status = "BRACKET-CONSISTENT"
        detail = "not stabilized; brackets overlap pointwise"
    else:
        status, detail = "FAIL", "brackets disjoint at some value"
    return SimulationReport(status, source, target, mapped, detail)


def check_simulation_v_by_n(
    t: Term, fuel: int, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> SimulationReport:
    """Compare psi of the call-by-value run against the call-by-name run
    of the translation applied to the identity continuation."""
    return _check_simulation(t, fuel, frontier_cap, CBV, CBN, cps_v_to_n, psi)


def check_simulation_n_by_v(
    t: Term, fuel: int, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> SimulationReport:
    """Dual direction: phi of the call-by-name run against the
    call-by-value run of the translation applied to the identity."""
    return _check_simulation(t, fuel, frontier_cap, CBN, CBV, cps_n_to_v, phi)
