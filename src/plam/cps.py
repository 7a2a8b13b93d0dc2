"""Continuation-passing translations between the two strategies.

cps_v_to_n turns a term into one whose call-by-name runs simulate the
source's call-by-value runs; cps_n_to_v goes the other way.  psi and phi
map source values to the values the translated programs deliver to their
continuations, and colon_v / colon_n give the administrative normal form
the translated term reaches against a given continuation by plain
deterministic steps (no coin toss), which is what makes the simulations
testable step-for-step.

Continuation binders come from the reserved k#<n> namespace, numbered
from 1 in each top-level translation, so output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dist import SubDist
from .reduction import CBN, CBV
from .smallstep import Bracket, DEFAULT_FRONTIER_CAP, approximate
from .syntax import Abs, App, Choice, Term, Var, is_value

IDENTITY = Abs("x", Var("x"))


class _KSupply:
    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"k#{self.counter}"


def _toss(a: Term, b: Term, k: _KSupply) -> Term:
    """(\\g. g a) (+) (\\g. g b) -- the translated coin toss."""
    g1, g2 = k.fresh(), k.fresh()
    return Choice(Abs(g1, App(Var(g1), a)), Abs(g2, App(Var(g2), b)))


# ---------- call-by-value source, call-by-name target ----------


def _v2n(t: Term, k: _KSupply) -> Term:
    match t:
        case Var() | Abs():
            e = k.fresh()
            return Abs(e, App(Var(e), _psi(t, k)))
        case App(fun, arg):
            e, a, b = k.fresh(), k.fresh(), k.fresh()
            return Abs(
                e,
                App(
                    _v2n(fun, k),
                    Abs(
                        a,
                        App(
                            _v2n(arg, k),
                            Abs(b, App(App(Var(a), Var(b)), Var(e))),
                        ),
                    ),
                ),
            )
        case Choice(left, right):
            e, a, b = k.fresh(), k.fresh(), k.fresh()
            return Abs(
                e,
                App(
                    _v2n(left, k),
                    Abs(
                        a,
                        App(
                            _v2n(right, k),
                            Abs(
                                b,
                                App(_toss(Var(a), Var(b), k), Var(e)),
                            ),
                        ),
                    ),
                ),
            )
    raise TypeError(f"not a term: {t!r}")


def _psi(v: Term, k: _KSupply) -> Term:
    match v:
        case Var():
            return v
        case Abs(binder, body):
            return Abs(binder, _v2n(body, k))
    raise ValueError(f"not a value: {v}")


def cps_v_to_n(t: Term) -> Term:
    return _v2n(t, _KSupply())


def psi(v: Term) -> Term:
    """Value translation: variables unchanged, \\x.M to \\x.<M translated>."""
    return _psi(v, _KSupply())


def psi_dist(d: SubDist) -> SubDist:
    return SubDist((psi(v), m) for v, m in d.items())


def colon_v(t: Term, cont: Term) -> Term:
    """Administrative normal form of <t translated> applied to cont.

    cont must be a value; the translated application reaches this form
    by single-successor call-by-name steps alone.
    """
    if not is_value(cont):
        raise ValueError(f"continuation must be a value: {cont}")
    k = _KSupply()

    def colon(t: Term, cont: Term) -> Term:
        match t:
            case Var() | Abs():
                return App(cont, _psi(t, k))
            case App(fun, arg) if not is_value(fun):
                a, b = k.fresh(), k.fresh()
                return colon(
                    fun,
                    Abs(
                        a,
                        App(
                            _v2n(arg, k),
                            Abs(b, App(App(Var(a), Var(b)), cont)),
                        ),
                    ),
                )
            case App(fun, arg) if not is_value(arg):
                b = k.fresh()
                return colon(
                    arg, Abs(b, App(App(_psi(fun, k), Var(b)), cont))
                )
            case App(fun, arg):
                return App(App(_psi(fun, k), _psi(arg, k)), cont)
            case Choice(left, right) if not is_value(left):
                a, b = k.fresh(), k.fresh()
                return colon(
                    left,
                    Abs(
                        a,
                        App(
                            _v2n(right, k),
                            Abs(b, App(_toss(Var(a), Var(b), k), cont)),
                        ),
                    ),
                )
            case Choice(left, right) if not is_value(right):
                b = k.fresh()
                return colon(
                    right,
                    Abs(b, App(_toss(_psi(left, k), Var(b), k), cont)),
                )
            case Choice(left, right):
                return App(_toss(_psi(left, k), _psi(right, k), k), cont)
        raise TypeError(f"not a term: {t!r}")

    return colon(t, cont)


# ---------- call-by-name source, call-by-value target ----------


def _n2v(t: Term, k: _KSupply) -> Term:
    match t:
        case Var():
            return t
        case Abs(binder, body):
            e = k.fresh()
            return Abs(e, App(Var(e), Abs(binder, _n2v(body, k))))
        case App(fun, arg):
            e, a = k.fresh(), k.fresh()
            return Abs(
                e,
                App(
                    _n2v(fun, k),
                    Abs(a, App(App(Var(a), _n2v(arg, k)), Var(e))),
                ),
            )
        case Choice(left, right):
            e, a, b = k.fresh(), k.fresh(), k.fresh()
            return Abs(
                e,
                App(
                    Choice(
                        Abs(a, App(_n2v(left, k), Var(a))),
                        Abs(b, App(_n2v(right, k), Var(b))),
                    ),
                    Var(e),
                ),
            )
    raise TypeError(f"not a term: {t!r}")


def cps_n_to_v(t: Term) -> Term:
    return _n2v(t, _KSupply())


def _phi(v: Term, k: _KSupply) -> Term:
    match v:
        case Var():
            # not a value; callers relying on value-hood must keep v bound
            return App(v, Abs("y", Var("y")))
        case Abs(binder, body):
            return Abs(binder, _n2v(body, k))
    raise ValueError(f"not a value: {v}")


def phi(v: Term) -> Term:
    return _phi(v, _KSupply())


def phi_dist(d: SubDist) -> SubDist:
    return SubDist((phi(v), m) for v, m in d.items())


def colon_n(t: Term, cont: Term) -> Term:
    """Administrative normal form of <t translated> applied to cont,
    reached by single-successor call-by-value steps alone."""
    if not is_value(cont):
        raise ValueError(f"continuation must be a value: {cont}")
    k = _KSupply()

    def colon(t: Term, cont: Term) -> Term:
        match t:
            case Var() | Abs():
                return App(cont, _phi(t, k))
            case App(fun, arg) if not is_value(fun):
                a = k.fresh()
                return colon(
                    fun, Abs(a, App(App(Var(a), _n2v(arg, k)), cont))
                )
            case App(fun, arg):
                return App(App(_phi(fun, k), _n2v(arg, k)), cont)
            case Choice(left, right):
                a, b = k.fresh(), k.fresh()
                return App(
                    Choice(
                        Abs(a, App(_n2v(left, k), Var(a))),
                        Abs(b, App(_n2v(right, k), Var(b))),
                    ),
                    cont,
                )
        raise TypeError(f"not a term: {t!r}")

    return colon(t, cont)


# ---------- simulation checks ----------


@dataclass(frozen=True)
class SimulationReport:
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
    t, fuel, frontier_cap, src_strategy, tgt_strategy, translate, map_dist
):
    source = approximate(t, src_strategy, fuel, frontier_cap)
    target_term = App(translate(t), IDENTITY)
    target = approximate(target_term, tgt_strategy, fuel, frontier_cap)
    mapped = map_dist(source.lower)
    if not source.residual and not target.residual:
        if mapped == target.lower:
            return SimulationReport(
                "PASS", source, target, mapped, "stabilized, exactly equal"
            )
        return SimulationReport(
            "FAIL", source, target, mapped, "stabilized but unequal"
        )
    if _brackets_overlap(mapped, source.residual, target.lower, target.residual):
        return SimulationReport(
            "BRACKET-CONSISTENT",
            source,
            target,
            mapped,
            "not stabilized; brackets overlap pointwise",
        )
    return SimulationReport(
        "FAIL", source, target, mapped, "brackets disjoint at some value"
    )


def check_simulation_v_by_n(
    t: Term, fuel: int, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> SimulationReport:
    """Compare psi of the call-by-value run against the call-by-name run
    of the translation applied to the identity continuation."""
    return _check_simulation(
        t, fuel, frontier_cap, CBV, CBN, cps_v_to_n, psi_dist
    )


def check_simulation_n_by_v(
    t: Term, fuel: int, frontier_cap: int = DEFAULT_FRONTIER_CAP
) -> SimulationReport:
    """Dual direction: phi of the call-by-name run against the
    call-by-value run of the translation applied to the identity."""
    return _check_simulation(
        t, fuel, frontier_cap, CBN, CBV, cps_n_to_v, phi_dist
    )
