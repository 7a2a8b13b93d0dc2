"""One-step weak reduction, call-by-value and call-by-name.

A step maps a non-value term to its list of successors: one successor
for a beta step or a step inside a context, two (left then right, half
probability each) when a choice between two values fires (call-by-value)
or any choice fires (call-by-name).  Values get None.
"""

from __future__ import annotations

from .syntax import Abs, App, Choice, OpenTermError, Term, Var, is_value, substitute

CBV = "cbv"
CBN = "cbn"
STRATEGIES = (CBV, CBN)


class StuckTermError(RuntimeError):
    """No rule applies: a free variable sits in head position."""


def step_cbv(t: Term) -> list[Term] | None:
    """Call-by-value: arguments are evaluated before beta, and both
    branches of a choice are evaluated before the coin is tossed."""
    match t:
        case Var() | Abs():
            return None
        case App(fun, arg):
            if not is_value(fun):
                return [App(s, arg) for s in step_cbv(fun)]
            if not is_value(arg):
                return [App(fun, s) for s in step_cbv(arg)]
            if isinstance(fun, Abs):
                return [substitute(fun.body, fun.binder, arg)]
            raise StuckTermError(f"variable in head position: {t}")
        case Choice(left, right):
            if not is_value(left):
                return [Choice(s, right) for s in step_cbv(left)]
            if not is_value(right):
                return [Choice(left, s) for s in step_cbv(right)]
            return [left, right]
    raise TypeError(f"not a term: {t!r}")


def step_cbn(t: Term) -> list[Term] | None:
    """Call-by-name: beta fires with the argument unevaluated, and a
    choice tosses the coin immediately."""
    match t:
        case Var() | Abs():
            return None
        case App(fun, arg):
            if isinstance(fun, Abs):
                return [substitute(fun.body, fun.binder, arg)]
            if isinstance(fun, Var):
                raise StuckTermError(f"variable in head position: {t}")
            return [App(s, arg) for s in step_cbn(fun)]
        case Choice(left, right):
            return [left, right]
    raise TypeError(f"not a term: {t!r}")


def step(t: Term, strategy: str) -> list[Term] | None:
    if strategy == CBV:
        return step_cbv(t)
    if strategy == CBN:
        return step_cbn(t)
    raise ValueError(f"unknown strategy {strategy!r}")


def check_input(t: Term, strategy: str, fuel: int) -> None:
    """The exact engines' input contract, checked before any work: a
    known strategy, nonnegative fuel and a closed term."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if fuel < 0:
        raise ValueError(f"negative fuel {fuel}")
    if t.free_names:
        raise OpenTermError(t)
