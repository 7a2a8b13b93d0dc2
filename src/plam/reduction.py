"""One-step weak reduction, call-by-value and call-by-name.

A step maps a non-value term to its list of successors: one successor
for a beta step or a step inside a context, two (left then right, half
probability each) when a choice between two values fires (call-by-value)
or any choice fires (call-by-name).  Values get None.

Both steppers dispatch on `type()` and read the terms' slots: they run
once per node of every evaluation context, where a class pattern would
cost several times more.
"""

from __future__ import annotations

from .syntax import Abs, App, Choice, OpenTermError, Term, Var, substitute

CBV = "cbv"
CBN = "cbn"
STRATEGIES = (CBV, CBN)


class StuckTermError(RuntimeError):
    """No rule applies: a free variable sits in head position."""


def step_cbv(t: Term) -> list[Term] | None:
    """Call-by-value: arguments are evaluated before beta, and both
    branches of a choice are evaluated before the coin is tossed."""
    kind = type(t)
    if kind is App:
        fun, arg = t._fun, t._arg
        head = type(fun)
        if head is not Abs and head is not Var:
            return [App(s, arg) for s in step_cbv(fun)]
        kind = type(arg)
        if kind is not Abs and kind is not Var:
            return [App(fun, s) for s in step_cbv(arg)]
        if head is Abs:
            return [substitute(fun._body, fun._binder, arg)]
        raise StuckTermError(f"variable in head position: {t}")
    if kind is Choice:
        left, right = t._left, t._right
        kind = type(left)
        if kind is not Abs and kind is not Var:
            return [Choice(s, right) for s in step_cbv(left)]
        kind = type(right)
        if kind is not Abs and kind is not Var:
            return [Choice(left, s) for s in step_cbv(right)]
        return [left, right]
    if kind is Abs or kind is Var:
        return None
    raise TypeError(f"not a term: {t!r}")


def step_cbn(t: Term) -> list[Term] | None:
    """Call-by-name: beta fires with the argument unevaluated, and a
    choice tosses the coin immediately."""
    kind = type(t)
    if kind is App:
        fun = t._fun
        head = type(fun)
        if head is Abs:
            return [substitute(fun._body, fun._binder, t._arg)]
        if head is Var:
            raise StuckTermError(f"variable in head position: {t}")
        arg = t._arg
        return [App(s, arg) for s in step_cbn(fun)]
    if kind is Choice:
        return [t._left, t._right]
    if kind is Abs or kind is Var:
        return None
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
