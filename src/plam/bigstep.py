"""Fuel-bounded big-step evaluation to exact sub-distributions.

Fuel bounds the derivation height, with the two axioms free: a value
evaluates to its point distribution at any fuel, a non-value at fuel 0
evaluates to the empty sub-distribution.

Call-by-value applications combine the full distributions of both parts
before each beta redex is evaluated, and a call-by-value choice weighs
each side by the other side's total mass (the coin only gets tossed once
both branches have converged).  Call-by-name substitutes the unevaluated
argument and splits a choice in half immediately.

Results are memoized on (term, fuel) within one call, in a dict handed
down the recursion and freed on return; that cannot change any result
because evaluation is pure.  A value in function or call-by-value
argument position is used as it stands rather than through its point
distribution, and an application whose one beta redex has weight 1
returns that redex's result without copying it.
"""

from __future__ import annotations

from .dist import EMPTY, HALF, ONE, SubDist, combine, from_value
from .reduction import CBV, check_input
from .syntax import Abs, App, Term, Var, substitute


def eval_big(t: Term, strategy: str, fuel: int) -> SubDist:
    check_input(t, strategy, fuel)
    return _eval(t, fuel, {}, strategy == CBV)


def _eval(t: Term, fuel: int, memo: dict, cbv: bool) -> SubDist:
    kind = type(t)
    if kind is Abs or kind is Var:
        return from_value(t)
    if fuel == 0:
        return EMPTY
    key = (t, fuel)
    cached = memo.get(key)
    if cached is not None:
        return cached
    fuel -= 1
    if kind is App:
        # a value operand stands for its own point distribution
        fun, arg = t._fun, t._arg
        kind = type(fun)
        if kind is Abs or kind is Var:
            funs = ((fun, ONE),)
        else:
            funs = _eval(fun, fuel, memo, cbv).items()
        if cbv:
            kind = type(arg)
            if kind is Abs or kind is Var:
                args = ((arg, ONE),)
            else:
                args = _eval(arg, fuel, memo, cbv).items()
            parts = [
                (mf * mv, _eval(substitute(f._body, f._binder, v), fuel, memo, cbv))
                for f, mf in funs
                if type(f) is Abs
                for v, mv in args
            ]
        else:
            parts = [
                (mf, _eval(substitute(f._body, f._binder, arg), fuel, memo, cbv))
                for f, mf in funs
                if type(f) is Abs
            ]
        # a single part of weight 1 is the answer as it stands
        if len(parts) == 1 and parts[0][0] == ONE:
            result = parts[0][1]
        else:
            result = combine(parts)
    else:  # a choice
        d = _eval(t._left, fuel, memo, cbv)
        e = _eval(t._right, fuel, memo, cbv)
        if cbv:
            result = combine([(HALF * e.mass(), d), (HALF * d.mass(), e)])
        else:
            result = combine([(HALF, d), (HALF, e)])
    memo[key] = result
    return result
