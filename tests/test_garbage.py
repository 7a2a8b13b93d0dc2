"""The engines and walks leave no cyclic garbage: everything a call
builds is freed by reference counting when it returns, so CPython's
cyclic collector finds nothing to do.  A walk written as a closure that
calls itself through its own cell would leave a function-cell cycle per
call, holding whatever the closure sees (for `eval_big`, its memo)."""

import gc

import pytest

from helpers import gate_terms
from plam.bigstep import eval_big
from plam.cps import (
    IDENTITY,
    check_simulation_n_by_v,
    check_simulation_v_by_n,
    colon_n,
    colon_v,
)
from plam.reduction import STRATEGIES
from plam.sampler import estimate
from plam.smallstep import approximate
from plam.syntax import Abs, App, Var, print_term, substitute

TERMS = gate_terms()[:200]
FUEL = 12
CPS_FUEL = 16


def _both(run):
    return lambda t: [run(t, strategy) for strategy in STRATEGIES]


def _reopen(t):
    """t's body with its binder replaced by a name the body may bind
    itself, so the walk descends the whole body and renames on the way."""
    if type(t) is not Abs:
        t = Abs("x", App(t, Var("x")))
    return substitute(t.body, t.binder, Var("v1"))


WALKS = {
    "approximate": _both(lambda t, s: approximate(t, s, FUEL).divergence()),
    "eval_big": _both(lambda t, s: eval_big(t, s, FUEL)),
    "substitute": _reopen,
    "print_term": print_term,
    "print_term canonical": lambda t: print_term(t, canonical=True),
    "check_simulation": lambda t: [
        check_simulation_v_by_n(t, CPS_FUEL),
        check_simulation_n_by_v(t, CPS_FUEL),
    ],
    "colon": lambda t: [colon_v(t, IDENTITY), colon_n(t, IDENTITY)],
    "estimate": _both(lambda t, s: estimate(t, s, 8, 200, seed=1)),
}


@pytest.mark.parametrize("walk", WALKS)
def test_walk_leaves_no_cyclic_garbage(walk):
    run = WALKS[walk]
    gc.collect()
    gc.disable()
    try:
        for t in TERMS:
            run(t)
        assert gc.collect() == 0
    finally:
        gc.enable()
