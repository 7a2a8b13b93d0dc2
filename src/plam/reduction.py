"""One-step weak reduction, call-by-value and call-by-name.

A step maps a non-value term to its list of successors: one successor
for a beta step or a step inside a context, two (left then right, half
probability each) when a choice between two values fires (call-by-value)
or any choice fires (call-by-name).  Values get None.

A step descends the evaluation context to its redex, and each stepper
records in `graph`, a dict from term to successors, the successors of
every term it steps: the one it was given and each context subterm it
passed through.  Before descending into a subterm it looks the subterm
up there (successor lists are never empty, so `graph.get(s) or ...`
steps exactly the missing ones).  A caller that keeps one graph for a
whole run, as the engines in `smallstep` do, thus reduces once each
subterm that several states share or that recurs.  Terms key the graph
up to alpha, and their hashes are cached, so each level costs one
lookup; an application's key is built only when the lookup meets a
distinct term with its hash.

Both steppers dispatch on `type()` and read the terms' slots: they run
once per node of every evaluation context, where a class pattern would
cost several times more.  For the same reason they build the one or two
successors of a context directly: a list comprehension is a function
call of its own in CPython 3.11.
"""

from __future__ import annotations

from .syntax import Abs, App, Choice, OpenTermError, Term, Var, substitute

CBV = "cbv"
CBN = "cbn"
STRATEGIES = (CBV, CBN)


class StuckTermError(RuntimeError):
    """No rule applies: a free variable sits in head position."""


def step_cbv(t: Term, graph: dict) -> list[Term] | None:
    """Call-by-value: an application or a choice evaluates its left part
    to a value, then its right part, and then fires: beta substitutes
    the argument value, and the coin picks one of the two branch values."""
    kind = type(t)
    if kind is App:
        make, left, right = App, t._fun, t._arg
    elif kind is Choice:
        make, left, right = Choice, t._left, t._right
    elif kind is Abs or kind is Var:
        return None
    else:
        raise TypeError(f"not a term: {t!r}")
    head, kind = type(left), type(right)
    if head is not Abs and head is not Var:
        inner = graph.get(left) or step_cbv(left, graph)
        if len(inner) == 1:
            succs = [make(inner[0], right)]
        else:
            succs = [make(inner[0], right), make(inner[1], right)]
    elif kind is not Abs and kind is not Var:
        inner = graph.get(right) or step_cbv(right, graph)
        if len(inner) == 1:
            succs = [make(left, inner[0])]
        else:
            succs = [make(left, inner[0]), make(left, inner[1])]
    elif make is Choice:
        succs = [left, right]
    elif head is Abs:
        succs = [substitute(left._body, left._binder, right)]
    else:
        raise StuckTermError(f"variable in head position: {t}")
    graph[t] = succs
    return succs


def step_cbn(t: Term, graph: dict) -> list[Term] | None:
    """Call-by-name: beta fires with the argument unevaluated, and a
    choice tosses the coin immediately."""
    kind = type(t)
    if kind is App:
        fun = t._fun
        head = type(fun)
        if head is Abs:
            succs = [substitute(fun._body, fun._binder, t._arg)]
        elif head is Var:
            raise StuckTermError(f"variable in head position: {t}")
        else:
            arg = t._arg
            inner = graph.get(fun) or step_cbn(fun, graph)
            if len(inner) == 1:
                succs = [App(inner[0], arg)]
            else:
                succs = [App(inner[0], arg), App(inner[1], arg)]
    elif kind is Choice:
        succs = [t._left, t._right]
    elif kind is Abs or kind is Var:
        return None
    else:
        raise TypeError(f"not a term: {t!r}")
    graph[t] = succs
    return succs


def step(t: Term, strategy: str, graph: dict | None = None) -> list[Term] | None:
    """t's successors under strategy, recorded in graph (a throwaway
    one when none is given) with those of every context subterm the
    step passed through."""
    if graph is None:
        graph = {}
    if strategy == CBV:
        return step_cbv(t, graph)
    if strategy == CBN:
        return step_cbn(t, graph)
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
