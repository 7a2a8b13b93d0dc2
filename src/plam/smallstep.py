"""Iterated small-step evaluation to exact distribution brackets.

The engine runs synchronous expansion rounds over a frontier of pending
terms.  Each round steps every pending term once, splitting mass in half
at a fired choice and merging alpha-equivalent results; terms that have
become values move into the lower approximant.  After `fuel` rounds the
pending mass is the residual, so lower mass + residual = 1 exactly.

A run steps each distinct state (up to alpha) once: `approximate` keeps
its reduction graph, a dict from term to successors, for the length of
the call, so a state that recurs in a later round (every cycling
divergent term has such states) takes its stored successors, whose keys
and hashes are already cached, and the round only merges masses.  The
graph lives and dies with the call; nothing of it is kept on `Bracket`.

Divergence brackets come from the same run: the upper bound is 1 minus
the converged mass, i.e. the residual; the lower bound counts frontier
mass sitting on states whose forward closure is finite and value-free
(every self-loop like Omega qualifies) and fits within CLOSURE_LIMIT
states.  One `Bracket.divergence()` call keeps a graph of its own,
shared by the closures of all frontier states.  Terms that diverge while
growing forever get lower bound 0; that limitation is deliberate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dist import Dyadic, ONE, SubDist, ZERO
from .reduction import step
from .syntax import Term, is_value, size

DEFAULT_FRONTIER_CAP = 100_000
# states one divergence closure may explore before it gives up
CLOSURE_LIMIT = 500


class FrontierCapError(RuntimeError):
    def __init__(self, cap: int, round_no: int, count: int):
        super().__init__(
            f"frontier grew to {count} distinct states in round {round_no}, "
            f"exceeding the cap of {cap}; raise frontier_cap to continue"
        )
        self.cap = cap
        self.round_no = round_no
        self.count = count


class OpenTermError(ValueError):
    def __init__(self, t: Term):
        names = ", ".join(sorted(t.free_names))
        super().__init__(f"term has free variables: {names}")


@dataclass(frozen=True)
class Bracket:
    """Exact evaluation state after a fuel-bounded run.

    `frontier` holds the (term, mass) pairs still pending after the last
    round, in the run's order; it feeds `divergence` and takes no part in
    equality, hashing or the repr.
    """

    lower: SubDist
    residual: Dyadic
    fuel: int
    strategy: str
    frontier: tuple[tuple[Term, Dyadic], ...] = field(
        compare=False, hash=False, repr=False
    )

    def upper_bound(self, v: Term) -> Dyadic:
        """Best upper bound for the limit probability of value v."""
        return self.lower.get(v) + self.residual

    def divergence(self) -> tuple[Dyadic, Dyadic]:
        """Exact (lower, upper) bounds on the probability of divergence.

        The upper bound is the residual.  The frontier is walked in the
        run's order with certificates shared across its states, since
        which closures fit the budget depends on that order.
        """
        certified = ZERO
        divergent: set[Term] = set()
        escaping: set[Term] = set()
        graph: dict[Term, list[Term]] = {}
        for term, mass in self.frontier:
            if _certified_divergent(
                term, self.strategy, divergent, escaping, graph
            ):
                certified = certified + mass
        return certified, self.residual


def approximate(
    t: Term,
    strategy: str,
    fuel: int,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> Bracket:
    """Exact lower approximant and residual after `fuel` rounds."""
    if t.free_names:
        raise OpenTermError(t)
    lower: dict[Term, Dyadic] = {}
    frontier: dict[Term, Dyadic] = {}
    graph: dict[Term, list[Term]] = {}

    def put(table, term, mass):
        prev = table.get(term)
        table[term] = mass if prev is None else prev + mass

    put(lower if is_value(t) else frontier, t, ONE)

    for round_no in range(1, fuel + 1):
        if not frontier:
            break
        fresh: dict[Term, Dyadic] = {}
        for term, mass in frontier.items():
            succs = graph.get(term)
            if succs is None:
                succs = graph[term] = step(term, strategy)
            share = mass.half() if len(succs) == 2 else mass
            for s in succs:
                put(lower if is_value(s) else fresh, s, share)
        if len(fresh) > frontier_cap:
            raise FrontierCapError(frontier_cap, round_no, len(fresh))
        frontier = fresh

    residual = ZERO
    for m in frontier.values():
        residual = residual + m
    return Bracket(
        SubDist(lower), residual, fuel, strategy, tuple(frontier.items())
    )


def _certified_divergent(
    start: Term, strategy: str, divergent: set, escaping: set, graph: dict
) -> bool:
    """True when start's forward closure is finite, value-free and fully
    explored within CLOSURE_LIMIT states.  `graph` maps each state already
    stepped to its successors."""
    if start in divergent:
        return True
    if start in escaping:
        return False
    # states in a finite closure cycle, so their sizes stay bounded; a
    # successor far larger than the start is evidence of unbounded growth
    # and is treated as a budget miss rather than chased further
    size_bound = 2 * size(start) + 64
    seen = {start}
    queue = [start]
    closed = True
    while queue:
        if len(seen) > CLOSURE_LIMIT:
            closed = False
            break
        term = queue.pop()
        if term in divergent:
            continue
        if is_value(term) or size(term) > size_bound:
            closed = False
            break
        succs = graph.get(term)
        if succs is None:
            succs = graph[term] = step(term, strategy)
        for s in succs:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    if closed:
        divergent.update(seen)
        return True
    # a value was reachable (or the budget ran out): refuse to certify this
    # start state, but say nothing about the other states visited
    escaping.add(start)
    return False


def divergence_bracket(
    t: Term,
    strategy: str,
    fuel: int,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> tuple[Dyadic, Dyadic]:
    """Exact (lower, upper) bounds on the probability of divergence; the
    same run as `approximate(...).divergence()`."""
    return approximate(t, strategy, fuel, frontier_cap).divergence()
