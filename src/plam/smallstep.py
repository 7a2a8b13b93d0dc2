"""Iterated small-step evaluation to exact distribution brackets.

The engine runs synchronous expansion rounds over a frontier of pending
terms.  Each round steps every pending term once, splitting mass in half
at a fired choice and merging alpha-equivalent results; terms that have
become values move into the lower approximant.  After `fuel` rounds the
pending mass is the residual, so lower mass + residual = 1 exactly.

A run reduces each distinct term (up to alpha) once: `approximate`
keeps its reduction graph, a dict from term to successors, for the
length of the call, and `reduction.step` adds an entry for every term it
steps, the state and each evaluation-context subterm on the way to the
redex.  A state that recurs in a later round (every cycling divergent
term has such states) takes its stored successors, whose hashes are
already cached, and the round only merges masses; `step` is called
once per state missing from the graph.  A context subterm that several
states hold (under call-by-value, `F L (+) F R` leaves one state per
outcome of `F L`, each still holding `F R`) is reduced for the first of
them only.  The graph lives and dies with the call; nothing of it is
kept on `Bracket`.

A looping term's frontier soon repeats: the same state objects in the
same order with the same masses.  Between two such frontiers no mass
can have converged, since lower mass + residual = 1, so every table is
as it was, and whole periods are skipped; only the rounds left over are
run.  The repeat is found by Brent's cycle detection (Brent, "An
improved Monte Carlo factorization algorithm", BIT 1980) over the
frontiers of rounds that stepped no new state, keeping one checkpoint
frontier that moves on at power-of-two distances.  A looping term thus
costs the same at any fuel past its first period, and the result is
that of running every round, objects and order included.

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

from .dist import Dyadic, ONE, SubDist, ZERO, _subdist
from .reduction import check_input, step
from .syntax import Abs, Term, Var, is_value, size

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
        graph: dict[Term, list[Term]] = {}
        for term, mass in self.frontier:
            if _certified_divergent(term, self.strategy, divergent, graph):
                certified = certified + mass
        return certified, self.residual


def approximate(
    t: Term,
    strategy: str,
    fuel: int,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> Bracket:
    """Exact lower approximant and residual after `fuel` rounds."""
    check_input(t, strategy, fuel)
    if frontier_cap < 0:
        raise ValueError(f"negative frontier cap {frontier_cap}")
    lower: dict[Term, Dyadic] = {}
    frontier: dict[Term, Dyadic] = {}
    graph: dict[Term, list[Term]] = {}
    (lower if is_value(t) else frontier)[t] = ONE
    # Brent's cycle detection over the frontiers of rounds that stepped
    # no new state: `mark` is a checkpoint frontier, `lap` the rounds
    # since it, and the checkpoint moves on when `lap` reaches `reach`
    mark = None
    round_no = 0
    while round_no < fuel and frontier:
        round_no += 1
        known = len(graph)
        fresh: dict[Term, Dyadic] = {}
        for term, mass in frontier.items():
            succs = graph.get(term) or step(term, strategy, graph)
            share = mass.half() if len(succs) == 2 else mass
            for s in succs:
                # the value test and the mass merge, inlined: this runs
                # once per successor of every state in every round.  A
                # new state costs one dict probe; a known one grows no
                # entry and takes the sum.
                kind = type(s)
                table = lower if kind is Abs or kind is Var else fresh
                count = len(table)
                prev = table.setdefault(s, share)
                if len(table) == count:
                    table[s] = prev + share
        if len(fresh) > frontier_cap:
            raise FrontierCapError(frontier_cap, round_no, len(fresh))
        frontier = fresh
        if len(graph) != known:
            # the round stepped a new state: a repeat counts only across
            # rounds that read stored successor lists and nothing else
            mark = None
        elif mark is None:
            mark, mark_ids, lap, reach = fresh, tuple(map(id, fresh)), 0, 1
        else:
            # the round mapped the frontier through stored successor
            # lists only, so the next frontier is a function of this
            # one's objects, order and masses.  Objects are compared by
            # identity: `mark` keeps its own alive, so equal ids mean the
            # same objects
            lap += 1
            ids = tuple(map(id, fresh))
            if ids == mark_ids and list(fresh.values()) == list(mark.values()):
                # the frontier repeats every `lap` rounds.  After the
                # jump fewer than `lap` rounds remain, so it is the only one
                round_no += (fuel - round_no) // lap * lap
            elif lap == reach:
                mark, mark_ids, lap, reach = fresh, ids, 0, 2 * reach

    converged = residual = ZERO
    for m in lower.values():
        converged = converged + m
    for m in frontier.values():
        residual = residual + m
    return Bracket(
        _subdist(lower, converged),
        residual,
        fuel,
        strategy,
        tuple(frontier.items()),
    )


def _certified_divergent(
    start: Term, strategy: str, divergent: set, graph: dict
) -> bool:
    """True when start's forward closure is finite, value-free and fully
    explored within CLOSURE_LIMIT states.  States in `divergent` are
    already certified and are not explored again; `graph` maps each
    term already stepped, state or context subterm, to its successors."""
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
        for s in graph.get(term) or step(term, strategy, graph):
            if s not in seen:
                seen.add(s)
                queue.append(s)
    if closed:
        divergent.update(seen)
        return True
    # a value was reachable (or the budget ran out): refuse to certify this
    # start state, but say nothing about the other states visited
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
