"""Seeded random generators shared across the test suite, the round
loop `approximate` is checked against (with or without a graph, and
never skipping a round), the small-step walker the sampler's machines
are checked against, the pattern-matching tree readers the encodings'
readers are checked against, and the canonical-code tree builder and
floor-formula remainder oracle the bridge between oracles and terms is
checked against.

Everything takes an explicit random.Random so each suite pins its own
seed and stays reproducible run to run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from importlib import resources

import plam.smallstep as smallstep
from plam.checks import load_corpus
from plam.dist import ONE, ZERO, Dyadic, SubDist
from plam.encodings import FdtError, _leaf, _node, leaf, node
from plam.expressiveness import QUERY_BUDGET, OracleError
from plam.reduction import step
from plam.sampler import SampleOutcome
from plam.smallstep import DEFAULT_FRONTIER_CAP, Bracket, FrontierCapError
from plam.syntax import Abs, App, Choice, Term, Var, encode_nat, is_value


def random_term(rng: random.Random, max_size: int = 40) -> Term:
    """Random closed term with between 2 and max_size nodes."""
    return _gen(rng, rng.randint(2, max(2, max_size)), [])


def random_open_term(rng: random.Random, free: list[str], max_size: int = 20) -> Term:
    """Random term whose free names are drawn from `free`."""
    return _gen(rng, rng.randint(1, max(1, max_size)), list(free))


def random_value(rng: random.Random, max_size: int = 20) -> Term:
    """Random closed abstraction."""
    return Abs("x", _gen(rng, rng.randint(1, max(1, max_size - 1)), ["x"]))


def _gen(rng: random.Random, budget: int, env: list[str]) -> Term:
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


def gate_terms() -> list[Term]:
    """The C2 corpus (500 random terms, seed 20260822) and the shipped
    corpora, the inputs of the differential tests."""
    rng = random.Random(20260822)
    terms = [random_term(rng, 40) for _ in range(500)]
    for name in ("golden.l", "terminating.l", "diverging.l"):
        path = resources.files("plam").joinpath(f"data/{name}")
        with resources.as_file(path) as p:
            terms += [t for _, t in load_corpus(str(p))]
    return terms


def random_fdt(rng: random.Random, max_depth: int = 6) -> Term:
    """Random finite dyadic tree with outcomes in 0..9."""
    if max_depth == 0 or rng.random() < 0.4:
        return leaf(rng.randint(0, 9))
    return node(random_fdt(rng, max_depth - 1), random_fdt(rng, max_depth - 1))


def deterministic_steps_to(
    start: Term, target: Term, strategy: str, limit: int
) -> int | None:
    """Steps along the unique reduction path from start to target.

    Returns None if the path forks, gets stuck, or the budget runs out
    before reaching a term alpha-equal to target.
    """
    current = start
    for used in range(limit + 1):
        if current == target:
            return used
        succs = step(current, strategy)
        if succs is None or len(succs) != 1:
            return None
        current = succs[0]
    return None


def reference_sample_run(t: Term, strategy: str, max_steps: int, rng) -> SampleOutcome:
    """One sampled path by the small-step rules: re-step from the root,
    flipping rng for every fired choice, bit 1 taking the left successor.
    The step past the budget is still taken, coin included."""
    current = t
    for used in range(max_steps + 1):
        if is_value(current):
            return SampleOutcome(current, used)
        succs = step(current, strategy)
        if len(succs) == 2:
            current = succs[0] if rng.getrandbits(1) else succs[1]
        else:
            current = succs[0]
    return SampleOutcome(None, max_steps)


def count_steps(monkeypatch) -> list[Term]:
    """Record every term `smallstep` steps, in order."""
    calls = []
    original = smallstep.step

    def counted(term, strategy, graph=None):
        calls.append(term)
        return original(term, strategy, graph)

    monkeypatch.setattr(smallstep, "step", counted)
    return calls


def reference_approximate(
    t: Term,
    strategy: str,
    fuel: int,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
    graph: dict | None = None,
) -> Bracket:
    """The round loop with no reduction graph: every pending term is
    stepped afresh in every round, however often it recurs.  Given a
    graph, each state is stepped once and its stored successors are
    taken from then on, as in `approximate`, but every round is run."""
    lower: dict[Term, Dyadic] = {}
    frontier: dict[Term, Dyadic] = {}

    def put(table, term, mass):
        prev = table.get(term)
        table[term] = mass if prev is None else prev + mass

    put(lower if is_value(t) else frontier, t, ONE)
    for round_no in range(1, fuel + 1):
        if not frontier:
            break
        fresh: dict[Term, Dyadic] = {}
        for term, mass in frontier.items():
            if graph is None:
                succs = step(term, strategy)
            else:
                succs = graph.get(term) or step(term, strategy, graph)
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


def reference_divergence(b: Bracket) -> tuple[Dyadic, Dyadic]:
    """`b.divergence()` with a graph private to each closure instead of
    one shared by all, so no closure reuses what an earlier one stepped."""
    certified = ZERO
    divergent: set[Term] = set()
    for term, mass in b.frontier:
        if smallstep._certified_divergent(term, b.strategy, divergent, {}):
            certified = certified + mass
    return certified, b.residual


def reference_decode_nat(t: Term) -> int | None:
    """`encodings.decode_nat` by class patterns."""
    n = 0
    while True:
        match t:
            case Abs(x, Abs(y, Var(h))) if h == x != y:
                return n
            case Abs(_, Abs(y, App(Var(h), inner))) if h == y:
                t, n = inner, n + 1
            case _:
                return None


def reference_fdt_shape(t: Term):
    """`encodings.fdt_shape` by class patterns."""
    match t:
        case Abs(x, Abs(y, App(Var(h), arg))) if h == x and x != y:
            if arg.free_names:
                return None
            n = reference_decode_nat(arg)
            return None if n is None else ("leaf", n)
        case Abs(x, Abs(y, App(App(Var(h), l), r))) if h == y:
            if l.free_names or r.free_names:
                return None
            if reference_fdt_shape(l) is None or reference_fdt_shape(r) is None:
                return None
            return ("node", l, r)
    return None


def random_dyadic_dist(
    rng: random.Random, outcomes: int = 10, largest: int = 50, exp: int = 20
) -> dict[int, Dyadic]:
    """Random distribution of total mass 1 over up to `outcomes` naturals
    no larger than `largest`, with masses over 2^e for some e <= exp
    (masses of 0 included)."""
    chosen = rng.sample(range(largest + 1), rng.randint(1, outcomes))
    e = rng.randint(0, exp)
    cuts = sorted(rng.randint(0, 1 << e) for _ in chosen[1:])
    ends = [0, *cuts, 1 << e]
    return {n: Dyadic(b - a, e) for n, a, b in zip(chosen, ends, ends[1:])}


def reference_fdt_from_dist(d) -> Term:
    """`encodings.fdt_from_dist` by a canonical prefix code: every set bit
    of a mass is an atom at its depth, atoms sorted by (depth, outcome)
    take consecutive codewords, and the tree splits the codes on their
    first digit."""
    total = ZERO
    atoms: list[tuple[int, int]] = []  # (depth, outcome)
    for n in sorted(d):
        m = d[n]
        if not m:
            continue
        if n < 0:
            raise FdtError(f"outcome {n} is not a natural number")
        if m > ONE:
            raise FdtError(f"mass {m} of outcome {n} exceeds 1")
        total = total + m
        for depth in range(m.exp + 1):
            if (m.num >> (m.exp - depth)) & 1:
                atoms.append((depth, n))
    if total != ONE:
        raise FdtError(f"total mass is {total}, need exactly 1")

    atoms.sort()
    codes: list[tuple[str, int]] = []
    code, prev_depth = 0, 0
    for depth, n in atoms:
        code <<= depth - prev_depth
        codes.append((format(code, f"0{depth}b") if depth else "", n))
        code += 1
        prev_depth = depth

    def build(codes: list[tuple[str, int]]) -> Term:
        if len(codes) == 1 and codes[0][0] == "":
            return _leaf(encode_nat(codes[0][1]))
        left = [(c[1:], n) for c, n in codes if c[0] == "0"]
        right = [(c[1:], n) for c, n in codes if c[0] == "1"]
        return _node(build(left), build(right))

    return build(codes)


def reference_remainder_approx(base, peeled, a: int, n: int) -> str:
    """`expressiveness._RemainderOracle(base, peeled).approx(a, n)` by the
    floor formula, with the all-ones prefix near 1 as its own case."""
    if n == 0:
        return ""
    e = peeled.get(a, ZERO).as_fraction()
    boundary = 1 - Fraction(1, 2**n)
    for m in range(n + 2, n + 2 + QUERY_BUDGET):
        t = base.lower_bound(a, m).as_fraction()
        lo = max(Fraction(0), 2 * t - e)
        hi = min(Fraction(1), 2 * t + Fraction(1, 2 ** (m - 1)) - e)
        if lo >= boundary:
            return "1" * n
        if math.floor(lo * 2**n) == math.floor(hi * 2**n):
            return format(math.floor(lo * 2**n), f"0{n}b")
    raise OracleError(
        f"digits of remainder at {a} undetermined within precision budget"
    )
