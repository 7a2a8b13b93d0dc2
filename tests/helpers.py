"""Seeded random generators shared across the test suite, and the
small-step walker the sampler's machines are checked against.

Everything takes an explicit random.Random so each suite pins its own
seed and stays reproducible run to run.
"""

from __future__ import annotations

import random

from plam.encodings import leaf, node
from plam.reduction import step
from plam.sampler import SampleOutcome
from plam.syntax import Abs, App, Choice, Term, Var, is_value


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
