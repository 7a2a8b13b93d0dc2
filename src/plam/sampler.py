"""Monte Carlo runs of single reduction paths.

Differential testing backend for the exact engines: one coin flip per
fired choice, heads (bit 1) taking the left successor.  Aggregation is
by exact integer counts so results are independent of sample order, and
the seed plus generator name are recorded for replay.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .dist import sorted_by_term
from .reduction import step
from .smallstep import OpenTermError
from .syntax import Term, is_value, print_term

RNG_ALGORITHM = "python-random-mersenne-twister"


@dataclass(frozen=True)
class SampleOutcome:
    result: Term | None  # None means the step budget ran out
    steps_used: int

    @property
    def timed_out(self) -> bool:
        return self.result is None


def sample_run(t: Term, strategy: str, max_steps: int, rng: random.Random) -> SampleOutcome:
    """Follow one reduction path, flipping rng for every fired choice."""
    if t.free_names:
        raise OpenTermError(t)
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


@dataclass
class EstimateResult:
    strategy: str
    samples: int
    max_steps: int
    seed: int
    counts: dict[Term, int] = field(default_factory=dict)
    timeouts: int = 0
    algorithm: str = RNG_ALGORITHM

    def frequency(self, v: Term) -> Fraction:
        return Fraction(self.counts.get(v, 0), self.samples)

    @property
    def timeout_rate(self) -> Fraction:
        return Fraction(self.timeouts, self.samples)

    def to_json(self) -> dict:
        entries = [
            {
                "value": print_term(v, canonical=True),
                "count": c,
                "frequency": c / self.samples,
            }
            for v, c in sorted_by_term(self.counts.items())
        ]
        return {
            "strategy": self.strategy,
            "samples": self.samples,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "entries": entries,
            "timeouts": self.timeouts,
            "timeout_rate": self.timeouts / self.samples,
        }


def estimate(
    t: Term, strategy: str, samples: int, max_steps: int, seed: int
) -> EstimateResult:
    """Aggregate `samples` independent runs started from a fixed seed."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    counts: Counter[Term] = Counter()
    timeouts = 0
    for _ in range(samples):
        outcome = sample_run(t, strategy, max_steps, rng)
        if outcome.timed_out:
            timeouts += 1
        else:
            counts[outcome.result] += 1
    result = EstimateResult(strategy, samples, max_steps, seed)
    result.counts = dict(counts)
    result.timeouts = timeouts
    return result
