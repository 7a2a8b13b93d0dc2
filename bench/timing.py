"""Operation times rescaled to a reference speed.

The host this benchmark was written on changes speed by up to 2x within
a minute (CPU time moves with wall time, so it is the processor, not
scheduling).  Raw wall-clock figures of the same work do not repeat, so
the meter runs a fixed pure-Python reference slice between chunks of
operations and rescales each operation's wall time by

    REF_NOMINAL_S / (mean duration of the slices on either side)

A rescaled time reads as the wall time the operation would have taken
had the slice run in exactly REF_NOMINAL_S.  Raw wall times are kept
next to the rescaled ones.
"""

from __future__ import annotations

import time

# median duration of one reference slice on the 2-core host the README's
# figures come from (Python 3.11)
REF_NOMINAL_S = 0.0020

# operations are timed in chunks of at least this much wall time, with a
# reference slice after each chunk
CHUNK_S = 0.025


def _reference_work() -> int:
    # builds, hashes and walks small nested tuples: allocation, hashing and
    # pointer chasing like term handling.  A slice of integer arithmetic on
    # a small dict tracked the host less well: it slowed more than the
    # workloads in the host's slow phases and over-corrected them by ~5%.
    table: dict = {}
    acc = 0
    for i in range(160):
        node: tuple = ("v", i & 7)
        for depth in range(6):
            node = ("a", node, ("l", depth)) if (i >> depth) & 1 else ("c", ("v", depth), node)
        table[node] = table.get(node, 0) + 1
        stack = [node]
        while stack:
            item = stack.pop()
            if item[0] == "v":
                acc += item[1]
            else:
                stack.extend(x for x in item[1:] if isinstance(x, tuple))
    return acc + len(table)


def reference_slice() -> float:
    """Wall time of one run of the reference work."""
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started


class Meter:
    """Collects operation times and rescales them chunk by chunk.

    `record` takes an operation's wall time; once a chunk holds CHUNK_S of
    wall time a reference slice runs.  A chunk's operations are rescaled by
    the median of the WINDOW slices nearest to it, half before and half
    after, which smooths the slices' own noise while following the host's
    drift over a fraction of a second.  Call `flush` at the end of each
    round; `norm()` gives the rescaled times of all flushed chunks."""

    WINDOW = 6

    def __init__(self):
        self.wall: list[float] = []
        self.slices: list[float] = [reference_slice()]
        self._chunk_ends: list[int] = []
        self._pending = 0.0

    def record(self, wall: float) -> None:
        self.wall.append(wall)
        self._pending += wall
        if self._pending >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        if len(self.wall) == (self._chunk_ends[-1] if self._chunk_ends else 0):
            return
        self._chunk_ends.append(len(self.wall))
        self.slices.append(reference_slice())
        self._pending = 0.0

    def norm(self) -> list[float]:
        half = self.WINDOW // 2
        out: list[float] = []
        start = 0
        for j, end in enumerate(self._chunk_ends):
            # chunk j lies between slices j and j + 1
            window = sorted(self.slices[max(0, j + 1 - half) : j + 1 + half])
            factor = REF_NOMINAL_S / window[len(window) // 2]
            out.extend(w * factor for w in self.wall[start:end])
            start = end
        return out
