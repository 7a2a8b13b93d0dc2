"""Distributions over naturals as digit oracles, and the two bridges
between oracles and terms.

An oracle answers approx(a, n): the first n binary digits (truncated
expansion; probability 1 is all ones by convention, `dist._digits`) of
the probability of outcome a.  A probability known only to lie in an
interval has those digits once both ends of the interval share them:
soundness_approx runs a term until the two ends of its bracket agree,
and split's remainder oracle queries its base oracle until the two ends
that the base digits leave agree.  split peels half of an oracle's mass
into a finite dyadic tree plus a remainder oracle; iterating that
(completeness_approx) builds a term whose distribution approaches the
oracle's from below, gaining one bit of mass per round.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from fractions import Fraction
from typing import Callable, Mapping

from .dist import Dyadic, HALF, ONE, ZERO, _digits
from .encodings import MFDT, OMEGA, decode_nat, encode_nat, fdt_from_dist
from .reduction import CBV
from .smallstep import approximate
from .syntax import Abs, App, Choice, Term, Var


# seconds a SubprocessOracle may take to answer one query
ORACLE_TIMEOUT_S = 5.0

# fuels soundness_approx tries in turn before giving up
SOUNDNESS_FUEL_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)

# rounds split queries before giving up, and extra digits of precision a
# remainder oracle reads before giving up
QUERY_BUDGET = 64


class OracleError(RuntimeError):
    pass


class DistOracle:
    """Base class: subclasses implement approx(a, n) -> n-digit string."""

    def approx(self, a: int, n: int) -> str:
        raise NotImplementedError

    def lower_bound(self, a: int, n: int) -> Dyadic:
        """Dyadic lower bound on the probability of a, from n digits."""
        if n == 0:
            return ZERO
        return Dyadic(int(self.approx(a, n), 2), n)


class FractionOracle(DistOracle):
    """Closed-form oracle for an exactly known probability function."""

    def __init__(self, prob: Callable[[int], Fraction]):
        self.prob = prob

    def approx(self, a: int, n: int) -> str:
        p = Fraction(self.prob(a))
        if not 0 <= p <= 1:
            raise OracleError(f"probability of {a} is {p}, outside [0, 1]")
        return _digits(p.numerator, p.denominator, n)


def oracle_from_dyadics(d: Mapping[int, Dyadic]) -> DistOracle:
    table = {a: m.as_fraction() for a, m in d.items()}
    return FractionOracle(lambda a: table.get(a, Fraction(0)))


def geometric_oracle() -> DistOracle:
    return FractionOracle(lambda a: Fraction(1, 2 ** (a + 1)))


class SubprocessOracle(DistOracle):
    """Line protocol: write 'a n', read back the n-digit bitstring.

    An answer must arrive within ORACLE_TIMEOUT_S seconds.  Any failure
    kills and reaps the process before OracleError is raised.
    """

    def __init__(self, command: list[str]):
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._pending = b""

    def approx(self, a: int, n: int) -> str:
        try:
            if self.proc.poll() is not None:
                raise OracleError("oracle process has exited")
            self.proc.stdin.write(f"{a} {n}\n".encode())
            self.proc.stdin.flush()
            line = self._read_line()
            if len(line) != n or set(line) - {"0", "1"}:
                raise OracleError(f"bad oracle answer {line!r} for {a} {n}")
        except OSError as exc:
            self._kill()
            raise OracleError(f"oracle pipe failed: {exc}") from exc
        except OracleError:
            self._kill()
            raise
        return line

    def _read_line(self) -> str:
        """The next answer line, read straight off the pipe so that a
        silent or half-written answer cannot block past the timeout."""
        deadline = time.monotonic() + ORACLE_TIMEOUT_S
        out = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([out], [], [], left)[0]:
                raise OracleError(f"no oracle answer within {ORACLE_TIMEOUT_S} s")
            chunk = os.read(out, 4096)
            if not chunk:
                raise OracleError("oracle process closed its output")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line.decode(errors="replace").strip()

    def _kill(self):
        self.proc.kill()
        self.close()

    def close(self):
        """Send end of input, wait for the process to exit (killing it
        after ORACLE_TIMEOUT_S), and close both pipes."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # a query the process never read
            pass
        try:
            self.proc.wait(timeout=ORACLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def soundness_approx(t: Term, a: int, n: int) -> str | None:
    """First n binary digits of the probability of numeral a in t's
    call-by-value run.

    Evaluates t under the fuels of SOUNDNESS_FUEL_SCHEDULE until the two
    ends of its bracket on that probability (the converged mass of a, and
    that plus the residual) share their first n digits; returns None when
    the schedule is exhausted first.  Rejects terms whose converged
    support contains non-numerals.
    """
    numeral = encode_nat(a)
    for fuel in SOUNDNESS_FUEL_SCHEDULE:
        bracket = approximate(t, CBV, fuel)
        digits = bracket.lower.get(numeral).digits(n)
        if digits == bracket.upper_bound(numeral).digits(n):
            for v, _ in bracket.lower.items():
                if decode_nat(v) is None:
                    raise OracleError(f"non-numeral in support: {v}")
            return digits
    return None


def split(oracle: DistOracle) -> tuple[Term, DistOracle]:
    """Peel off half the oracle's mass as a finite dyadic tree.

    Queries outcomes in dovetail order until the certified lower bounds
    reach 1/2, trims them to a sub-distribution summing exactly 1, and
    returns the tree together with the remainder oracle for 2*D - pd.
    The identity D = 1/2 pd(tree) + 1/2 remainder holds exactly.
    """
    bounds: dict[int, Dyadic] = {}
    for r in range(1, QUERY_BUDGET + 1):
        total = ZERO
        for a in range(r):
            bounds[a] = oracle.lower_bound(a, r)
            total = total + bounds[a]
        if total >= HALF:
            break
    else:
        raise OracleError(
            f"split budget of {QUERY_BUDGET} rounds exhausted before half the "
            "mass was certified"
        )

    peeled: dict[int, Dyadic] = {}
    allocated = ZERO
    for a in sorted(bounds):
        room = ONE - allocated
        if not room:
            break
        take = bounds[a] + bounds[a]  # 2 * lower bound <= 2 * D(a)
        if take > room:
            take = room
        if take:
            peeled[a] = take
            allocated = allocated + take
    return fdt_from_dist(peeled), _RemainderOracle(oracle, peeled)


class _RemainderOracle(DistOracle):
    """Digits of 2*D(a) - e(a), derived from the base oracle's digits.

    The base digits at precision m pin D(a) inside [t, t + 2^-m], so the
    target value sits in an interval of width 2^-(m-1); m grows until both
    ends of the interval have the same first n digits, which are then the
    digits of every value in between.
    """

    def __init__(self, base: DistOracle, peeled: Mapping[int, Dyadic]):
        self.base = base
        self.peeled = dict(peeled)

    def approx(self, a: int, n: int) -> str:
        if n == 0:
            return ""
        e = self.peeled.get(a, ZERO).as_fraction()
        for m in range(n + 2, n + 2 + QUERY_BUDGET):
            t = self.base.lower_bound(a, m).as_fraction()
            lo = max(Fraction(0), 2 * t - e)
            hi = min(Fraction(1), 2 * t + Fraction(1, 2 ** (m - 1)) - e)
            digits = _digits(lo.numerator, lo.denominator, n)
            if digits == _digits(hi.numerator, hi.denominator, n):
                return digits
        raise OracleError(
            f"digits of remainder at {a} undetermined within precision budget"
        )


def completeness_approx(oracle: DistOracle, rounds: int) -> tuple[Term, Dyadic]:
    """Term whose call-by-value run lies pointwise below the oracle's
    distribution with total mass at least 1 - 2^-rounds (the returned
    guarantee).

    Each round splits off a tree L and chains
    ((\\s. MFDT L) (+) (\\s. <rest>)) (\\s. s), bottoming out at OMEGA.
    """
    trees: list[Term] = []
    current = oracle
    for _ in range(rounds):
        tree, current = split(current)
        trees.append(tree)
    term: Term = OMEGA
    for tree in reversed(trees):
        term = App(
            Choice(Abs("s", App(MFDT, tree)), Abs("s", term)),
            Abs("s", Var("s")),
        )
    return term, ONE - Dyadic(1, rounds)
