"""Exact dyadic probabilities and finite sub-distributions over values.

All masses are dyadic rationals num/2^exp kept in a unique normal form,
so every distribution identity the engines assert is checked exactly,
never with float tolerances.

Both types have two construction paths.  The public constructors
validate everything: `Dyadic(num, exp)` normalizes, and `SubDist(...)`
checks that every key is a value, merges alpha-equal keys, drops zero
masses and sums the total.  The private makers `_dyadic` and `_subdist`
serve results built in this package and skip the checks those results
pass by construction.  `_dyadic` takes a num/2^exp already in lowest
terms.  `_subdist` takes over a dict whose keys are values and whose
masses are positive, together with their exact sum, computed as the
entries were built; it raises `MassError` only if that sum exceeds 1.
The arithmetic takes its lowest-terms shortcuts through `_dyadic`;
`from_value`, `combine` and `smallstep.approximate` build their results
through `_subdist`.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

from .syntax import Term, is_value, parse, print_term

_new = object.__new__


class MassError(ValueError):
    """Total probability mass would exceed 1."""


def _integer(text) -> int:
    # int(str) refuses more than 4300 digits by default, and lifting that
    # limit is process-wide; decimal converts exactly at any length
    if type(text) is int:
        return text
    if not (isinstance(text, str) and re.fullmatch(r"[+-]?[0-9]+", text)):
        raise ValueError(f"not an integer: {text!r}")
    return int(Decimal(text))


# numerators up to this many bits print exactly in error messages
_EXACT_BITS = 256


def _mass_text(num: int, exp: int) -> str:
    """num/2^exp for an error message.  A numerator longer than
    _EXACT_BITS shows as its bit count and a float approximation, since
    its decimal digits take time quadratic in its length to print and
    would make the message as long."""
    bits = abs(num).bit_length()
    if bits <= _EXACT_BITS:
        return str(num) if exp == 0 else f"{num}/2^{exp}"
    sign = "-" if num < 0 else ""
    shift = bits - 64
    try:
        value = math.ldexp(num >> shift, shift - exp)
    except OverflowError:
        value = 0.0
    approx = f"{value:.6g}" if value else f"{sign}2^{bits - exp}"
    return f"{sign}<{bits}-bit numerator>/2^{exp} (about {approx})"


class Dyadic:
    """Nonnegative rational num / 2**exp in lowest terms: num is odd, or
    exp is 0.  Immutable; `num` and `exp` are read-only properties over
    private slots, which the arithmetic reads directly."""

    __slots__ = ("_num", "_exp")
    __match_args__ = ("num", "exp")

    num = property(attrgetter("_num"))
    exp = property(attrgetter("_exp"))

    def __init__(self, num: int, exp: int = 0):
        if num < 0 or exp < 0:
            raise ValueError(f"not a nonnegative dyadic: {_mass_text(num, exp)}")
        if num:
            # strip the trailing zero bits of num, at most exp of them
            shift = (num & -num).bit_length() - 1
            if shift > exp:
                shift = exp
            num >>= shift
            exp -= shift
        else:
            exp = 0
        self._num = num
        self._exp = exp

    def __eq__(self, other) -> bool:
        if type(other) is not Dyadic:
            return NotImplemented
        return self._num == other._num and self._exp == other._exp

    def __hash__(self) -> int:
        return hash((self._num, self._exp))

    def __repr__(self) -> str:
        return f"Dyadic(num={self._num!r}, exp={self._exp!r})"

    def __reduce__(self):
        return Dyadic, (self._num, self._exp)

    # -- arithmetic --
    # The shortcuts below hand results already in lowest terms to
    # `_dyadic`; the rest normalize in the constructor.

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, x, b, y = self._num, self._exp, other._num, other._exp
        # with unequal exponents the larger one is positive, so its
        # numerator is odd and the other, shifted left, is even: the sum
        # is odd
        if x > y:
            return _dyadic(a + (b << (x - y)), x)
        if x < y:
            return _dyadic((a << (y - x)) + b, y)
        return Dyadic(a + b, x)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b = self._aligned(other)
        if a < b:
            raise ValueError(
                f"negative result: {_mass_text(self._num, self._exp)}"
                f" - {_mass_text(other._num, other._exp)}"
            )
        return Dyadic(a - b, max(self._exp, other._exp))

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        a, b = self._num, other._num
        if a & b & 1:  # a product of odd numerators is odd
            return _dyadic(a * b, self._exp + other._exp)
        return Dyadic(a * b, self._exp + other._exp)

    def half(self) -> "Dyadic":
        if self._num & 1:  # an even numerator has exponent 0
            return _dyadic(self._num, self._exp + 1)
        return Dyadic(self._num, self._exp + 1)

    def _aligned(self, other: "Dyadic") -> tuple[int, int]:
        """Both numerators over the larger of the two exponents."""
        x, y = self._exp, other._exp
        if x >= y:
            return self._num, other._num << (x - y)
        return self._num << (y - x), other._num

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._aligned(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._aligned(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        a, b = self._aligned(other)
        return a > b

    def __ge__(self, other: "Dyadic") -> bool:
        a, b = self._aligned(other)
        return a >= b

    def __bool__(self) -> bool:
        return self._num != 0

    # -- conversions --

    @classmethod
    def from_fraction(cls, f) -> "Dyadic":
        f = Fraction(f)
        d = f.denominator
        if d & (d - 1):
            raise ValueError(f"denominator {_mass_text(d, 0)} is not a power of two")
        return cls(f.numerator, d.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self._num, 1 << self._exp)

    def __float__(self) -> float:
        return self._num / (1 << self._exp)

    def __str__(self) -> str:
        num = str(Decimal(self._num))  # str(int) also stops at 4300 digits
        return num if self._exp == 0 else f"{num}/2^{self._exp}"

    def to_json(self) -> dict:
        # decimal string keeps arbitrary precision JSON-safe
        return {"num": str(Decimal(self._num)), "exp": self._exp}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Dyadic":
        return cls(_integer(obj["num"]), _integer(obj["exp"]))

    def digits(self, n: int) -> str:
        """First n binary digits of a value in [0, 1]: the truncated
        binary expansion, with the value 1 as all ones (`_digits`)."""
        if self > ONE:
            raise ValueError(f"{_mass_text(self._num, self._exp)} > 1 has no digit expansion")
        return _digits(self._num, 1 << self._exp, n)


def _digits(num: int, den: int, n: int) -> str:
    """First n binary digits of num/den >= 0: floor(num/den * 2^n) in n
    digits, or all ones at or above 1 by convention; empty for n <= 0."""
    if n <= 0:
        return ""
    if num >= den:
        return "1" * n
    return format((num << n) // den, f"0{n}b")


def _dyadic(num: int, exp: int) -> Dyadic:
    """The Dyadic num/2^exp, which the caller knows is in lowest terms."""
    d = _new(Dyadic)
    d._num = num
    d._exp = exp
    return d


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)


def sorted_by_term(pairs: Iterable[tuple[Term, object]]) -> list:
    """(term, x) pairs sorted by the term's canonical text: the order of
    everything printed or serialized, never of the engines' own loops."""
    return sorted(pairs, key=lambda kv: print_term(kv[0], canonical=True))


class SubDist:
    """Finite map from values to positive dyadic masses, total at most 1."""

    __slots__ = ("_entries", "_mass")

    def __init__(self, entries: Mapping[Term, Dyadic] | Iterable = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[Term, Dyadic] = {}
        for v, m in items:
            if not is_value(v):
                raise ValueError(f"not a value: {v}")
            if m:
                prev = acc.get(v)
                acc[v] = m if prev is None else prev + m
        total = ZERO
        for m in acc.values():
            total = total + m
        if total > ONE:
            raise MassError(f"total mass {_mass_text(total._num, total._exp)} exceeds 1")
        self._entries = acc
        self._mass = total

    def mass(self) -> Dyadic:
        return self._mass

    def get(self, v: Term) -> Dyadic:
        return self._entries.get(v, ZERO)

    def support(self) -> list[Term]:
        return [v for v, _ in sorted_by_term(self._entries.items())]

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, v: Term) -> bool:
        return v in self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubDist):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{print_term(v, canonical=True)}: {m}"
            for v, m in sorted_by_term(self._entries.items())
        )
        return "{" + body + "}"

    def leq(self, other: "SubDist") -> bool:
        """Pointwise order: self(v) <= other(v) everywhere."""
        return all(m <= other.get(v) for v, m in self._entries.items())

    def to_json(self) -> dict:
        entries = [
            {"value": print_term(v, canonical=True), **m.to_json()}
            for v, m in sorted_by_term(self._entries.items())
        ]
        return {"entries": entries, "mass": self._mass.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "SubDist":
        return cls(
            (parse(e["value"]), Dyadic.from_json(e)) for e in obj["entries"]
        )


EMPTY = SubDist()


def _subdist(entries: dict[Term, Dyadic], total: Dyadic) -> SubDist:
    """A SubDist that takes over `entries`, a dict from values to positive
    masses whose exact sum is `total`; only the total is checked."""
    if total._num > 1 << total._exp:  # total > ONE
        raise MassError(f"total mass {_mass_text(total._num, total._exp)} exceeds 1")
    d = _new(SubDist)
    d._entries = entries
    d._mass = total
    return d


def from_value(v: Term) -> SubDist:
    if not is_value(v):
        raise ValueError(f"not a value: {v}")
    return _subdist({v: ONE}, ONE)


def combine(parts: Iterable[tuple[Dyadic, SubDist]]) -> SubDist:
    """Weighted sum of sub-distributions; fails if mass would exceed 1."""
    acc: dict[Term, Dyadic] = {}
    total = ZERO
    for w, d in parts:
        if w and d._entries:
            # each part's mass is the exact sum of its entries
            total = total + w * d._mass
            for v, m in d._entries.items():
                wm = w * m
                prev = acc.get(v)
                acc[v] = wm if prev is None else prev + wm
    return _subdist(acc, total) if acc else EMPTY
