"""Exact dyadic probabilities and finite sub-distributions over values.

All masses are dyadic rationals num/2^exp kept in a unique normal form,
so every distribution identity the engines assert is checked exactly,
never with float tolerances.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .syntax import Term, is_value, parse, print_term


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


@dataclass(frozen=True)
class Dyadic:
    """Nonnegative rational num / 2**exp in lowest terms."""

    num: int
    exp: int = 0

    def __post_init__(self):
        num, exp = self.num, self.exp
        if num < 0 or exp < 0:
            raise ValueError(f"not a nonnegative dyadic: {num}/2^{exp}")
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0 and exp > 0:
                num //= 2
                exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    # -- arithmetic --

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        n = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        if n < 0:
            raise ValueError(f"negative result: {self} - {other}")
        return Dyadic(n, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def _shifted(self, e: int) -> int:
        return self.num << (e - self.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        e = max(self.exp, other.exp)
        return self._shifted(e) < other._shifted(e)

    def __le__(self, other: "Dyadic") -> bool:
        e = max(self.exp, other.exp)
        return self._shifted(e) <= other._shifted(e)

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

    def __bool__(self) -> bool:
        return self.num != 0

    # -- conversions --

    @classmethod
    def from_fraction(cls, f) -> "Dyadic":
        f = Fraction(f)
        d = f.denominator
        if d & (d - 1):
            raise ValueError(f"denominator of {f} is not a power of two")
        return cls(f.numerator, d.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        num = str(Decimal(self.num))  # str(int) also stops at 4300 digits
        return num if self.exp == 0 else f"{num}/2^{self.exp}"

    def to_json(self) -> dict:
        # decimal string keeps arbitrary precision JSON-safe
        return {"num": str(Decimal(self.num)), "exp": self.exp}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Dyadic":
        return cls(_integer(obj["num"]), int(obj["exp"]))

    def digits(self, n: int) -> str:
        """First n binary digits of a value in [0, 1].

        Digits are the truncated binary expansion; the value 1 is emitted
        as all ones by convention.
        """
        if self > ONE:
            raise ValueError(f"{self} > 1 has no digit expansion")
        if self == ONE:
            return "1" * n
        return "".join(
            str(((self.num << k) >> self.exp) & 1) for k in range(1, n + 1)
        )


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
            raise MassError(f"total mass {total} exceeds 1")
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


def from_value(v: Term) -> SubDist:
    return SubDist(((v, ONE),))


def combine(parts: Iterable[tuple[Dyadic, SubDist]]) -> SubDist:
    """Weighted sum of sub-distributions; fails if mass would exceed 1."""
    acc: dict[Term, Dyadic] = {}
    for w, d in parts:
        if w:
            for v, m in d.items():
                wm = w * m
                prev = acc.get(v)
                acc[v] = wm if prev is None else prev + wm
    return SubDist(acc)
