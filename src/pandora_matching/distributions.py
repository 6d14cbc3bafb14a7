"""Finite discrete distributions over exact rational values.

A law is held as (values, weights, total): distinct values ascending, with
positive int weights summing to ``total``, all in lowest terms.  That form
is canonical, so two distributions are equal iff they describe the same law.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Tuple

from .rationals import as_fraction, format_rational, parse_ratio, parse_rational

ZERO = Fraction(0)


class DistributionError(ValueError):
    """Raised on malformed atom lists (bad probabilities, empty support)."""


class DiscreteDistribution(namedtuple("DiscreteDistribution", "values weights total")):
    """Immutable finite distribution: value ``values[k]`` has probability
    ``weights[k] / total``.

    ``DiscreteDistribution(atoms)`` reads (value, probability) pairs, which
    must be strictly positive and sum to exactly 1; equal values merge.
    """

    __slots__ = ()

    def __new__(cls, atoms: Iterable[Tuple[Fraction, Fraction]]):
        pairs = [(as_fraction(value), as_fraction(prob)) for value, prob in atoms]
        return cls._from_ratios([(v, p.numerator, p.denominator) for v, p in pairs])

    @classmethod
    def _from_ratios(cls, rows: list) -> "DiscreteDistribution":
        """The law of (value, numerator, denominator > 0) rows, each a
        probability not necessarily in lowest terms, checked."""
        for _, num, den in rows:
            if num <= 0:
                raise DistributionError(
                    f"probability must be positive, got {Fraction(num, den)}")
        if not rows:
            raise DistributionError("distribution needs at least one atom")
        total = math.lcm(*[den for _, _, den in rows])
        values = tuple([value for value, _, _ in rows])
        weights = tuple([num * (total // den) for _, num, den in rows])
        if sum(weights) != total:
            raise DistributionError(
                f"probabilities sum to {Fraction(sum(weights), total)}, expected 1")
        if any(a >= b for a, b in zip(values, values[1:])):
            return cls.merged(zip(values, weights), total)
        return cls.of(values, weights, total)

    @classmethod
    def of(cls, values: tuple, weights: tuple, total: int) -> "DiscreteDistribution":
        """{values[k]: weights[k] / total} for distinct values ascending and
        positive int weights summing to ``total``.  The weights and total are
        divided by their gcd, so one law has one form; nothing else is checked."""
        g = math.gcd(total, *weights)
        if g > 1:
            weights = tuple([w // g for w in weights])
            total //= g
        return tuple.__new__(cls, (values, weights, total))

    @classmethod
    def merged(cls, pairs, total: int) -> "DiscreteDistribution":
        """``of`` the (Fraction value, int weight) pairs over ``total``, equal values
        merged by adding their weights, sorted by value.  Values merge under their
        (numerator, denominator) key, cheaper to hash than the Fraction and unique in
        lowest terms, and sort on integer numerators over their common denominator."""
        merged: dict[tuple[int, int], list] = {}
        for value, weight in pairs:
            merged.setdefault((value.numerator, value.denominator), [value, 0])[1] += weight
        scale = math.lcm(*[d for _, d in merged])
        values, weights = zip(*[slot for _, slot in sorted([(n * (scale // d), slot)
                                                            for (n, d), slot in merged.items()])])
        return cls.of(values, weights, total)

    @classmethod
    def point(cls, value) -> "DiscreteDistribution":
        return cls.of((as_fraction(value),), (1,), 1)

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(value, probability) pairs, values ascending, built on read."""
        return tuple([(v, Fraction(w, self.total)) for v, w in zip(self.values, self.weights)])

    def min_value(self) -> Fraction:
        return self.values[0]

    def expectation(self) -> Fraction:
        """Mean of the distribution, exact."""
        return sum([v * w for v, w in zip(self.values, self.weights)], ZERO) / self.total

    def surplus(self, threshold) -> Fraction:
        """Expected positive part above a threshold: sum of (v - t)+ * p.

        Piecewise linear, convex, and non-increasing in the threshold.
        """
        t = Fraction(threshold)
        return sum([(v - t) * w for v, w in zip(self.values, self.weights) if v > t],
                   ZERO) / self.total

    def expected_positive_part(self) -> Fraction:
        return self.surplus(ZERO)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{format_rational(v)}: {format_rational(p)}" for v, p in self.atoms
        )
        return f"DiscreteDistribution({{{body}}})"

    def to_json_obj(self) -> list:
        return [{"v": format_rational(v), "p": format_rational(p)} for v, p in self.atoms]

    @classmethod
    def from_json_obj(cls, obj) -> "DiscreteDistribution":
        if not isinstance(obj, list):
            raise DistributionError("distribution JSON must be a list of atoms")
        rows = []
        for entry in obj:
            try:
                rows.append((parse_rational(entry["v"]), *parse_ratio(entry["p"])))
            except (KeyError, TypeError) as exc:
                raise DistributionError(f"bad atom {entry!r}") from exc
        return cls._from_ratios(rows)
