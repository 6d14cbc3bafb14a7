"""Finite discrete distributions over exact rational values.

The canonical form merges atoms with equal values and keeps the support
sorted, so two distributions are equal iff they describe the same law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple

from .rationals import as_fraction, format_rational, parse_rational, scaled

ONE = Fraction(1)
ZERO = Fraction(0)


class DistributionError(ValueError):
    """Raised on malformed atom lists (bad probabilities, empty support)."""


def merge_sorted(pairs) -> list:
    """[value, amount] rows of (Fraction value, amount) pairs, equal values
    merged by adding their amounts, sorted by value.

    Values merge under their (numerator, denominator) key, cheaper to hash
    than the Fraction and unique in lowest terms, and sort on integer
    numerators over their common denominator.
    """
    merged: dict[tuple[int, int], list] = {}
    for value, amount in pairs:
        key = (value.numerator, value.denominator)
        slot = merged.get(key)
        if slot is None:
            merged[key] = [value, amount]
        else:
            slot[1] += amount
    scale = math.lcm(*[d for _, d in merged])
    return [slot for _, slot in sorted([(n * (scale // d), slot)
                                        for (n, d), slot in merged.items()])]


class DiscreteDistribution:
    """Immutable finite distribution with rational values and probabilities.

    Atoms are (value, prob) pairs; probabilities are strictly positive and
    sum to exactly 1.  Equal values are merged on construction.  The same
    probabilities, as int ``weights`` over one int ``total`` in lowest
    terms, are kept for integer readers.
    """

    __slots__ = ("atoms", "weights", "total")

    def __init__(self, atoms: Iterable[Tuple[Fraction, Fraction]]):
        pairs = []
        for value, prob in atoms:
            value = as_fraction(value)
            prob = as_fraction(prob)
            if prob.numerator <= 0:
                raise DistributionError(f"probability must be positive, got {prob}")
            pairs.append((value, prob))
        if not pairs:
            raise DistributionError("distribution needs at least one atom")
        rows = merge_sorted(pairs)
        total = math.lcm(*[p.denominator for _, p in rows])
        weights = tuple([scaled(p, total) for _, p in rows])
        if sum(weights) != total:
            raise DistributionError(
                f"probabilities sum to {Fraction(sum(weights), total)}, expected 1")
        object.__setattr__(self, "atoms", tuple([(v, p) for v, p in rows]))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", total)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def from_weights(cls, values, weights, total: int) -> "DiscreteDistribution":
        """{values[k]: weights[k] / total}, for distinct values sorted ascending
        and positive int weights summing to ``total``; nothing is checked."""
        g = math.gcd(total, *weights)
        self = object.__new__(cls)
        object.__setattr__(self, "atoms", tuple([(v, Fraction(w, total))
                                                 for v, w in zip(values, weights)]))
        object.__setattr__(self, "weights", tuple([w // g for w in weights]))
        object.__setattr__(self, "total", total // g)
        return self

    @classmethod
    def point(cls, value) -> "DiscreteDistribution":
        return cls.from_weights((as_fraction(value),), (1,), 1)

    def min_value(self) -> Fraction:
        return self.atoms[0][0]

    def expectation(self) -> Fraction:
        """Mean of the distribution, exact."""
        return sum((v * p for v, p in self.atoms), ZERO)

    def surplus(self, threshold) -> Fraction:
        """Expected positive part above a threshold: sum of (v - t)+ * p.

        Piecewise linear, convex, and non-increasing in the threshold.
        """
        t = Fraction(threshold)
        return sum(((v - t) * p for v, p in self.atoms if v > t), ZERO)

    def expected_positive_part(self) -> Fraction:
        return self.surplus(ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

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
        atoms = []
        for entry in obj:
            try:
                atoms.append((parse_rational(entry["v"]), parse_rational(entry["p"])))
            except (KeyError, TypeError) as exc:
                raise DistributionError(f"bad atom {entry!r}") from exc
        return cls(atoms)

