"""Finite discrete distributions over exact rational values.

The canonical form merges atoms with equal values and keeps the support
sorted, so two distributions are equal iff they describe the same law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple

from .rationals import as_fraction, common_sum, exact_sum, format_rational, parse_rational

ONE = Fraction(1)
ZERO = Fraction(0)


class DistributionError(ValueError):
    """Raised on malformed atom lists (bad probabilities, empty support)."""


class DiscreteDistribution:
    """Immutable finite distribution with rational values and probabilities.

    Atoms are (value, prob) pairs; probabilities are strictly positive and
    sum to exactly 1.  Equal values are merged on construction.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Tuple[Fraction, Fraction]]):
        # Equal values are merged under their (numerator, denominator) key,
        # which is cheaper to hash than the Fraction and unique because
        # Fractions are kept in lowest terms.
        merged: dict[tuple[int, int], list] = {}
        for value, prob in atoms:
            value = as_fraction(value)
            prob = as_fraction(prob)
            if prob.numerator <= 0:
                raise DistributionError(f"probability must be positive, got {prob}")
            key = (value.numerator, value.denominator)
            slot = merged.get(key)
            if slot is None:
                merged[key] = [value, prob]
            else:
                slot[1] += prob
        if not merged:
            raise DistributionError("distribution needs at least one atom")
        num, den = common_sum([p for _, p in merged.values()])
        if num != den:
            raise DistributionError(
                f"probabilities sum to {Fraction(num, den)}, expected 1")
        # Sort on integer numerators over the values' common denominator.
        scale = math.lcm(*[d for _, d in merged])
        rows = sorted([(n * (scale // d), slot) for (n, d), slot in merged.items()])
        object.__setattr__(self, "atoms", tuple((v, p) for _, (v, p) in rows))

    @classmethod
    def _from_sorted(cls, atoms: tuple) -> "DiscreteDistribution":
        """Wrap atoms already merged, sorted and summing to 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "atoms", atoms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def point(cls, value) -> "DiscreteDistribution":
        return cls._from_sorted(((as_fraction(value), ONE),))

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

    def capped(self, t) -> "DiscreteDistribution":
        """Law of min(v, t): the atoms at or above t merge into one atom at t."""
        t = as_fraction(t)
        atoms = self.atoms
        k = len(atoms)
        while k and atoms[k - 1][0] >= t:
            k -= 1
        if k == len(atoms):
            return self
        return self._from_sorted(atoms[:k] + ((t, exact_sum([p for _, p in atoms[k:]])),))

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

