"""Finite discrete distributions over exact rational values.

The canonical form merges atoms with equal values and keeps the support
sorted, so two distributions are equal iff they describe the same law.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

from .rationals import format_rational, parse_rational

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
        merged: dict[Fraction, Fraction] = {}
        for value, prob in atoms:
            value = Fraction(value)
            prob = Fraction(prob)
            if prob <= 0:
                raise DistributionError(f"probability must be positive, got {prob}")
            merged[value] = merged.get(value, ZERO) + prob
        if not merged:
            raise DistributionError("distribution needs at least one atom")
        total = sum(merged.values())
        if total != 1:
            raise DistributionError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def point(cls, value) -> "DiscreteDistribution":
        return cls([(Fraction(value), ONE)])

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

    def map_values(self, fn) -> "DiscreteDistribution":
        """Pushforward under a value transformation (atoms re-merged)."""
        return DiscreteDistribution((fn(v), p) for v, p in self.atoms)

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

