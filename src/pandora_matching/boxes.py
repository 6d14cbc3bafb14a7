"""Single-stage Pandora boxes and their Weitzman index.

A box is a (distribution, cost) pair.  Its Weitzman index is the threshold
at which the expected surplus of the value above the threshold equals the
inspection cost; the capped value of an outcome is min(value, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distributions import DiscreteDistribution
from .rationals import as_fraction, format_rational, json_object, parse_rational


@dataclass(frozen=True)
class PandoraBox:
    """A value distribution plus the nonnegative cost to observe a draw."""

    dist: DiscreteDistribution
    cost: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cost", as_fraction(self.cost))
        if self.cost.numerator < 0:
            raise ValueError(f"inspection cost must be >= 0, got {self.cost}")

    def to_json_obj(self) -> dict:
        return {"dist": self.dist.to_json_obj(), "cost": format_rational(self.cost)}

    @classmethod
    def from_json_obj(cls, obj) -> "PandoraBox":
        obj = json_object(obj)
        return cls(DiscreteDistribution.from_json_obj(obj["dist"]), parse_rational(obj["cost"]))


def weitzman_index(box: PandoraBox) -> Fraction:
    """Threshold t with surplus(dist, t) == cost, solved exactly.

    The surplus is piecewise linear with kinks at the support values, so the
    solution is found by scanning the support top-down and inverting the
    linear piece that brackets the cost.  For cost == 0 the solution set is
    [max support, infinity); the smallest solution (max support) is returned.
    """
    atoms = box.dist.atoms
    cost = box.cost
    if cost.numerator == 0:
        return atoms[-1][0]
    # Exact integer arithmetic: values are scaled by their common denominator
    # vden (shared with the cost), probabilities by theirs, pden, and the
    # cost by both.
    vden = math.lcm(cost.denominator, *(v.denominator for v, _ in atoms))
    pden = math.lcm(*(p.denominator for _, p in atoms))
    c = cost.numerator * (vden // cost.denominator) * pden
    head_prob = 0  # sum of the atoms' probabilities above the piece, times pden
    head_mass = 0  # sum of value * prob over those atoms, times vden * pden
    values = [v.numerator * (vden // v.denominator) for v, _ in atoms]
    for k in range(len(atoms) - 1, -1, -1):
        p = atoms[k][1]
        w = p.numerator * (pden // p.denominator)
        head_prob += w
        head_mass += values[k] * w
        # On the piece below this atom, surplus(t) = head_mass - t * head_prob,
        # so t = (head_mass - c) / (vden * head_prob); it is the solution if
        # it lies at or above the next atom down.
        if k == 0 or head_mass - c >= values[k - 1] * head_prob:
            return Fraction(head_mass - c, vden * head_prob)
    raise AssertionError("unreachable: surplus is unbounded below")
