"""Single-stage Pandora boxes and their Weitzman index.

A box is a (distribution, cost) pair.  Its Weitzman index is the threshold
at which the expected surplus of the value above the threshold equals the
inspection cost; the capped value of an outcome is min(value, index).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .distributions import DiscreteDistribution
from .rationals import as_fraction, format_rational, json_object, parse_rational


class PandoraBox(namedtuple("PandoraBox", "dist cost")):
    """A value distribution plus the nonnegative cost to observe a draw."""

    __slots__ = ()

    def __new__(cls, dist: DiscreteDistribution, cost) -> "PandoraBox":
        cost = as_fraction(cost)
        if cost.numerator < 0:
            raise ValueError(f"inspection cost must be >= 0, got {cost}")
        return tuple.__new__(cls, (dist, cost))

    def to_json_obj(self) -> dict:
        return {"dist": self.dist.to_json_obj(), "cost": format_rational(self.cost)}

    @classmethod
    def from_json_obj(cls, obj) -> "PandoraBox":
        obj = json_object(obj)
        return cls(DiscreteDistribution.from_json_obj(obj["dist"]), parse_rational(obj["cost"]))


def weitzman_index(box: PandoraBox) -> Fraction:
    """Threshold t with surplus(dist, t) == cost, solved exactly.

    For cost == 0 the solution set is [max support, infinity); the smallest
    solution (max support) is returned.
    """
    return index_of_weights(*box.dist, box.cost)


def index_of_weights(values, weights, total: int, cost: Fraction) -> Fraction:
    """The index of the law {values[k]: weights[k] / total}: the t with
    sum of (v - t)+ * w == cost * total, for values sorted ascending, int
    weights summing to ``total`` and cost >= 0.

    The surplus is piecewise linear with kinks at the values, so the support
    is scanned top-down and the linear piece that brackets the cost is
    inverted, in integers: values and cost are scaled by their common
    denominator vden.
    """
    if cost.numerator == 0:
        return values[-1]
    vden = math.lcm(cost.denominator, *[v.denominator for v in values])
    c = cost.numerator * (vden // cost.denominator) * total
    scaled = [v.numerator * (vden // v.denominator) for v in values]
    head_weight = 0  # sum of the weights above the piece
    head_mass = 0    # sum of value * weight over those atoms, times vden
    for k in range(len(values) - 1, -1, -1):
        head_weight += weights[k]
        head_mass += scaled[k] * weights[k]
        # On the piece below this atom, surplus(t) * total = head_mass / vden
        # - t * head_weight, so t = (head_mass - c) / (vden * head_weight); it
        # is the solution if it lies at or above the next atom down.
        if k == 0 or head_mass - c >= scaled[k - 1] * head_weight:
            return Fraction(head_mass - c, vden * head_weight)
    raise AssertionError("unreachable: surplus is unbounded below")
