"""Single-stage Pandora boxes and their Weitzman index.

A box is a (distribution, cost) pair.  Its Weitzman index is the threshold
at which the expected surplus of the value above the threshold equals the
inspection cost; the capped value of an outcome is min(value, index).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import DiscreteDistribution, ZERO
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class PandoraBox:
    """A value distribution plus the nonnegative cost to observe a draw."""

    dist: DiscreteDistribution
    cost: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cost", Fraction(self.cost))
        if self.cost < 0:
            raise ValueError(f"inspection cost must be >= 0, got {self.cost}")

    def to_json_obj(self) -> dict:
        return {"dist": self.dist.to_json_obj(), "cost": format_rational(self.cost)}

    @classmethod
    def from_json_obj(cls, obj) -> "PandoraBox":
        return cls(DiscreteDistribution.from_json_obj(obj["dist"]), parse_rational(obj["cost"]))


def weitzman_index(box: PandoraBox) -> Fraction:
    """Threshold t with surplus(dist, t) == cost, solved exactly.

    The surplus is piecewise linear with kinks at the support values, so the
    solution is found by scanning the support top-down and inverting the
    linear piece that brackets the cost.  For cost == 0 the solution set is
    [max support, infinity); the smallest solution (max support) is returned.
    """
    atoms_desc = tuple(reversed(box.dist.atoms))
    if box.cost == 0:
        return atoms_desc[0][0]
    head_prob = ZERO
    head_mass = ZERO  # sum of value * prob over the atoms above the piece
    n = len(atoms_desc)
    for k, (value, prob) in enumerate(atoms_desc):
        head_prob += prob
        head_mass += value * prob
        # On the piece below this atom, surplus(t) = head_mass - t * head_prob.
        t = (head_mass - box.cost) / head_prob
        if k + 1 == n or t >= atoms_desc[k + 1][0]:
            return t
    raise AssertionError("unreachable: surplus is unbounded below")
