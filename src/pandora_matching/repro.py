"""Named benchmark instances with closed-form expected quantities.

Each generator returns the instance plus a table of (quantity, computed,
expected) rows where the expected side is a closed form evaluated at the
instance's rational parameters.  ``report`` runs every table and flags any
row where the two sides are not exactly equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algorithms import (
    DecisionRunner,
    DescendingRunner,
    expected_welfare,
    require_within_bound,
)
from .boxes import PandoraBox, weitzman_index
from .distributions import DiscreteDistribution, ZERO
from .instance import EdgeSpec, MatchingInstance, Orientation
from .oracle import optimal_welfare


@dataclass(frozen=True)
class NamedInstance:
    name: str
    params: dict
    instance: MatchingInstance
    table: tuple  # rows of (quantity, compute thunk, expected Fraction)


@dataclass(frozen=True)
class ReportRow:
    instance: str
    quantity: str
    computed: Fraction
    expected: Fraction

    @property
    def match(self) -> bool:
        return self.computed == self.expected


# ---------------------------------------------------------------------------
# Explicit strategies used by the tables
# ---------------------------------------------------------------------------

class _SingleEdgeStrategy(DecisionRunner):
    """A policy on a one-edge instance; ``ij`` and ``ji`` are its two boxes."""

    def __init__(self, inst: MatchingInstance):
        super().__init__(inst)
        (e,) = inst.edges
        self.ij, self.ji = e.directions()


class InspectIFirstStrategy(_SingleEdgeStrategy):
    """Open the i-side box; continue to j and match only on a positive value."""

    def _next(self, opened, blocked):
        if blocked:
            return None
        if self.ij not in opened:
            return "open", self.ij, None
        v = opened[self.ij]
        return ("match", self.ij, v) if v > 0 else None


class InspectJThenIStrategy(_SingleEdgeStrategy):
    """Open j then i unconditionally; match iff the total is positive."""

    def _next(self, opened, blocked):
        if blocked:
            return None
        for d in (self.ji, self.ij):
            if d not in opened:
                return "open", d, None
        total = opened[self.ij] + opened[self.ji]
        return ("match", self.ij, total) if total > 0 else None


class InspectJOnlyStrategy(_SingleEdgeStrategy):
    """Open the j-side box and stop."""

    def _next(self, opened, blocked):
        return None if self.ji in opened else ("open", self.ji, None)


class InspectAllCentersStrategy(DecisionRunner):
    """Star policy: open every center box, complete and match the first hit."""

    def __init__(self, inst: MatchingInstance, center: str, high_value: Fraction):
        super().__init__(inst)
        self.high = Fraction(high_value)
        self.center_pairs = [(center, e.j if e.i == center else e.i) for e in inst.edges]

    def _next(self, opened, blocked):
        if blocked:
            return None
        for d in self.center_pairs:
            if d not in opened:
                return "open", d, None
        for d in self.center_pairs:
            if opened[d] == self.high:
                return "match", d, self.high
        return None


class IterateCopiesStrategy(DecisionRunner):
    """Star policy: probe copies leaf-side first, fall back to the outside edge.

    For each copy in edge order, open the leaf-side box; if it shows the
    zero signal, open the center side; on a joint success match the copy and
    stop.  Without a success, match the outside option.
    """

    def __init__(self, inst: MatchingInstance, center: str, outside: str,
                 success_value: Fraction):
        super().__init__(inst)
        self.outside = (center, outside)
        self.success = Fraction(success_value)
        outside_edge = tuple(sorted(self.outside))
        self.copies = [(e.j if e.i == center else e.i, center) for e in inst.edges
                       if e.id != outside_edge]

    def _next(self, opened, blocked):
        if blocked:
            return None
        for leaf_pair in self.copies:
            if leaf_pair not in opened:
                return "open", leaf_pair, None
            if opened[leaf_pair] != 0:
                continue
            center_pair = (leaf_pair[1], leaf_pair[0])
            if center_pair not in opened:
                return "open", center_pair, None
            if opened[center_pair] == self.success:
                return "match", center_pair, self.success
        if self.outside not in opened:
            return "open", self.outside, None
        return "match", self.outside, opened[self.outside]


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------

def _leaf_name(k: int, n: int) -> str:
    return f"w{k:0{len(str(n))}d}"


def bundled_star(n: int) -> NamedInstance:
    """Star around a hub: hub boxes pay 1/n for an n-or-nothing value, leaf
    boxes pay 1 for a sure 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    hub = "u"
    center_dist = DiscreteDistribution([(Fraction(n), Fraction(1, n)),
                                        (Fraction(0), 1 - Fraction(1, n))]) \
        if n > 1 else DiscreteDistribution.point(Fraction(1))
    edges = []
    for k in range(1, n + 1):
        leaf = _leaf_name(k, n)
        edges.append(EdgeSpec.independent(
            hub, leaf,
            PandoraBox(center_dist, Fraction(1, n)),
            PandoraBox(DiscreteDistribution.point(Fraction(1)), Fraction(1)),
        ))
    inst = MatchingInstance([hub] + [_leaf_name(k, n) for k in range(1, n + 1)], edges)

    bundled_index_expected = 1 - Fraction(1, n)
    policy_expected = (1 - (1 - Fraction(1, n)) ** n) * n - 1
    policy = InspectAllCentersStrategy(inst, hub, Fraction(n))
    table = (
        ("bundled_index", lambda: weitzman_index(inst.edges[0].bundled_box()),
         bundled_index_expected),
        ("inspect_all_centers_welfare",
         lambda: expected_welfare(inst, policy), policy_expected),
    )
    return NamedInstance("bundled-star", {"n": n}, inst, table)


def indistinguishable_edge() -> NamedInstance:
    """Single edge whose endpoints share cost and index but not distribution."""
    box_ij = PandoraBox(DiscreteDistribution([(Fraction(9), Fraction(1, 8)),
                                              (Fraction(-3), Fraction(7, 8))]), 1)
    box_ji = PandoraBox(DiscreteDistribution.point(Fraction(2)), 1)
    inst = MatchingInstance(["i", "j"], [EdgeSpec.independent("i", "j", box_ij, box_ji)])
    table = (
        ("sigma_ij", lambda: weitzman_index(box_ij), Fraction(1)),
        ("sigma_ji", lambda: weitzman_index(box_ji), Fraction(1)),
        ("opt_free", lambda: optimal_welfare(inst).value, Fraction(1, 4)),
        ("inspect_i_first_welfare",
         lambda: expected_welfare(inst, InspectIFirstStrategy(inst)), Fraction(1, 4)),
        ("inspect_j_then_i_welfare",
         lambda: expected_welfare(inst, InspectJThenIStrategy(inst)), Fraction(-5, 8)),
        ("inspect_j_only_welfare",
         lambda: expected_welfare(inst, InspectJOnlyStrategy(inst)), Fraction(-1)),
    )
    return NamedInstance("indistinguishable-edge", {}, inst, table)


def _no_dessert_boxes(alpha: Fraction) -> tuple[PandoraBox, PandoraBox]:
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise ValueError("alpha must be strictly between 0 and 1")
    box_ij = PandoraBox(
        DiscreteDistribution([(a ** -3, a), (Fraction(0), 1 - a)]), 1)
    box_ji = PandoraBox(
        DiscreteDistribution([(Fraction(0), a * a), (1 / a - a ** -3, 1 - a * a)]),
        1 - a)
    return box_ij, box_ji


def no_dessert_edge(alpha) -> NamedInstance:
    """Single edge where the better inspection order flips with the context."""
    a = Fraction(alpha)
    box_ij, box_ji = _no_dessert_boxes(a)
    inst = MatchingInstance(["i", "j"], [EdgeSpec.independent("i", "j", box_ij, box_ji)])
    o_ij = Orientation([("i", "j")])
    o_ji = o_ij.reverse()
    edge = inst.edges[0]

    def desc(o: Orientation) -> Fraction:
        return expected_welfare(inst, DescendingRunner(inst, o))

    table = (
        ("sigma1_ij", lambda: edge.basket(("i", "j")).sigma1, 1 / a - 1),
        ("sigma1_ji", lambda: edge.basket(("j", "i")).sigma1, a ** -2 - 1 / a),
        ("welfare_desc_ij", lambda: desc(o_ij), 1 - a),
        ("welfare_desc_ji", lambda: desc(o_ji), a - a * a),
        ("opt_oriented_ij",
         lambda: optimal_welfare(inst, "oriented", o_ij).value, 1 - a),
        ("opt_oriented_ji",
         lambda: optimal_welfare(inst, "oriented", o_ji).value, a - a * a),
        ("expected_positive_capped_ij",
         lambda: edge.basket(("i", "j")).kappa1_law.expected_positive_part(),
         1 - a),
        ("expected_positive_capped_ji",
         lambda: edge.basket(("j", "i")).kappa1_law.expected_positive_part(),
         a - a * a),
    )
    return NamedInstance("no-dessert-edge", {"alpha": a}, inst, table)


def no_dessert_star(alpha, m: int = 2) -> NamedInstance:
    """The edge above, copied m times around a hub with a sure outside option."""
    a = Fraction(alpha)
    if m < 0:
        raise ValueError("need m >= 0")
    box_ij, box_ji = _no_dessert_boxes(a)
    edges = []
    for t in range(1, m + 1):
        edges.append(EdgeSpec.independent("i", f"j{t:0{len(str(max(m, 1)))}d}",
                                          box_ij, box_ji))
    edges.append(EdgeSpec.independent(
        "i", "k",
        PandoraBox(DiscreteDistribution.point(1 / a), 0),
        PandoraBox(DiscreteDistribution.point(Fraction(0)), 0),
    ))
    vertices = ["i", "k"] + [e.j for e in edges if e.j != "k"]
    inst = MatchingInstance(vertices, edges)

    gain = a - 2 * a * a
    q = (1 - a ** 3) ** m
    iterate_expected = 1 / a + gain * sum(((1 - a ** 3) ** t for t in range(m)), ZERO)
    all_ji_expected = (1 / a) * q + max(a ** -2 - 1 / a, 1 / a) * (1 - q)

    def single_copy_gain() -> Fraction:
        star1 = no_dessert_star(a, 1).instance
        pol = IterateCopiesStrategy(star1, "i", "k", a ** -3)
        return expected_welfare(star1, pol) - 1 / a

    def iterate_welfare() -> Fraction:
        pol = IterateCopiesStrategy(inst, "i", "k", a ** -3)
        return expected_welfare(inst, pol)

    def desc_all(reverse_copies: bool) -> Fraction:
        pairs = []
        for e in inst.edges:
            if e.id == ("i", "k") or not reverse_copies:
                pairs.append((e.i, e.j))
            else:
                pairs.append((e.j, e.i))
        o = Orientation(pairs)
        return expected_welfare(inst, DescendingRunner(inst, o))

    table = (
        ("per_copy_gain", single_copy_gain, gain),
        ("iterate_copies_welfare", iterate_welfare, iterate_expected),
        ("desc_all_ji_welfare", lambda: desc_all(True), all_ji_expected),
        ("desc_all_ij_welfare", lambda: desc_all(False), 1 / a),
    )
    return NamedInstance("no-dessert-star", {"alpha": a, "m": m}, inst, table)


ALL_NAMES = ("bundled-star", "indistinguishable-edge", "no-dessert-edge", "no-dessert-star")


def build(name: str, alpha=Fraction(1, 4), n: int = 4, m: int = 2) -> NamedInstance:
    if name == "bundled-star":
        return bundled_star(n)
    if name == "indistinguishable-edge":
        return indistinguishable_edge()
    if name == "no-dessert-edge":
        return no_dessert_edge(alpha)
    if name == "no-dessert-star":
        return no_dessert_star(alpha, m)
    raise ValueError(f"unknown instance {name!r}; choose from {ALL_NAMES}")


def report(only: str | None = None, alpha=Fraction(1, 4), n: int = 4,
           m: int = 2) -> list[ReportRow]:
    """Evaluate every table row of the selected named instances."""
    names = [only] if only else list(ALL_NAMES)
    rows = []
    for name in names:
        # The exact rows enumerate 2^n and 4^m realizations; a size above the
        # bound is refused before its star is built.  A count past 2^(2^20) is
        # passed as that lower bound, still above any bound an int() of
        # PANDORA_ENUM_BOUND can give (at most 4,300 digits).
        exponent = {"bundled-star": n if n > 1 else 0, "no-dessert-star": 2 * max(m, 0)}
        require_within_bound(1 << min(exponent.get(name, 0), 1 << 20))
        named = build(name, alpha=alpha, n=n, m=m)
        for quantity, compute, expected in named.table:
            rows.append(ReportRow(named.name, quantity, compute(), Fraction(expected)))
    return rows
