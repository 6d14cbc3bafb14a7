"""Matching instances: graphs with a pair of Pandora boxes per edge.

Edges come in two forms.  Independent edges carry one box per endpoint and
the edge's total value is the sum of the two draws.  Joint edges carry a
joint law over (signal_i, signal_j, total) pairs, which covers arbitrary
correlation of the two endpoint observations within an edge.  Independent
edges are compiled to the joint outcome table, so downstream code has one
representation; the endpoint values are kept alongside for the algorithms
that need them separately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from .boxes import PandoraBox
from .distributions import DiscreteDistribution
from .nested import AnnotatedBasket, OutcomeNode, PathInfo
from .rationals import (
    as_fraction,
    common_sum,
    format_rational,
    json_object,
    parse_rational,
    scaled,
)

EdgeId = tuple[str, str]
DirectedPair = tuple[str, str]


class InstanceError(ValueError):
    """Raised on malformed instances, edges, or orientations."""


class JointOutcome(NamedTuple):
    """One atom of an edge's joint law.

    v_i and v_j are the separate endpoint values when the edge was given in
    independent form, else None.
    """

    label_i: str
    label_j: str
    total: Fraction
    prob: Fraction
    v_i: Fraction | None = None
    v_j: Fraction | None = None


@dataclass(frozen=True)
class DirectionTable:
    """An edge's joint law in one inspection order.

    first: (first signal, marginal probability) per first signal, sorted.
    second: first signal -> (second signal, conditional probability, outcome
    index) per second signal, sorted.
    """

    first: tuple[tuple[str, Fraction], ...]
    second: dict[str, tuple[tuple[str, Fraction, int], ...]]


@dataclass(frozen=True)
class EdgeBasket:
    """An edge compiled for one direction (or bundled), as runners read it.

    opened: the directed pairs inspected, indexed by the stages opened.
    path_of (built on first use): outcome index -> realized path through
    the basket; ``path_labels`` gives each outcome's branch labels.
    """

    basket: AnnotatedBasket
    opened: tuple[tuple[DirectedPair, ...], ...]
    path_labels: Callable[[JointOutcome], tuple[str, ...]]
    outcomes: tuple[JointOutcome, ...]

    @functools.cached_property
    def path_of(self) -> dict[int, PathInfo]:
        return {k: self.basket.by_labels[self.path_labels(o)]
                for k, o in enumerate(self.outcomes)}


class EdgeSpec:
    """An undirected edge with its two inspection costs and outcome law.

    Endpoints are stored sorted (i < j).  Direction (u, v) means endpoint u
    is inspected first; cost(u, v) is the cost of that first inspection.
    The per-direction tables and compiled baskets are built on first use.
    """

    def __init__(self, i: str, j: str, cost_ij, cost_ji,
                 outcomes: Iterable[JointOutcome],
                 box_ij: PandoraBox | None = None,
                 box_ji: PandoraBox | None = None):
        if i == j:
            raise InstanceError(f"self-loop at vertex {i!r}")
        if not i < j:
            raise InstanceError("endpoints must be passed in sorted order")
        self.i = i
        self.j = j
        self.cost_ij = as_fraction(cost_ij)
        self.cost_ji = as_fraction(cost_ji)
        self.box_ij = box_ij
        self.box_ji = box_ji
        self.outcomes = tuple(sorted(outcomes, key=lambda o: (o.label_i, o.label_j)))
        if self.cost_ij.numerator < 0 or self.cost_ji.numerator < 0:
            raise InstanceError(f"edge {self.id}: costs must be >= 0")
        if not self.outcomes:
            raise InstanceError(f"edge {self.id}: empty outcome table")
        seen = set()
        for o in self.outcomes:
            if o.prob.numerator <= 0:
                raise InstanceError(f"edge {self.id}: outcome probability {o.prob} not positive")
            key = (o.label_i, o.label_j)
            if key in seen:
                raise InstanceError(f"edge {self.id}: duplicate signal pair {key}")
            seen.add(key)
        num, den = common_sum([o.prob for o in self.outcomes])
        if num != den:
            raise InstanceError(
                f"edge {self.id}: outcome probabilities sum to {Fraction(num, den)}")
        self._tables: dict[DirectedPair, DirectionTable] = {}
        self._baskets: dict = {}

    @property
    def id(self) -> EdgeId:
        return (self.i, self.j)

    @property
    def is_independent(self) -> bool:
        return self.box_ij is not None

    @classmethod
    def independent(cls, i: str, j: str, box_ij: PandoraBox, box_ji: PandoraBox) -> "EdgeSpec":
        """Build the joint table as the product of the two endpoint laws."""
        if not i < j:
            i, j = j, i
            box_ij, box_ji = box_ji, box_ij
        outcomes = []
        for vi, pi in box_ij.dist.atoms:
            for vj, pj in box_ji.dist.atoms:
                outcomes.append(JointOutcome(
                    format_rational(vi), format_rational(vj),
                    vi + vj, pi * pj, vi, vj,
                ))
        return cls(i, j, box_ij.cost, box_ji.cost, outcomes, box_ij, box_ji)

    @classmethod
    def joint(cls, i: str, j: str, cost_ij, cost_ji,
              rows: Iterable[tuple[str, str, Fraction, Fraction]]) -> "EdgeSpec":
        if not i < j:
            i, j = j, i
            cost_ij, cost_ji = cost_ji, cost_ij
            rows = [(lj, li, t, p) for li, lj, t, p in rows]
        outcomes = [JointOutcome(str(li), str(lj), as_fraction(t), as_fraction(p))
                    for li, lj, t, p in rows]
        return cls(i, j, cost_ij, cost_ji, outcomes)

    def endpoints(self) -> tuple[str, str]:
        return self.i, self.j

    def directions(self) -> tuple[DirectedPair, DirectedPair]:
        return (self.i, self.j), (self.j, self.i)

    def cost(self, direction: DirectedPair) -> Fraction:
        if direction == (self.i, self.j):
            return self.cost_ij
        if direction == (self.j, self.i):
            return self.cost_ji
        raise InstanceError(f"{direction} is not a direction of edge {self.id}")

    def box(self, direction: DirectedPair) -> PandoraBox:
        if not self.is_independent:
            raise InstanceError(
                f"edge {self.id} is in joint form; endpoint boxes are undefined"
            )
        if direction == (self.i, self.j):
            return self.box_ij
        if direction == (self.j, self.i):
            return self.box_ji
        raise InstanceError(f"{direction} is not a direction of edge {self.id}")

    def table(self, direction: DirectedPair) -> DirectionTable:
        """The joint law grouped by the signal inspected first."""
        if direction not in self._tables:
            self.cost(direction)  # direction check
            forward = direction == (self.i, self.j)
            # int weights over one denominator: a conditional is Fraction(w, mass)
            den = math.lcm(*[o.prob.denominator for o in self.outcomes])
            groups: dict[str, list] = {}
            for k, o in enumerate(self.outcomes):
                first, second = (o.label_i, o.label_j) if forward else (o.label_j, o.label_i)
                groups.setdefault(first, []).append(
                    (second, o.prob.numerator * (den // o.prob.denominator), k))
            first_law = []
            second_laws = {}
            for label in sorted(groups):
                rows = sorted(groups[label])
                mass = sum([w for _, w, _ in rows])
                first_law.append((label, Fraction(mass, den)))
                second_laws[label] = tuple([(s, Fraction(w, mass), k) for s, w, k in rows])
            self._tables[direction] = DirectionTable(tuple(first_law), second_laws)
        return self._tables[direction]

    def basket(self, direction: DirectedPair | None = None) -> EdgeBasket:
        """The edge compiled for a direction, built once per direction.

        A direction gives the oriented two-stage basket, None the bundled
        one-stage basket.  Every caller gets the same objects; none may
        mutate them.
        """
        if direction not in self._baskets:
            self._baskets[direction] = (bundled_basket(self) if direction is None
                                        else oriented_basket(self, direction))
        return self._baskets[direction]

    def bundled_box(self) -> PandoraBox:
        """Both inspections merged into one box over the edge total."""
        return PandoraBox(DiscreteDistribution((o.total, o.prob) for o in self.outcomes),
                          self.cost_ij + self.cost_ji)

    def to_json_obj(self) -> dict:
        if self.is_independent:
            return {"i": self.i, "j": self.j,
                    "box_ij": self.box_ij.to_json_obj(),
                    "box_ji": self.box_ji.to_json_obj()}
        return {"i": self.i, "j": self.j,
                "c_ij": format_rational(self.cost_ij),
                "c_ji": format_rational(self.cost_ji),
                "joint": [{"si": o.label_i, "sj": o.label_j,
                           "total": format_rational(o.total),
                           "p": format_rational(o.prob)} for o in self.outcomes]}

    @classmethod
    def from_json_obj(cls, obj) -> "EdgeSpec":
        obj = json_object(obj)
        i, j = str(obj["i"]), str(obj["j"])
        if "joint" in obj:
            rows = [(r["si"], r["sj"], parse_rational(r["total"]), parse_rational(r["p"]))
                    for r in map(json_object, obj["joint"])]
            return cls.joint(i, j, parse_rational(obj["c_ij"]), parse_rational(obj["c_ji"]), rows)
        return cls.independent(i, j,
                               PandoraBox.from_json_obj(obj["box_ij"]),
                               PandoraBox.from_json_obj(obj["box_ji"]))


def edge_to_basket(edge: EdgeSpec, direction: DirectedPair) -> OutcomeNode:
    """Compile an oriented edge into a two-stage outcome tree.

    Stage 1 costs cost(direction) and reveals the first endpoint's signal;
    stage 2 costs the reverse cost and reveals the edge total.
    """
    table = edge.table(direction)
    reverse_cost = edge.cost((direction[1], direction[0]))
    branches = tuple([
        (label, marginal, OutcomeNode(cost=reverse_cost, branches=tuple([
            (second, p, OutcomeNode(edge.outcomes[k].total))
            for second, p, k in table.second[label]
        ])))
        for label, marginal in table.first
    ])
    return OutcomeNode(cost=edge.cost(direction), branches=branches)


def oriented_basket(edge: EdgeSpec, direction: DirectedPair) -> EdgeBasket:
    """Two-stage basket for a direction: first endpoint, then both."""
    forward = direction == (edge.i, edge.j)
    labels = attrgetter("label_i", "label_j") if forward else attrgetter("label_j", "label_i")
    return EdgeBasket(AnnotatedBasket(edge_to_basket(edge, direction)),
                      ((), (direction,), edge.directions()), labels, edge.outcomes)


def scaled_paths(inst: MatchingInstance, baskets: dict) -> tuple[int, dict]:
    """(Q, key -> each outcome's realized path times Q): with Q the lcm of every
    denominator a run or its checks read, all their numbers are ints times Q."""
    tables = {key: c.path_of.values() for key, c in baskets.items()}
    q = math.lcm(inst.denominator, *(s.denominator for paths in tables.values()
                                     for p in paths for s in p.sigmas))
    return q, {key: [p.scaled(q) for p in paths] for key, paths in tables.items()}


def bundled_basket(edge: EdgeSpec) -> EdgeBasket:
    """Single-stage basket over the edge total (both costs paid at once)."""
    box = edge.bundled_box()
    branches = [(format_rational(v), p, OutcomeNode.leaf(v)) for v, p in box.dist.atoms]
    return EdgeBasket(AnnotatedBasket(OutcomeNode.stage(box.cost, branches)),
                      ((), edge.directions()), lambda o: (format_rational(o.total),),
                      edge.outcomes)


class MatchingInstance:
    """A graph with an EdgeSpec per edge.  Not required to be bipartite."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[EdgeSpec]):
        self.vertices = tuple(sorted(set(str(v) for v in vertices)))
        self.edges = tuple(sorted(edges, key=lambda e: e.id))
        vset = set(self.vertices)
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise InstanceError(f"duplicate edge {e.id}")
            seen.add(e.id)
            if e.i not in vset or e.j not in vset:
                raise InstanceError(f"edge {e.id} uses a vertex not in the vertex set")
        self._by_id = {e.id: e for e in self.edges}
        self._scaled: dict[int, tuple[dict, dict]] = {}

    def edge(self, edge_id: EdgeId) -> EdgeSpec:
        return self._by_id[edge_id]

    @property
    def edge_ids(self) -> list[EdgeId]:
        return [e.id for e in self.edges]

    @functools.cached_property
    def conflicts(self) -> dict[EdgeId, frozenset[EdgeId]]:
        """Edge id -> the other edges that share an endpoint with it."""
        at: dict[str, set[EdgeId]] = {v: set() for v in self.vertices}
        for e in self.edges:
            at[e.i].add(e.id)
            at[e.j].add(e.id)
        return {e.id: frozenset((at[e.i] | at[e.j]) - {e.id}) for e in self.edges}

    def all_independent(self) -> bool:
        return all(e.is_independent for e in self.edges)

    @functools.cached_property
    def positive_values(self) -> bool:
        """True iff every edge is in independent form with nonnegative support
        and expectation at least the inspection cost on both endpoints (so
        every index and capped value is nonnegative)."""
        return all(e.is_independent and all(
            box.dist.min_value() >= 0 and box.dist.expectation() >= box.cost
            for box in (e.box_ij, e.box_ji)) for e in self.edges)

    @functools.cached_property
    def denominator(self) -> int:
        """The lcm of the denominators of every cost, outcome total and endpoint value."""
        return math.lcm(*(x.denominator for e in self.edges for o in e.outcomes
                          for x in (e.cost_ij, e.cost_ji, o.total, o.v_i or 0, o.v_j or 0)))

    def scaled_numbers(self, q: int) -> tuple[dict, dict]:
        """(directed pair -> its cost times q, edge id -> each outcome's total
        times q) as ints, for a multiple q of ``denominator``; built once per q."""
        if q not in self._scaled:
            self._scaled[q] = ({d: scaled(e.cost(d), q) for e in self.edges for d in e.directions()},
                               {e.id: [scaled(o.total, q) for o in e.outcomes] for e in self.edges})
        return self._scaled[q]

    def realization_count(self) -> int:
        n = 1
        for e in self.edges:
            n *= len(e.outcomes)
        return n

    def to_json_obj(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [e.to_json_obj() for e in self.edges]}

    @classmethod
    def from_json_obj(cls, obj) -> "MatchingInstance":
        edges = [EdgeSpec.from_json_obj(e) for e in json_object(obj)["edges"]]
        vertices = set(obj.get("vertices", []))
        for e in edges:
            vertices.update(e.endpoints())
        return cls(vertices, edges)


class Orientation:
    """One inspected-first endpoint per edge."""

    def __init__(self, pairs: Iterable[DirectedPair]):
        self.pairs = frozenset((str(u), str(v)) for u, v in pairs)
        by_edge = {}
        for u, v in self.pairs:
            eid = (u, v) if u < v else (v, u)
            if eid in by_edge:
                raise InstanceError(f"edge {eid} oriented twice")
            by_edge[eid] = (u, v)
        self._by_edge = by_edge

    def direction_of(self, edge_id: EdgeId) -> DirectedPair:
        try:
            return self._by_edge[edge_id]
        except KeyError:
            raise InstanceError(f"orientation does not cover edge {edge_id}") from None

    def require_covers(self, inst: MatchingInstance) -> None:
        if set(self._by_edge) != set(inst.edge_ids):
            raise InstanceError("orientation does not match the instance's edge set")

    def reverse(self) -> "Orientation":
        return Orientation((v, u) for u, v in self.pairs)

    def sorted_pairs(self) -> list[DirectedPair]:
        return sorted(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Orientation({self.sorted_pairs()})"

    def to_json_obj(self) -> list:
        return [list(p) for p in self.sorted_pairs()]

    @classmethod
    def from_json_obj(cls, obj) -> "Orientation":
        if not isinstance(obj, list) or not all(isinstance(p, list) and len(p) == 2
                                                for p in obj):
            raise InstanceError(
                f"orientation must be a list of [first, second] pairs, got {obj!r}")
        return cls((str(p[0]), str(p[1])) for p in obj)


def canonical_orientation(inst: MatchingInstance) -> Orientation:
    """Deterministic default: every edge oriented low vertex id first."""
    return Orientation(inst.edge_ids)


def orientation_bits(inst: MatchingInstance, rng) -> tuple[int, ...]:
    """One bit of a SplitMix64 stream per edge, in edge order."""
    return tuple(rng.next_bit() for _ in inst.edge_ids)


def random_orientation(inst: MatchingInstance, rng) -> Orientation:
    """One bit of a SplitMix64 stream per edge, in edge order; 0 keeps (i, j)."""
    return Orientation(e.directions()[b] for e, b in zip(inst.edges, orientation_bits(inst, rng)))

