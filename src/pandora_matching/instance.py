"""Matching instances: graphs with a pair of Pandora boxes per edge.

Edges come in two forms.  Independent edges carry one box per endpoint and
the edge's total value is the sum of the two draws.  Joint edges carry a
joint law over (signal_i, signal_j, total) pairs, which covers arbitrary
correlation of the two endpoint observations within an edge.  Either way
an edge holds one outcome table, whose law is int weights over one total;
an independent edge's is the product of its two box laws, with the
endpoint values kept alongside for the algorithms that need them
separately.  Baskets are annotated straight from that table.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple

from .boxes import PandoraBox, index_of_weights
from .distributions import DiscreteDistribution
from .nested import AnnotatedBasket, AnnotatedStage, PathInfo, weighted_stage
from .rationals import (
    as_fraction,
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
    """One atom of an edge's joint law; its probability is the edge's weight
    for it over ``weight_total``.

    v_i and v_j are the separate endpoint values when the edge was given in
    independent form, else None.
    """

    label_i: str
    label_j: str
    total: Fraction
    v_i: Fraction | None = None
    v_j: Fraction | None = None


# Box probabilities repeat across edges and instances: one Fraction serves each.
_ratio = functools.lru_cache(maxsize=1024)(Fraction)


def _label_rows(box: PandoraBox) -> tuple[tuple[str, Fraction, Fraction, int], ...]:
    """A box's atoms as (label, value, probability, weight), sorted by label."""
    values, weights, total = box.dist
    return tuple(sorted([(format_rational(v), v, _ratio(w, total), w)
                         for v, w in zip(values, weights)]))


class EdgeSpec:
    """An undirected edge with its two inspection costs and outcome law.

    Endpoints are stored sorted (i < j).  Direction (u, v) means endpoint u
    is inspected first; cost(u, v) is the cost of that first inspection.
    Outcome k, in (label_i, label_j) order, has probability
    weights[k] / weight_total, both ints; every reader of the law reads
    these.  Build edges with ``independent`` or ``joint``: the constructor
    checks only the endpoints and costs.  The per-direction tables and
    compiled baskets are built on first use.
    """

    def __init__(self, i: str, j: str, cost_ij, cost_ji,
                 outcomes: tuple[JointOutcome, ...], weights: tuple[int, ...],
                 weight_total: int, box_ij: PandoraBox | None = None,
                 box_ji: PandoraBox | None = None):
        if i == j:
            raise InstanceError(f"self-loop at vertex {i!r}")
        if not i < j:
            raise InstanceError("endpoints must be passed in sorted order")
        self.i = i
        self.j = j
        self.cost_ij = as_fraction(cost_ij)
        self.cost_ji = as_fraction(cost_ji)
        if self.cost_ij.numerator < 0 or self.cost_ji.numerator < 0:
            raise InstanceError(f"edge {self.id}: costs must be >= 0")
        self.box_ij = box_ij
        self.box_ji = box_ji
        self.outcomes = outcomes
        self.weights = weights
        self.weight_total = weight_total
        self._tables: dict[DirectedPair, tuple] = {}
        self._baskets: dict = {}
        self._paths: dict = {}

    @property
    def id(self) -> EdgeId:
        return (self.i, self.j)

    @property
    def is_independent(self) -> bool:
        return self.box_ij is not None

    @functools.cached_property
    def _sides(self) -> tuple[tuple, tuple]:
        """The two boxes' ``_label_rows``, for an independent edge."""
        return _label_rows(self.box_ij), _label_rows(self.box_ji)

    @classmethod
    def independent(cls, i: str, j: str, box_ij: PandoraBox, box_ji: PandoraBox) -> "EdgeSpec":
        """The product of the two endpoint laws, over the product of their totals.

        Both boxes' laws were checked, so the product is sorted by labels and
        sums to one by construction; each atom's label is formatted once.
        """
        if not i < j:
            i, j = j, i
            box_ij, box_ji = box_ji, box_ij
        sides = (_label_rows(box_ij), _label_rows(box_ji))
        outcomes, weights = [], []
        for li, vi, _, wi in sides[0]:
            for lj, vj, _, wj in sides[1]:
                outcomes.append(JointOutcome(li, lj, vi + vj, vi, vj))
                weights.append(wi * wj)
        edge = cls(i, j, box_ij.cost, box_ji.cost, tuple(outcomes), tuple(weights),
                   box_ij.dist.total * box_ji.dist.total, box_ij, box_ji)
        edge._sides = sides   # fills the cached property
        return edge

    @classmethod
    def joint(cls, i: str, j: str, cost_ij, cost_ji,
              rows: Iterable[tuple[str, str, Fraction, Fraction]]) -> "EdgeSpec":
        """An edge from its outcome rows (signal_i, signal_j, total, probability),
        whose law is checked here: distinct signal pairs, positive
        probabilities summing to one."""
        if not i < j:
            i, j = j, i
            cost_ij, cost_ji = cost_ji, cost_ij
            rows = [(lj, li, t, p) for li, lj, t, p in rows]
        # a stable sort on the signal pair alone, so the first error is fixed
        rows = sorted([(str(li), str(lj), as_fraction(t), as_fraction(p))
                       for li, lj, t, p in rows], key=itemgetter(0, 1))
        if not rows:
            raise InstanceError(f"edge {(i, j)}: empty outcome table")
        seen = set()
        for li, lj, _, p in rows:
            if p.numerator <= 0:
                raise InstanceError(f"edge {(i, j)}: outcome probability {p} not positive")
            if (li, lj) in seen:
                raise InstanceError(f"edge {(i, j)}: duplicate signal pair {(li, lj)}")
            seen.add((li, lj))
        total = math.lcm(*[p.denominator for *_, p in rows])
        weights = tuple([scaled(p, total) for *_, p in rows])
        if sum(weights) != total:
            raise InstanceError(
                f"edge {(i, j)}: outcome probabilities sum to {Fraction(sum(weights), total)}")
        outcomes = tuple([JointOutcome(li, lj, t) for li, lj, t, _ in rows])
        return cls(i, j, cost_ij, cost_ji, outcomes, weights, total)

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

    def table(self, direction: DirectedPair) -> tuple:
        """The law grouped by the signal inspected first: one row (signal,
        weight, ((second signal, weight, outcome index), ...)) per first
        signal, sorted, every weight over ``weight_total``."""
        if direction not in self._tables:
            self.cost(direction)  # direction check
            forward = direction == (self.i, self.j)
            # Outcomes run in (label_i, label_j) order, so each group's second
            # signals arrive sorted.
            groups: dict[str, list] = {}
            for k, (o, w) in enumerate(zip(self.outcomes, self.weights)):
                first, second = (o.label_i, o.label_j) if forward else (o.label_j, o.label_i)
                groups.setdefault(first, []).append((second, w, k))
            self._tables[direction] = tuple([
                (label, sum([w for _, w, _ in groups[label]]), tuple(groups[label]))
                for label in sorted(groups)])
        return self._tables[direction]

    def basket(self, direction: DirectedPair | None = None) -> AnnotatedBasket:
        """The edge compiled for a direction, built once per direction.

        A direction gives the oriented two-stage basket, None the bundled
        one-stage basket; a leaf is its outcome's total.  Every caller gets
        the same objects; none may mutate them.
        """
        if direction not in self._baskets:
            self._baskets[direction] = (bundled_basket(self) if direction is None
                                        else oriented_basket(self, direction))
        return self._baskets[direction]

    def paths(self, direction: DirectedPair | None = None) -> list[PathInfo]:
        """Each outcome's realized path through ``basket(direction)``, built on first use."""
        if direction not in self._paths:
            by_labels = self.basket(direction).by_labels
            if direction is None:
                labels = [(format_rational(o.total),) for o in self.outcomes]
            elif direction == self.id:
                labels = [(o.label_i, o.label_j) for o in self.outcomes]
            else:
                labels = [(o.label_j, o.label_i) for o in self.outcomes]
            self._paths[direction] = [by_labels[key] for key in labels]
        return self._paths[direction]

    def bundled_box(self) -> PandoraBox:
        """Both inspections merged into one box over the edge total."""
        return PandoraBox(DiscreteDistribution.merged(
            zip([o.total for o in self.outcomes], self.weights), self.weight_total),
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
                           "p": format_rational(Fraction(w, self.weight_total))}
                          for o, w in zip(self.outcomes, self.weights)]}

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


def oriented_basket(edge: EdgeSpec, direction: DirectedPair) -> AnnotatedBasket:
    """Two-stage basket for a direction: first endpoint, then both.

    Stage 1 costs cost(direction) and reveals the first endpoint's signal;
    stage 2 costs the reverse cost and reveals the edge total.  The stages
    are annotated straight from the edge's weights: by the shift identity
    for an independent edge, by grouping the outcomes for a joint one.
    """
    second_cost = edge.cost((direction[1], direction[0]))
    stages = _shifted_stages if edge.is_independent else _grouped_stages
    branches, pairs = stages(edge, direction, second_cost)
    root = weighted_stage(edge.cost(direction), branches,
                          DiscreteDistribution.merged(pairs, edge.weight_total))
    return AnnotatedBasket(root)


def _grouped_stages(edge: EdgeSpec, direction: DirectedPair,
                    cost: Fraction) -> tuple[list, list]:
    """The first stage's branches, and (capped value, weight over weight_total)
    pairs of its next capped value, from the outcomes grouped by first signal."""
    outcomes = edge.outcomes
    branches, pairs = [], []
    for label, mass, second in edge.table(direction):
        stage = weighted_stage(
            cost, [(s, _ratio(w, mass), outcomes[k].total) for s, w, k in second],
            DiscreteDistribution.merged([(outcomes[k].total, w) for _, w, k in second], mass))
        branches.append((label, _ratio(mass, edge.weight_total), stage))
        # A capped atom of weight w / its total has weight w * factor / weight_total.
        values, weights, total = stage.capped()
        factor = mass // total
        pairs.extend([(v, w * factor) for v, w in zip(values, weights)])
    return branches, pairs


def _shifted_stages(edge: EdgeSpec, direction: DirectedPair,
                    cost: Fraction) -> tuple[list, list]:
    """``_grouped_stages`` for an independent edge, by the shift identity.

    Given first value a, the second stage's law is the second box's shifted
    by a, so its index is a + sigma (sigma the second box's index) and its
    capped value a + min(sigma, b); sigma is solved once, not once per a.
    """
    forward = direction == edge.id
    first, second = edge._sides if forward else edge._sides[::-1]
    law = edge.box((direction[1], direction[0])).dist
    # Outcome (x, y) of the first and second boxes' label orders sits at
    # x * step_x + y * step_y: outcomes run over the i side's labels, then j's.
    step_x, step_y = (len(second), 1) if forward else (1, len(first))
    sigma = index_of_weights(*law, cost)
    below = bisect_left(law.values, sigma)
    capped = law.weights[:below] + (sum(law.weights[below:]),)
    outcomes = edge.outcomes
    branches, pairs = [], []
    for x, (label, a, prob, wa) in enumerate(first):
        # the leaves are the outcome totals a + b, already summed
        row = [outcomes[x * step_x + y * step_y].total for y in range(len(second))]
        values = tuple(sorted(row))   # a + the second box's values
        stage = AnnotatedStage(cost, a + sigma,
                               tuple([(lb, pb, t) for (lb, _, pb, _), t in zip(second, row)]),
                               DiscreteDistribution.of(values, law.weights, law.total))
        branches.append((label, prob, stage))
        pairs.extend(zip(values[:below] + (stage.sigma,), [wa * w for w in capped]))
    return branches, pairs


def scaled_paths(inst: MatchingInstance, tables: dict) -> tuple[int, dict]:
    """(Q, key -> the paths of ``tables[key]`` times Q), each table an
    ``EdgeSpec.paths`` list: with Q the lcm of every denominator a run or its
    checks read, all their numbers are ints times Q."""
    q = math.lcm(inst.denominator, *(s.denominator for paths in tables.values()
                                     for p in paths for s in p.sigmas))
    return q, {key: [p.scaled(q) for p in paths] for key, paths in tables.items()}


def bundled_basket(edge: EdgeSpec) -> AnnotatedBasket:
    """``bundled_box`` (both costs paid at once) as a one-stage basket."""
    law, cost = edge.bundled_box()
    branches = [(format_rational(v), _ratio(w, law.total), v)
                for v, w in zip(law.values, law.weights)]
    return AnnotatedBasket(weighted_stage(cost, branches, law))


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
        names = obj.get("vertices", [])
        # a name is str() of a JSON scalar, as for an edge's endpoints
        if not isinstance(names, list) or any(isinstance(v, (list, dict)) for v in names):
            raise InstanceError(f"vertices must be a list of vertex names, got {names!r}")
        vertices = set(names)
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

