"""Multi-stage Pandora baskets (nested boxes).

A basket is an outcome tree: paying a node's stage cost reveals which branch
the world takes, and the final stage reveals the value.  Annotation runs a
backward induction that attaches to every internal node the conditional law
of the next stage's capped value and the stage index solving the Weitzman
equation against that law.  Along a realized path,

  sigma^(1..d), v   stage indices and the value,
  gamma^(l)         running minimum of the indices opened so far,
  kappa^(l)         minimum of everything still to come (indices and value),

and kappa^(1) = min(all indices, value) is the basket's terminal capped
value.  A run is exposed at stage l if it stops there although
kappa^(l+1) > gamma^(l); non-exposed runs attain the amortization identity
"expected welfare contribution equals expected claimed kappa^(1)".
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .boxes import index_of_weights
from .distributions import DiscreteDistribution
from .rationals import (
    as_fraction,
    common_sum,
    format_rational,
    json_object,
    parse_rational,
    rational_json,
    scaled,
)


class BasketError(ValueError):
    """Raised on malformed outcome trees or inconsistent traces."""


# ---------------------------------------------------------------------------
# Outcome trees
# ---------------------------------------------------------------------------

class OutcomeNode(NamedTuple):
    """One node of an outcome tree.

    Internal nodes carry the stage cost paid to advance from here and a
    branch list (label, prob, child); leaves carry the final value.  Costs
    may differ between sibling subtrees, which is how stage costs that
    depend on earlier signals are expressed.
    """

    value: Fraction | None = None
    cost: Fraction | None = None
    branches: tuple[tuple[str, Fraction, "OutcomeNode"], ...] | None = None

    @classmethod
    def leaf(cls, value) -> "OutcomeNode":
        return cls(value=as_fraction(value))

    @classmethod
    def stage(cls, cost, branches) -> "OutcomeNode":
        branches = tuple((str(l), as_fraction(p), c) for l, p, c in branches)
        return cls(cost=as_fraction(cost), branches=branches)

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def validate(self) -> None:
        if self.is_leaf:
            if self.cost is not None or self.branches is not None:
                raise BasketError("leaf node must not carry cost or branches")
            return
        if self.cost is None or self.branches is None or not self.branches:
            raise BasketError("internal node needs a cost and at least one branch")
        if self.cost.numerator < 0:
            raise BasketError(f"stage cost must be >= 0, got {self.cost}")
        seen = set()
        for label, prob, child in self.branches:
            if prob.numerator <= 0:
                raise BasketError(f"branch probability must be positive, got {prob}")
            if label in seen:
                raise BasketError(f"duplicate branch label {label!r}")
            seen.add(label)
            child.validate()
        num, den = common_sum([p for _, p, _ in self.branches])
        if num != den:
            raise BasketError(
                f"branch probabilities sum to {Fraction(num, den)}, expected 1")

    def to_json_obj(self):
        if self.is_leaf:
            return {"value": format_rational(self.value)}
        return {
            "cost": format_rational(self.cost),
            "branches": [
                {"label": l, "p": format_rational(p), "node": c.to_json_obj()}
                for l, p, c in self.branches
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "OutcomeNode":
        if "value" in json_object(obj):
            if "cost" in obj or "branches" in obj:
                raise BasketError("leaf node must not carry cost or branches")
            return cls.leaf(parse_rational(obj["value"]))
        branches = [
            (str(b["label"]), parse_rational(b["p"]), cls.from_json_obj(b["node"]))
            for b in map(json_object, obj["branches"])
        ]
        return cls.stage(parse_rational(obj["cost"]), branches)


# ---------------------------------------------------------------------------
# Annotation (backward induction)
# ---------------------------------------------------------------------------

class AnnotatedStage(NamedTuple):
    """Internal node with its stage index and ``kappa_next``, the law of the
    next capped value; sigma solves surplus(kappa_next, sigma) == cost.  A
    branch child is the next stage, or the leaf's value itself."""

    cost: Fraction
    sigma: Fraction
    branches: tuple[tuple[str, Fraction, Union["AnnotatedStage", Fraction]], ...]
    kappa_next: DiscreteDistribution

    def capped(self) -> DiscreteDistribution:
        """The law of min(sigma, next capped value)."""
        (values, weights, total), sigma = self.kappa_next, self.sigma
        k = bisect_left(values, sigma)
        return DiscreteDistribution.of(values[:k] + (sigma,),
                                       weights[:k] + (sum(weights[k:]),), total)


def weighted_stage(cost: Fraction, branches, law: DiscreteDistribution) -> AnnotatedStage:
    """The stage over ``branches`` with next capped value law ``law``, sigma solved on it."""
    return AnnotatedStage(cost, index_of_weights(*law, cost), tuple(branches), law)


def _annotate_stage(node: OutcomeNode) -> AnnotatedStage:
    """Backward induction below ``node``, each law in int weights over one total."""
    branches, laws = [], []   # laws: (branch probability, child's capped law)
    for label, prob, child in node.branches:
        sub = child.value if child.is_leaf else _annotate_stage(child)
        branches.append((label, prob, sub))
        laws.append((prob, DiscreteDistribution.point(sub) if child.is_leaf else sub.capped()))
    # The mixture's total is the lcm of (probability denominator * child total).
    total = math.lcm(*[p.denominator * law.total for p, law in laws])
    pairs = []
    for prob, (values, weights, t) in laws:
        factor = prob.numerator * (total // (prob.denominator * t))
        pairs.extend([(v, factor * w) for v, w in zip(values, weights)])
    return weighted_stage(node.cost, branches, DiscreteDistribution.merged(pairs, total))


class PathInfo(NamedTuple):
    """One realized root-to-leaf path with everything a run needs; ``scaled`` makes it ints."""

    branch_indices: tuple[int, ...]
    labels: tuple[str, ...]
    sigmas: tuple[Fraction, ...]   # stage indices along the path
    costs: tuple[Fraction, ...]    # stage costs along the path
    value: Fraction
    prob: Fraction
    kappa1: Fraction               # min(all stage indices, value)

    @property
    def depth(self) -> int:
        return len(self.sigmas)

    def scaled(self, q: int) -> "PathInfo":
        """This path with its indices, costs, value and kappa^1 times ``q``, as ints."""
        return PathInfo(self.branch_indices, self.labels,
                        tuple(scaled(s, q) for s in self.sigmas),
                        tuple(scaled(c, q) for c in self.costs),
                        scaled(self.value, q), self.prob, scaled(self.kappa1, q))


def _walk_paths(node, idxs, labels, sigmas, costs, prob) -> Iterator[PathInfo]:
    """Each root-to-leaf path below ``node``, after the given prefixes.  A
    module-level generator: a nested recursive one would be a reference cycle."""
    if type(node) is not AnnotatedStage:   # a leaf: its value
        yield PathInfo(idxs, labels, sigmas, costs, node, prob, min(min(sigmas), node))
        return
    for bi, (label, p, child) in enumerate(node.branches):
        yield from _walk_paths(child, idxs + (bi,), labels + (label,), sigmas + (node.sigma,),
                               costs + (node.cost,), prob * p)


class AnnotatedBasket:
    """An annotated outcome tree, plus its path table, enumerated on first
    use.  ``annotate`` builds one from a validated tree; an edge's baskets
    are built from its checked law (``instance.oriented_basket``).
    """

    def __init__(self, root: AnnotatedStage):
        self.root = root

    @functools.cached_property
    def paths(self) -> tuple[PathInfo, ...]:
        return tuple(_walk_paths(self.root, (), (), (), (), Fraction(1)))

    @functools.cached_property
    def by_labels(self) -> dict[tuple[str, ...], PathInfo]:
        return {p.labels: p for p in self.paths}

    @property
    def sigma1(self) -> Fraction:
        return self.root.sigma

    @functools.cached_property
    def kappa1_law(self) -> DiscreteDistribution:
        """The law of kappa^(1), built once."""
        return self.root.capped()


def annotate(root: OutcomeNode) -> AnnotatedBasket:
    """Validate a tree and run the backward induction."""
    root.validate()
    if root.is_leaf:
        raise BasketError("a basket needs at least one stage of inspection")
    return AnnotatedBasket(_annotate_stage(root))


def annotated_to_json_obj(node: AnnotatedStage | Fraction):
    if type(node) is not AnnotatedStage:
        return {"value": rational_json(node)}
    return {
        "cost": rational_json(node.cost),
        "sigma": rational_json(node.sigma),
        "kappa_next": node.kappa_next.to_json_obj(),
        "branches": [
            {"label": l, "p": format_rational(p), "node": annotated_to_json_obj(c)}
            for l, p, c in node.branches
        ],
    }


# ---------------------------------------------------------------------------
# Traces and exposure
# ---------------------------------------------------------------------------

class NestedTrace(NamedTuple):
    """How far one run advanced a basket on one realization.

    The path is the full realized path even beyond the last opened stage,
    so exposure can be decided from what the run left on the table.
    """

    basket_id: object
    path: PathInfo
    stages_opened: int
    claimed: bool

    @property
    def costs_paid(self):
        return sum(self.path.costs[:self.stages_opened])

    @property
    def welfare(self):
        return (self.path.value if self.claimed else 0) - self.costs_paid


def make_trace(basket_id, path: PathInfo, stages_opened: int, claimed: bool) -> NestedTrace:
    if claimed and stages_opened != path.depth:
        raise BasketError("claiming requires opening every stage first")
    if stages_opened > path.depth:
        raise BasketError("opened more stages than the basket has")
    return NestedTrace(basket_id, path, stages_opened, claimed)


def check_non_exposure(trace: NestedTrace, basket: AnnotatedBasket) -> bool:
    """True iff no stage of this realization shows the exposure pattern.

    Exposure at stage l: the run opened stage l but not l+1, while the
    realized capped value of the remainder exceeded the running index
    minimum gamma^(l).  Claimed or untouched baskets are never exposed.
    """
    path = trace.path
    own = basket.by_labels.get(path.labels)   # a scaled path keeps its labels and prob
    if own is None or (own.prob is not path.prob and own.prob != path.prob):
        raise BasketError("trace path does not belong to this basket")
    if trace.claimed or trace.stages_opened == 0:
        return True
    stop = trace.stages_opened
    gamma = min(path.sigmas[:stop])
    tail = list(path.sigmas[stop:]) + [path.value]
    kappa_next = min(tail)
    return not kappa_next > gamma


# ---------------------------------------------------------------------------
# Descending runs
# ---------------------------------------------------------------------------

class DescendingStep(NamedTuple):
    time: int
    basket_id: object
    action: str                       # "open" or "claim"
    index: Fraction
    eligible_view: tuple              # (id, sigma_t, gamma_t) per eligible basket


@dataclass
class DescendingResult:
    traces: dict
    claimed_ids: list
    total_costs: Fraction
    claimed_value: Fraction
    welfare: Fraction
    steps: list[DescendingStep]


def descending_run(
    paths: dict,
    conflicts=None,
    record_steps: bool = False,
) -> DescendingResult:
    """Run the descending procedure on realized paths, keyed by basket id.

    Repeatedly advance the eligible basket with the largest current index
    (ties to the smallest basket id) while that index is positive.  A
    basket's current index is its next stage's sigma, or its value once
    every stage is open and only the claim remains.  Claiming a basket
    removes the ids in ``conflicts[basket_id]`` from the eligible set; with
    the default (all other ids) this is the single-selection problem.
    """
    ids = sorted(paths)
    stage = dict.fromkeys(ids, 0)
    index = {i: p.sigmas[0] for i, p in paths.items()}   # every basket has a stage
    gamma: dict = {}                  # running minimum of the opened indices
    eligible = ids                    # in id order, so ties go to the smallest id
    claimed: list = []
    total_costs = claimed_value = 0   # an int or Fraction sum, as the paths' numbers
    steps: list[DescendingStep] = []
    time = 0
    while eligible:
        best = max(eligible, key=index.__getitem__)
        best_idx = index[best]
        if best_idx <= 0:
            break
        path = paths[best]
        s = stage[best]
        opening = s < path.depth
        if record_steps:
            view = tuple((j, index[j], min(gamma[j], index[j]) if j in gamma else index[j])
                         for j in eligible)
            steps.append(DescendingStep(time, best, "open" if opening else "claim",
                                        best_idx, view))
        if opening:
            total_costs += path.costs[s]
            gamma[best] = min(gamma[best], best_idx) if best in gamma else best_idx
            stage[best] = s + 1
            index[best] = path.sigmas[s + 1] if s + 1 < path.depth else path.value
        else:
            claimed.append(best)
            claimed_value += path.value
            eligible = [] if conflicts is None else [
                j for j in eligible if j != best and j not in conflicts[best]]
        time += 1
    traces = {i: make_trace(i, paths[i], stage[i], i in claimed) for i in ids}
    return DescendingResult(
        traces, claimed, total_costs, claimed_value, claimed_value - total_costs, steps
    )
