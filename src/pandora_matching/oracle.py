"""Ground truth by exhaustive dynamic programming.

The optimal policy is computed over observation states: per edge, which
endpoint signals have been seen.  Inspection order does not matter beyond
that, so states canonicalize to one evidence pair per edge.  Terminal value
is the best matching over fully-inspected edges with their realized totals
(never forced below the empty matching).  Constraints restrict the action
set: "oriented" only allows the second box after the first per the given
orientation, "bundled" opens both boxes of an edge at once.  Each edge's
allowed moves are tabulated once per call, keyed by the evidence the
constraint can reach, so the state space is the product of those key sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distributions import ZERO
from .instance import EdgeId, EdgeSpec, InstanceError, MatchingInstance, Orientation

DEFAULT_STATE_BOUND = 500_000
MATCHING_EDGE_LIMIT = 16


class StateBoundError(RuntimeError):
    def __init__(self, estimate: int, bound: int):
        super().__init__(
            f"oracle state space has {estimate} states, above the bound of {bound}"
        )
        self.estimate = estimate
        self.bound = bound


# ---------------------------------------------------------------------------
# Matchings on explicit edge weights
# ---------------------------------------------------------------------------

def max_weight_matching(weights: dict[EdgeId, Fraction]) -> tuple[frozenset, Fraction]:
    """Best matching by brute force; edges with weight <= 0 are never used."""
    edges = sorted(eid for eid, w in weights.items() if w > 0)
    if len(edges) > MATCHING_EDGE_LIMIT:
        raise InstanceError(f"brute-force matching limited to {MATCHING_EDGE_LIMIT} edges")

    best_set: frozenset = frozenset()
    best_total = ZERO

    def recurse(k: int, used: set, chosen: list, total: Fraction):
        nonlocal best_set, best_total
        if total > best_total:
            best_total = total
            best_set = frozenset(chosen)
        if k == len(edges):
            return
        eid = edges[k]
        recurse(k + 1, used, chosen, total)
        u, v = eid
        if u not in used and v not in used:
            used.update(eid)
            chosen.append(eid)
            recurse(k + 1, used, chosen, total + weights[eid])
            chosen.pop()
            used.difference_update(eid)

    recurse(0, set(), [], ZERO)
    return best_set, best_total


def greedy_matching(weights: dict[EdgeId, Fraction]) -> tuple[frozenset, Fraction]:
    """Repeatedly take the heaviest positive feasible edge; ties by edge id."""
    order = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    used: set = set()
    chosen = []
    total = ZERO
    for eid, w in order:
        if w <= 0:
            break
        u, v = eid
        if u in used or v in used:
            continue
        used.update(eid)
        chosen.append(eid)
        total += w
    return frozenset(chosen), total


# ---------------------------------------------------------------------------
# Optimal-policy DP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    """One box, or for the bundled constraint one edge's pair of boxes, that
    may be opened from an edge's evidence.

    action: ("open", directed pair of the box) or ("open-bundle", edge id),
    ("stop",) for STOP; edge: index of the edge in instance order; branches:
    (new evidence, conditional probability, outcome labels) per outcome.
    """

    action: tuple
    edge: int
    cost: Fraction
    branches: tuple


STOP = Move(("stop",), -1, ZERO, ())


@dataclass(frozen=True)
class PolicyValue:
    value: Fraction
    best_action: dict    # state -> best Move (STOP to stop), for inspection/tracing


def _edge_moves(k: int, edge: EdgeSpec, constraint: str,
                orientation: Orientation | None) -> tuple[dict, dict]:
    """The moves the constraint allows on one edge, per reachable evidence.

    Evidence is a pair of label indices (i side, j side), -1 where unseen.
    Returns (evidence -> moves, fully seen evidence -> edge total); every
    evidence the constraint can reach is a key of the first map.
    """
    directions = edge.directions()
    tables = [edge.table(d) for d in directions]
    index = [{label: x for x, (label, _) in enumerate(t.first)} for t in tables]
    totals = {(index[0][o.label_i], index[1][o.label_j]): o.total for o in edge.outcomes}
    moves = dict.fromkeys(totals, ())
    if constraint == "bundled":
        moves[-1, -1] = (Move(("open-bundle", edge.id), k, edge.cost_ij + edge.cost_ji, tuple(
            (evidence, o.prob, (("si", o.label_i), ("sj", o.label_j)))
            for evidence, o in zip(totals, edge.outcomes))),)
        return moves, totals

    def evidence(side, seen, other):
        return (seen, other) if side == 0 else (other, seen)

    openings = []
    for side, (first, table) in enumerate(zip(directions, tables)):
        if constraint == "oriented" and orientation.direction_of(edge.id) != first:
            continue
        second = (first[1], first[0])
        openings.append(Move(("open", first), k, edge.cost(first), tuple(
            (evidence(side, x, -1), p, (("signal", s),)) for x, (s, p) in enumerate(table.first))))
        for x, (s, _) in enumerate(table.first):
            moves[evidence(side, x, -1)] = (Move(("open", second), k, edge.cost(second), tuple(
                (evidence(side, x, index[1 - side][t]), p, (("signal", t),))
                for t, p, _ in table.second[s])),)
    moves[-1, -1] = tuple(openings)
    return moves, totals


def optimal_welfare(inst: MatchingInstance, constraint: str = "free",
                    orientation: Orientation | None = None,
                    state_bound: int = DEFAULT_STATE_BOUND) -> PolicyValue:
    """Exact value of the optimal policy under the given constraint.

    constraint: "free" opens any box in any order; "oriented" respects the
    orientation within each edge; "bundled" always opens both boxes of an
    edge together.
    """
    if constraint not in ("free", "oriented", "bundled"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if constraint == "oriented":
        if orientation is None:
            raise ValueError("oriented constraint needs an orientation")
        orientation.require_covers(inst)

    tables = [_edge_moves(k, e, constraint, orientation) for k, e in enumerate(inst.edges)]
    moves = [m for m, _ in tables]
    totals = [t for _, t in tables]
    states = math.prod(len(m) for m in moves)
    if states > state_bound:
        raise StateBoundError(states, state_bound)
    ids = inst.edge_ids
    terminal_cache: dict = {}

    def terminal_value(state) -> Fraction:
        weights = {}
        for eid, edge_totals, evidence in zip(ids, totals, state):
            w = edge_totals.get(evidence)
            if w is not None and w > 0:
                weights[eid] = w
        key = tuple(sorted(weights.items()))
        if key not in terminal_cache:
            terminal_cache[key] = max_weight_matching(weights)[1]
        return terminal_cache[key]

    memo: dict = {}
    best_action: dict = {}

    def value(state) -> Fraction:
        if state in memo:
            return memo[state]
        best = terminal_value(state)
        chosen = STOP
        for k, evidence in enumerate(state):
            for move in moves[k][evidence]:
                ev = -move.cost
                for child_evidence, p, _ in move.branches:
                    ev += p * value(state[:k] + (child_evidence,) + state[k + 1:])
                if ev > best:
                    best, chosen = ev, move
        memo[state] = best
        best_action[state] = chosen
        return best

    initial = tuple((-1, -1) for _ in ids)
    return PolicyValue(value(initial), best_action)


def optimal_action_tree(inst: MatchingInstance, pv: PolicyValue, max_nodes: int = 2000):
    """Expand the stored best moves into a JSON-able decision tree."""
    count = 0

    def expand(state):
        nonlocal count
        count += 1
        if count > max_nodes:
            return {"truncated": True}
        move = pv.best_action[state]
        if move is STOP:
            return {"action": "stop"}
        kind, target = move.action
        k = move.edge
        return {"action": kind, "box" if kind == "open" else "edge": list(target),
                "outcomes": [dict(labels, then=expand(state[:k] + (evidence,) + state[k + 1:]))
                             for evidence, _, labels in move.branches]}

    return expand(tuple((-1, -1) for _ in inst.edges))
