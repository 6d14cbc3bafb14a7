"""Ground truth by exhaustive dynamic programming.

The optimal policy is computed over observation states: per edge, which
endpoint signals have been seen.  Inspection order does not matter beyond
that, so states canonicalize to one evidence pair per edge.  Terminal value
is the best matching over fully-inspected edges with their realized totals
(never forced below the empty matching).  Constraints restrict the action
set: "oriented" only allows the second box after the first per the given
orientation, "bundled" opens both boxes of an edge at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import ZERO
from .instance import EdgeId, InstanceError, MatchingInstance, Orientation

DEFAULT_STATE_BOUND = 500_000
MATCHING_EDGE_LIMIT = 16


class StateBoundError(RuntimeError):
    def __init__(self, estimate: int, bound: int):
        super().__init__(
            f"oracle state space has about {estimate} states, above the bound of {bound}"
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
class PolicyValue:
    value: Fraction
    best_action: dict    # state -> action descriptor, for inspection/tracing


class _EdgeData:
    """An edge's signal labels and transition laws, read from its tables.

    Evidence is a pair of label indices (i side, j side), -1 where unseen.
    """

    __slots__ = ("edge", "labels_i", "labels_j", "total_by_pair", "laws")

    def __init__(self, edge):
        self.edge = edge
        ij, ji = (edge.table(d) for d in edge.directions())
        self.labels_i = [label for label, _ in ij.first]
        self.labels_j = [label for label, _ in ji.first]
        idx_i = {label: k for k, label in enumerate(self.labels_i)}
        idx_j = {label: k for k, label in enumerate(self.labels_j)}
        rows = [(idx_i[o.label_i], idx_j[o.label_j], o.total, o.prob) for o in edge.outcomes]
        self.total_by_pair = {(a, b): t for a, b, t, _ in rows}
        # (evidence, side) -> [(new evidence, conditional probability)]
        laws = {
            ((-1, -1), "ij"): [((a, b), p) for a, b, _, p in rows],
            ((-1, -1), "i"): [((a, -1), p) for a, (_, p) in enumerate(ij.first)],
            ((-1, -1), "j"): [((-1, b), p) for b, (_, p) in enumerate(ji.first)],
        }
        for a, (label, _) in enumerate(ij.first):
            laws[(a, -1), "j"] = [((a, idx_j[s]), p) for s, p, _ in ij.second[label]]
        for b, (label, _) in enumerate(ji.first):
            laws[(-1, b), "i"] = [((idx_i[s], b), p) for s, p, _ in ji.second[label]]
        self.laws = laws

    def branches(self, evidence, side):
        """(new evidence, probability) per outcome of opening a side ("i",
        "j", or "ij" for both at once) from the given evidence."""
        return self.laws[evidence, side]


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

    data = [_EdgeData(e) for e in inst.edges]
    ids = inst.edge_ids
    estimate = 1
    for eid, d in zip(ids, data):
        li, lj, n = len(d.labels_i), len(d.labels_j), len(d.edge.outcomes)
        if constraint == "bundled":
            estimate *= 1 + n
        elif constraint == "oriented":
            first_is_i = orientation.direction_of(eid) == (d.edge.i, d.edge.j)
            estimate *= 1 + (li if first_is_i else lj) + n
        else:
            estimate *= 1 + li + lj + n
    if estimate > state_bound:
        raise StateBoundError(estimate, state_bound)

    terminal_cache: dict = {}

    def terminal_value(state) -> Fraction:
        weights = {}
        for eid, d, (a, b) in zip(ids, data, state):
            if a != -1 and b != -1:
                w = d.total_by_pair[(a, b)]
                if w > 0:
                    weights[eid] = w
        key = tuple(sorted(weights.items()))
        if key not in terminal_cache:
            terminal_cache[key] = max_weight_matching(weights)[1]
        return terminal_cache[key]

    def legal_opens(state):
        """(edge index, side, cost) for every box openable from this state."""
        out = []
        for k, (eid, d, (a, b)) in enumerate(zip(ids, data, state)):
            e = d.edge
            if constraint == "bundled":
                if a == -1 and b == -1:
                    out.append((k, "ij", e.cost_ij + e.cost_ji))
                continue
            first = None
            if constraint == "oriented":
                first = orientation.direction_of(eid)
            if a == -1:
                allowed = first is None or first == (e.i, e.j) or b != -1
                if allowed:
                    out.append((k, "i", e.cost_ij))
            if b == -1:
                allowed = first is None or first == (e.j, e.i) or a != -1
                if allowed:
                    out.append((k, "j", e.cost_ji))
        return out

    memo: dict = {}
    best_action: dict = {}

    def value(state) -> Fraction:
        if state in memo:
            return memo[state]
        best = terminal_value(state)
        action = ("stop",)
        for k, side, cost in legal_opens(state):
            d = data[k]
            ev = -cost
            for new_evidence, p in d.branches(state[k], side):
                child = state[:k] + (new_evidence,) + state[k + 1:]
                ev += p * value(child)
            if ev > best:
                best = ev
                pair = (d.edge.i, d.edge.j) if side in ("i", "ij") else (d.edge.j, d.edge.i)
                action = ("open-bundle", ids[k]) if side == "ij" else ("open", pair)
        memo[state] = best
        best_action[state] = action
        return best

    initial = tuple((-1, -1) for _ in ids)
    return PolicyValue(value(initial), best_action)


def optimal_action_tree(inst: MatchingInstance, pv: PolicyValue, max_nodes: int = 2000):
    """Expand the stored best actions into a JSON-able decision tree."""
    data = [_EdgeData(e) for e in inst.edges]
    ids = inst.edge_ids
    count = 0

    def expand(state):
        nonlocal count
        count += 1
        if count > max_nodes:
            return {"truncated": True}
        action = pv.best_action.get(state, ("stop",))
        if action[0] == "stop":
            return {"action": "stop"}
        if action[0] == "open-bundle":
            k = ids.index(action[1])
            d = data[k]
            node = {"action": "open-bundle", "edge": list(action[1]), "outcomes": []}
            for (a, b), _ in d.branches(state[k], "ij"):
                child = state[:k] + ((a, b),) + state[k + 1:]
                node["outcomes"].append({
                    "si": d.labels_i[a], "sj": d.labels_j[b], "then": expand(child),
                })
            return node
        (u, v) = action[1]
        k = ids.index((u, v) if u < v else (v, u))
        d = data[k]
        side = "i" if (u, v) == (d.edge.i, d.edge.j) else "j"
        node = {"action": "open", "box": [u, v], "outcomes": []}
        for (a, b), _ in d.branches(state[k], side):
            child = state[:k] + ((a, b),) + state[k + 1:]
            label = d.labels_i[a] if side == "i" else d.labels_j[b]
            node["outcomes"].append({"signal": label, "then": expand(child)})
        return node

    return expand(tuple((-1, -1) for _ in ids))
