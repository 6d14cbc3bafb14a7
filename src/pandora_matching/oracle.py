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

The DP runs bottom-up over that product.  Each edge's evidences are ordered
so that every move goes to a later one, and a state is the mixed-radix index
of its edges' positions.  A move raises one edge's position, so visiting
each edge's positions last to first, nested in any order, sees every child
first.  The inner block is the shortest run of trailing edges with at least
BLOCK_STATES states (every edge on a smaller instance); its index offsets,
scales, terminal offsets and options are tabulated once per call.  The loop
runs over prefixes of the leading edges and within each over that block, so
a prefix's index, scale, terminal index and options are found once per
block, and options stay in edge order.  Values are integers in a per-state
scale (the common denominator of totals and costs, times each edge's
probability denominator raised to the moves left on that edge), so options
compare, and ties break, exactly as in Fractions; only the root value
becomes a Fraction.  Terminal values are read from one table over per-edge
weight classes, filled by the matching recurrence.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem, mul
from typing import NamedTuple

from .distributions import ZERO
from .instance import EdgeId, EdgeSpec, MatchingInstance, Orientation
from .rationals import format_count, scaled

DEFAULT_STATE_BOUND = 500_000
# States the DP's inner block spans at least (unless the instance has fewer).
BLOCK_STATES = 32


class StateBoundError(RuntimeError):
    def __init__(self, estimate: int, bound: int):
        super().__init__(
            f"oracle state space has {format_count(estimate)} states, "
            f"above the bound of {format_count(bound)}"
        )
        self.estimate = estimate
        self.bound = bound


# ---------------------------------------------------------------------------
# Greedy matching on explicit edge weights
# ---------------------------------------------------------------------------

def greedy_matching(weights: dict[EdgeId, Fraction | int]) -> tuple[frozenset, Fraction | int]:
    """Repeatedly take the heaviest positive feasible edge; ties by edge id."""
    order = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    used: set = set()
    chosen = []
    total = 0
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

class Move(NamedTuple):
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
    best_action: Mapping    # state -> best Move (STOP to stop), for inspection/tracing


class StateTable(Mapping):
    """Best move per state, read from the DP's flat tables.

    A state holds one evidence per edge; ``position[k]`` numbers edge k's
    evidences in order and a state sits at index
    sum(position_k * strides[k]).  ``value(state)`` is the state's optimal
    value; ``val`` holds it times q * prod_k powers[k][position_k].
    """

    def __init__(self, position, strides, q, powers, val, act):
        self._position = position
        self._strides = strides
        self._q = q
        self._powers = powers
        self._val = val
        self._act = act

    def _positions(self, state) -> list[int]:
        try:
            return [pos[e] for pos, e in zip(self._position, state, strict=True)]
        except (KeyError, TypeError, ValueError):
            raise KeyError(state) from None

    def __getitem__(self, state) -> Move:
        return self._act[sum(map(mul, self._positions(state), self._strides))]

    def __iter__(self):
        return itertools.product(*self._position)

    def __len__(self) -> int:
        return len(self._act)

    def value(self, state) -> Fraction:
        positions = self._positions(state)
        scale = self._q * math.prod(map(getitem, self._powers, positions))
        return Fraction(self._val[sum(map(mul, positions, self._strides))], scale)


def _edge_moves(k: int, edge: EdgeSpec, constraint: str,
                orientation: Orientation | None) -> tuple[dict, dict]:
    """The moves the constraint allows on one edge, per reachable evidence.

    Evidence is a pair of label indices (i side, j side), -1 where unseen.
    Returns (evidence -> moves, fully seen evidence -> edge total); every
    evidence the constraint can reach is a key of the first map.
    """
    directions = edge.directions()
    outcomes = edge.outcomes
    index = [{label: x for x, label in enumerate(sorted({o[side] for o in outcomes}))}
             for side in (0, 1)]   # label_i, label_j
    totals = {(index[0][o.label_i], index[1][o.label_j]): o.total for o in outcomes}
    moves = dict.fromkeys(totals, ())
    if constraint == "bundled":
        total = edge.weight_total
        moves[-1, -1] = (Move(("open-bundle", edge.id), k, edge.cost_ij + edge.cost_ji, tuple(
            (evidence, Fraction(w, total), (("si", o.label_i), ("sj", o.label_j)))
            for evidence, o, w in zip(totals, outcomes, edge.weights))),)
        return moves, totals

    def evidence(side, seen, other):
        return (seen, other) if side == 0 else (other, seen)

    openings = []
    for side, first in enumerate(directions):
        if constraint == "oriented" and orientation.direction_of(edge.id) != first:
            continue
        table = edge.table(first)
        second = (first[1], first[0])
        openings.append(Move(("open", first), k, edge.cost(first), tuple(
            (evidence(side, x, -1), Fraction(mass, edge.weight_total), (("signal", s),))
            for x, (s, mass, _) in enumerate(table))))
        for x, (_, mass, rows) in enumerate(table):
            moves[evidence(side, x, -1)] = (Move(("open", second), k, edge.cost(second), tuple(
                (evidence(side, x, index[1 - side][t]), Fraction(w, mass), (("signal", t),))
                for t, w, _ in rows)),)
    moves[-1, -1] = tuple(openings)
    return moves, totals


def _evidence_count(edge: EdgeSpec, constraint: str, orientation: Orientation | None) -> int:
    """Evidences ``_edge_moves`` reaches on one edge: none, each first signal, each outcome."""
    firsts = [] if constraint == "bundled" else [
        first for first in edge.directions()
        if constraint == "free" or orientation.direction_of(edge.id) == first]
    return 1 + sum(len(edge.table(first)) for first in firsts) + len(edge.outcomes)


def require_orientable(inst: MatchingInstance, state_bound: int = DEFAULT_STATE_BOUND) -> None:
    """Refuse an instance whose oriented state space exceeds the bound under every
    orientation: the product over edges of the fewer of each edge's two evidence counts."""
    states = math.prod(min(_evidence_count(e, "oriented", Orientation([d]))
                           for d in e.directions()) for e in inst.edges)
    if states > state_bound:
        raise StateBoundError(states, state_bound)


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

    states = math.prod(_evidence_count(e, constraint, orientation) for e in inst.edges)
    if states > state_bound:
        raise StateBoundError(states, state_bound)
    tables = [_edge_moves(k, e, constraint, orientation) for k, e in enumerate(inst.edges)]

    # A move turns an unseen -1 into a label index, so in sorted order every
    # move goes to a later evidence; a state's index is the mixed-radix
    # number of its edges' positions in that order.
    evidences = [sorted(m) for m, _ in tables]
    positions = [{e: x for x, e in enumerate(evs)} for evs in evidences]
    strides = [math.prod(len(evs) for evs in evidences[k + 1:]) for k in range(len(evidences))]
    # A state's value is stored times q * prod_k d_k ** r_k, where q clears
    # every total and cost, d_k clears edge k's probabilities, and r_k counts
    # the moves left on edge k; every option at a state is an integer in
    # that one scale.  An option is (move, its cost negated, (coefficient,
    # index delta) per branch).
    q = math.lcm(*(x.denominator for m, t in tables
                   for x in [*t.values(), *(mv.cost for mvs in m.values() for mv in mvs)]))
    powers, options, classes, ranked = [], [], [], []
    for (moves, totals), evs, position, stride in zip(tables, evidences, positions, strides):
        d = math.lcm(*(p.denominator for mvs in moves.values() for mv in mvs
                       for _, p, _ in mv.branches))
        left = [0] * len(evs)
        for x in reversed(range(len(evs))):
            left[x] = max((1 + left[position[c]] for mv in moves[evs[x]]
                           for c, _, _ in mv.branches), default=0)
        powers.append([d ** r for r in left])
        options.append([tuple(
            (mv, -scaled(mv.cost, q), tuple(
                (scaled(p, d ** (left[x] - left[position[c]])), (position[c] - x) * stride)
                for c, p, _ in mv.branches))
            for mv in moves[e]) for x, e in enumerate(evs)])
        weights = [scaled(totals[e], q) if totals.get(e, 0) > 0 else 0 for e in evs]
        ranked.append(sorted(set(weights) - {0}))
        classes.append([[0, *ranked[-1]].index(w) for w in weights])
    terminal, tstrides = _matching_table(inst.edge_ids, ranked)

    # (index offset, scale factor, terminal offset, options) per edge, last position first
    val, act = [0] * states, [STOP] * states
    rows = [[(x * stride, pw[x], cl[x] * tstride, op[x]) for x in reversed(range(len(op)))]
            for stride, pw, cl, tstride, op in zip(strides, powers, classes, tstrides, options)]
    b, size = len(rows), 1   # the inner block is rows[b:]
    while b and size < BLOCK_STATES:
        b -= 1
        size *= len(rows[b])
    block = _combined(rows[b:])
    for base, pscale, tbase, before in _combined(rows[:b]):
        for offset, power, tclass, own in block:
            index = base + offset
            scale = pscale * power
            best = terminal[tbase + tclass] * scale
            chosen = STOP
            for move, cost, branches in before + own:
                ev = cost * scale
                for coef, delta in branches:
                    ev += coef * val[index + delta]
                if ev > best:
                    best, chosen = ev, move
            val[index] = best
            act[index] = chosen

    table = StateTable(positions, strides, q, powers, val, act)
    return PolicyValue(table.value(tuple(evs[0] for evs in evidences)), table)


def _combined(rows: list[list[tuple]]) -> list[tuple]:
    """The product of ``rows`` in order, each cell's offsets summed, scales
    multiplied and options concatenated."""
    cells = [(0, 1, 0, ())]
    for row in rows:
        cells = [(o + x, s * p, t + c, op + own) for o, s, t, op in cells for x, p, c, own in row]
    return cells


def _matching_table(ids: list[EdgeId], weights: list[list[int]]) -> tuple[list[int], list[int]]:
    """Best matching total for each choice of one weight class per edge.

    ``weights[k]`` is edge k's positive weights, ascending; class 0 leaves
    edge k out and class r gives it ``weights[k][r - 1]``.  Returns the table,
    indexed by sum(class_k * strides[k]), and the strides.  With k the first
    edge of nonzero class in c, T[c] = max(T[c without k], w_k + T[c without
    k and its neighbours]), two entries filled before c.
    """
    sizes = [len(w) + 1 for w in weights]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    table = [0] * math.prod(sizes)
    for k in reversed(range(len(sizes))):
        # every class vector of the edges after k, with k's neighbours left out
        ends = set(ids[k])
        steps = [0 if ends.intersection(ids[j]) else strides[j] for j in range(k + 1, len(sizes))]
        free = [sum(t) for t in itertools.product(*(
            [x * step for x in range(size)] for size, step in zip(sizes[k + 1:], steps)))]
        for r, w in enumerate(weights[k], 1):
            table[r * strides[k]:(r + 1) * strides[k]] = [
                max(t, w + table[f]) for t, f in zip(table[:strides[k]], free)]
    return table, strides


def optimal_action_tree(inst: MatchingInstance, pv: PolicyValue, max_nodes: int = 2000):
    """Expand the stored best moves into a JSON-able decision tree."""
    return _expand(pv.best_action, tuple((-1, -1) for _ in inst.edges), [max_nodes])


def _expand(best_action: dict, state: tuple, budget: list) -> dict:
    """The tree below ``state``; ``budget`` holds the nodes still allowed.  A
    module-level function: a nested recursive one would be a reference cycle
    keeping the whole ``PolicyValue`` alive until the collector runs."""
    budget[0] -= 1
    if budget[0] < 0:
        return {"truncated": True}
    move = best_action[state]
    if move is STOP:
        return {"action": "stop"}
    kind, target = move.action
    k = move.edge
    return {"action": kind, "box" if kind == "open" else "edge": list(target),
            "outcomes": [dict(labels, then=_expand(best_action, state[:k] + (evidence,)
                                                   + state[k + 1:], budget))
                         for evidence, _, labels in move.branches]}
