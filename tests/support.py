"""Seeded random instances for property and acceptance tests.

Values, costs, and probabilities are small rationals so that ties and
boundary cases (zero costs, equal indices) occur often.  Instances are
capped at 3 edges and 3 support points per box, with a budget on the joint
outcome space so exact enumeration stays fast; the cycles have up to 6
edges of 2-atom boxes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from pandora_matching.algorithms import (
    DecisionRunner,
    DescendingRunner,
    enumerate_realizations,
    outcome_cuts,
    realization_weights,
    sample_realization,
)
from pandora_matching.boxes import PandoraBox
from pandora_matching.distributions import ZERO, DiscreteDistribution, DistributionError
from pandora_matching.instance import EdgeSpec, MatchingInstance, Orientation, random_orientation
from pandora_matching.nested import OutcomeNode, PathInfo, descending_run
from pandora_matching.oracle import greedy_matching
from pandora_matching.rationals import format_rational
from pandora_matching.rng import SplitMix64

ONE = Fraction(1)
VERTEX_POOL = ("a", "b", "c", "d", "e", "f")
# The third counter state of this seed is 2^64 (gamma is splitmix64's
# increment), so the stream wraps to counter 0 inside a batch of draws.
WRAP_SEED = -3 * 0x9E3779B97F4A7C15 % (1 << 64)


def next_below(rng: SplitMix64, n: int) -> int:
    """Uniform integer in [0, n) from ``rng``'s u64s, by rejection sampling."""
    if n <= 0:
        raise ValueError("n must be positive")
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % n


def rand_fraction(rng: SplitMix64, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    den = dens[next_below(rng, len(dens))]
    num = lo * den + next_below(rng, (hi - lo) * den + 1)
    return Fraction(num, den)


def rand_probs(rng: SplitMix64, k: int) -> list[Fraction]:
    if k == 1:
        return [Fraction(1)]
    den = (4, 6, 8, 12)[next_below(rng, 4)]
    while den < k:
        den *= 2
    cuts = set()
    while len(cuts) < k - 1:
        cuts.add(1 + next_below(rng, den - 1))
    points = [0] + sorted(cuts) + [den]
    return [Fraction(points[t + 1] - points[t], den) for t in range(k)]


def rand_dist(rng: SplitMix64, positive: bool = False, k: int | None = None) -> DiscreteDistribution:
    if k is None:
        k = 1 + next_below(rng, 3)
    values: set[Fraction] = set()
    while len(values) < k:
        if positive:
            values.add(rand_fraction(rng, 1, 6, dens=(1, 2)))
        else:
            values.add(rand_fraction(rng, -3, 5))
    return DiscreteDistribution(zip(sorted(values), rand_probs(rng, k)))


def rand_box(rng: SplitMix64, positive: bool = False, k: int | None = None) -> PandoraBox:
    dist = rand_dist(rng, positive, k)
    if positive:
        # keep the cost within the mean so the expectation condition holds
        den = 1 + next_below(rng, 4)
        cost = dist.expectation() * Fraction(next_below(rng, den + 1), den)
    else:
        cost = rand_fraction(rng, 0, 3, dens=(1, 2))
    return PandoraBox(dist, cost)


def _rand_edge_ids(rng: SplitMix64, max_edges: int) -> list[tuple[str, str]]:
    n_edges = 1 + next_below(rng, max_edges)
    n_vertices = min(len(VERTEX_POOL), n_edges + 1 + next_below(rng, 2))
    pool = VERTEX_POOL[:n_vertices]
    ids: set[tuple[str, str]] = set()
    guard = 0
    while len(ids) < n_edges and guard < 200:
        guard += 1
        u = pool[next_below(rng, len(pool))]
        v = pool[next_below(rng, len(pool))]
        if u != v:
            ids.add((min(u, v), max(u, v)))
    return sorted(ids)


def rand_instance(rng: SplitMix64, positive: bool = False, max_edges: int = 3,
                  budget: int = 800) -> MatchingInstance:
    while True:
        edges = [
            EdgeSpec.independent(i, j, rand_box(rng, positive), rand_box(rng, positive))
            for i, j in _rand_edge_ids(rng, max_edges)
        ]
        vertices = {v for e in edges for v in e.endpoints()}
        inst = MatchingInstance(vertices, edges)
        if inst.realization_count() <= budget:
            return inst


def rand_cycle(rng: SplitMix64, n: int) -> MatchingInstance:
    """A cycle on the first ``n`` pool vertices, two atoms in every endpoint box."""
    pool = VERTEX_POOL[:n]
    edges = [EdgeSpec.independent(u, v, rand_box(rng, k=2), rand_box(rng, k=2))
             for u, v in zip(pool, pool[1:] + pool[:1])]
    return MatchingInstance(pool, edges)


def rand_graph(rng: SplitMix64, n_vertices: int, n_edges: int) -> MatchingInstance:
    """``n_edges`` distinct vertex pairs, two atoms in every endpoint box."""
    vertices = [f"v{k:02d}" for k in range(n_vertices)]
    pairs = list(itertools.combinations(vertices, 2))
    chosen = sorted(pairs.pop(next_below(rng, len(pairs))) for _ in range(n_edges))
    edges = [EdgeSpec.independent(u, v, rand_box(rng, k=2), rand_box(rng, k=2))
             for u, v in chosen]
    return MatchingInstance(vertices, edges)


def rand_joint_edge(rng: SplitMix64, i: str, j: str) -> EdgeSpec:
    ki = 1 + next_below(rng, 3)
    kj = 1 + next_below(rng, 3)
    labels_i = [f"s{t}" for t in range(ki)]
    labels_j = [f"t{t}" for t in range(kj)]
    pairs = [(li, lj) for li in labels_i for lj in labels_j]
    probs = rand_probs(rng, len(pairs)) if len(pairs) > 1 else [Fraction(1)]
    rows = [
        (li, lj, rand_fraction(rng, -4, 6), p)
        for (li, lj), p in zip(pairs, probs)
    ]
    return EdgeSpec.joint(i, j, rand_fraction(rng, 0, 2, dens=(1, 2)),
                          rand_fraction(rng, 0, 2, dens=(1, 2)), rows)


def rand_joint_instance(rng: SplitMix64, max_edges: int = 3,
                        budget: int = 800) -> MatchingInstance:
    while True:
        edges = [rand_joint_edge(rng, i, j) for i, j in _rand_edge_ids(rng, max_edges)]
        vertices = {v for e in edges for v in e.endpoints()}
        inst = MatchingInstance(vertices, edges)
        if inst.realization_count() <= budget:
            return inst


def rand_tree(rng: SplitMix64, depth: int | None = None, max_branch: int = 3):
    """Random outcome tree with small rational costs and values."""
    if depth is None:
        depth = 1 + next_below(rng, 3)

    def build(level: int, tag: str) -> OutcomeNode:
        if level == depth:
            return OutcomeNode.leaf(rand_fraction(rng, -3, 5))
        k = 1 + next_below(rng, max_branch)
        probs = rand_probs(rng, k)
        branches = [
            (f"{tag}{t}", probs[t], build(level + 1, f"{tag}{t}."))
            for t in range(k)
        ]
        return OutcomeNode.stage(rand_fraction(rng, 0, 2, dens=(1, 2)), branches)

    return build(0, "s")


def enumerate_runs(inst: MatchingInstance, runner, enum_bound=None,
                   record_steps: bool = False):
    """Yield (realization, prob, trace) over the whole outcome space."""
    den = realization_weights(inst)[0]
    for realization, weight in enumerate_realizations(inst, enum_bound):
        yield realization, Fraction(weight, den), runner.run(realization, record_steps=record_steps)


def kappa_weights(runner, realization) -> dict:
    """A descending runner's realized terminal capped value per edge (the greedy weights)."""
    return {eid: runner.inst.edge(eid).paths(runner.directions[eid])[k].kappa1
            for eid, k in realization.items()}


def reference_montecarlo(inst: MatchingInstance, seed: int, trials: int,
                         runner=None) -> tuple[float, float]:
    """(mean, standard error) of seeded Monte Carlo, one trial at a time.

    Each trial calls ``next_u64`` once per word of one stream: without a
    ``runner`` (the randomized policy) it first draws an orientation, one
    bit per edge, and runs descending on it; then it draws one outcome per
    edge in edge order.  The welfare sums are ``Fraction``s of each trace.
    """
    rng = SplitMix64(seed)
    cuts = outcome_cuts(inst)
    runners = {}
    total = total_sq = ZERO
    for _ in range(trials):
        trial_runner = runner
        if runner is None:
            o = random_orientation(inst, rng)
            trial_runner = runners.setdefault(tuple(o.sorted_pairs()), DescendingRunner(inst, o))
        trace = trial_runner.run(sample_realization(cuts, rng))
        w = Fraction(trace.welfare, trace.scale)
        total += w
        total_sq += w * w
    mean = total / trials
    var = total_sq / trials - mean * mean
    return float(mean), math.sqrt(max(0.0, float(var)) / trials)


def general_batch(count: int, base_seed: int = 1000) -> list[MatchingInstance]:
    return [rand_instance(SplitMix64(base_seed + k)) for k in range(count)]


def positive_batch(count: int, base_seed: int = 5000) -> list[MatchingInstance]:
    return [rand_instance(SplitMix64(base_seed + k), positive=True) for k in range(count)]


def cycle_batch(count: int = 6, base_seed: int = 13000) -> dict[str, MatchingInstance]:
    """Cycles of 4, 5 and 6 edges in turn (the shapes of the benchmark's graphs), by name."""
    return {f"cycle[{k}] n={4 + k % 3}": rand_cycle(SplitMix64(base_seed + k), 4 + k % 3)
            for k in range(count)}


def joint_batch(count: int, base_seed: int = 9000) -> list[MatchingInstance]:
    return [rand_joint_instance(SplitMix64(base_seed + k)) for k in range(count)]


class OpenAllFirstStagesStrategy(DecisionRunner):
    """Deliberately exposed: open the first box of every oriented edge, stop."""

    def __init__(self, inst: MatchingInstance, orientation: Orientation):
        super().__init__(inst)
        self.first = [orientation.direction_of(eid) for eid in inst.edge_ids]

    def _next(self, opened, blocked):
        for d in self.first:
            if d not in opened:
                return "open", d, None
        return None


def reference_max_weight_matching(weights, zero=Fraction(0)):
    """Best matching by plain recursion over the positive edges in id order.

    The reference for the oracle's matching table and for the terminal
    values of ``reference_optimal_welfare``: the first matching found with
    a strictly larger total wins.
    """
    edges = sorted(eid for eid, w in weights.items() if w > 0)
    best = [frozenset(), zero]

    def recurse(k, used, chosen, total):
        if total > best[1]:
            best[:] = [frozenset(chosen), total]
        if k == len(edges):
            return
        eid = edges[k]
        recurse(k + 1, used, chosen, total)
        if eid[0] not in used and eid[1] not in used:
            recurse(k + 1, used | set(eid), chosen + [eid], total + weights[eid])

    recurse(0, set(), [], zero)
    return best[0], best[1]


def reference_kappa_welfare(laws: dict) -> Fraction:
    """Expected greedy total over the product of independent per-key laws.

    Every profile of one atom per key, times its probability, times the
    greedy total on its values: the evaluator that ``kappa_welfare``'s
    threshold sweep replaced, kept as its reference.  A law is (values
    ascending, int weights, total), as a ``DiscreteDistribution``.
    """
    ids = list(laws)
    total = ZERO
    for combo in itertools.product(*([(v, Fraction(w, t)) for v, w in zip(values, weights)]
                                     for values, weights, t in map(laws.get, ids))):
        prob = ONE
        for _, p in combo:
            prob *= p
        total += prob * greedy_matching(dict(zip(ids, (v for v, _ in combo))))[1]
    return total


def reference_kappa_sweep(laws: dict) -> Fraction:
    """``algorithms.kappa_welfare`` in ``Fraction``s, with frozenset states.

    The positive (key, atom) pairs in greedy order (value descending, then
    key) over {claimed vertices: probability}.  A state claiming neither
    vertex of the key takes the atom with probability p / (the key's mass
    at or below it); a vertex leaves the states after its last pair.  Laws
    are read as ``reference_kappa_welfare`` reads them.
    """
    pairs = []
    for key, (values, weights, t) in laws.items():
        mass = ZERO   # the key's mass at or below v
        for v, w in zip(values, weights):
            p = Fraction(w, t)
            mass += p
            if v > 0:
                pairs.append((v, key, p / mass))
    pairs.sort(key=lambda t: (-t[0], t[1]))
    last = {u: k for k, (_, key, _) in enumerate(pairs) for u in key}
    states = {frozenset(): ONE}
    total = ZERO
    for k, (v, key, q) in enumerate(pairs):
        gone = {u for u in key if last[u] == k}
        nxt = Counter()
        for claimed, prob in states.items():
            if claimed.isdisjoint(key):
                take = prob * q
                total += take * v
                nxt[claimed.union(key).difference(gone)] += take
                prob -= take
            if prob:
                nxt[claimed.difference(gone)] += prob
        states = nxt
    return total


def enumerate_joint_paths(baskets: dict):
    """All joint realizations of independent baskets with their probability."""
    ids = sorted(baskets)
    for combo in itertools.product(*(baskets[i].paths for i in ids)):
        prob = Fraction(1)
        for p in combo:
            prob *= p.prob
        yield dict(zip(ids, combo)), prob


def reference_expected_select_welfare(baskets: dict) -> Fraction:
    """Single-selection descending welfare, simulated on every joint realization."""
    total = ZERO
    for paths, prob in enumerate_joint_paths(baskets):
        total += prob * descending_run(paths).welfare
    return total


def gamma_sequence(sigmas) -> list[Fraction]:
    """Running minima of a stage-index sequence (weakly decreasing)."""
    if not sigmas:
        raise ValueError("need at least one index")
    return list(itertools.accumulate(sigmas, min))


def kappa_sequence(sigmas) -> list[Fraction]:
    """Suffix minima: the capped value seen from each stage onward."""
    if not sigmas:
        raise ValueError("need at least one index")
    out = list(sigmas)
    for i in range(len(out) - 2, -1, -1):
        out[i] = min(out[i], out[i + 1])
    return out


def reference_optimal_welfare(inst: MatchingInstance, constraint: str = "free",
                              orientation=None) -> tuple[dict, dict]:
    """The oracle's DP evaluated in Fractions by memoized recursion.

    Reads the same per-edge move tables, in the same order and with the same
    strict first-best tie-break, as ``oracle.optimal_welfare``, and takes
    terminal values from ``reference_max_weight_matching``, not from the
    oracle's matching table.  Returns the value and the best move
    (``oracle.STOP`` to stop) of every state.
    """
    from pandora_matching.oracle import STOP, _edge_moves

    tables = [_edge_moves(k, e, constraint, orientation) for k, e in enumerate(inst.edges)]
    moves = [m for m, _ in tables]
    totals = [t for _, t in tables]
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
            terminal_cache[key] = reference_max_weight_matching(weights)[1]
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

    value(tuple((-1, -1) for _ in ids))
    return memo, best_action


# ---------------------------------------------------------------------------
# Reference compile: the original recursive annotation on Fraction-dict laws
# ---------------------------------------------------------------------------

def reference_law(atoms) -> tuple:
    """A law's atoms as the original ``DiscreteDistribution`` constructor built them.

    Every value and probability goes through ``Fraction()``, equal values
    merge in a Fraction-keyed dict, the total is a Fraction sum, and the
    errors are the constructor's.
    """
    merged: dict = {}
    for value, prob in atoms:
        value = Fraction(value)
        prob = Fraction(prob)
        if prob <= 0:
            raise DistributionError(f"probability must be positive, got {prob}")
        merged[value] = merged.get(value, ZERO) + prob
    if not merged:
        raise DistributionError("distribution needs at least one atom")
    total = sum(merged.values())
    if total != 1:
        raise DistributionError(f"probabilities sum to {total}, expected 1")
    return tuple(sorted(merged.items()))


def reference_weitzman_index(atoms, cost) -> Fraction:
    """The index by a top-down scan in Fraction arithmetic."""
    atoms_desc = tuple(reversed(atoms))
    if cost == 0:
        return atoms_desc[0][0]
    head_prob = ZERO
    head_mass = ZERO
    n = len(atoms_desc)
    for k, (value, prob) in enumerate(atoms_desc):
        head_prob += prob
        head_mass += value * prob
        t = (head_mass - cost) / head_prob
        if k + 1 == n or t >= atoms_desc[k + 1][0]:
            return t
    raise AssertionError("unreachable: surplus is unbounded below")


def reference_annotate(node):
    """Backward induction by plain recursion, every node's laws built whole.

    Returns namespaces with ``value`` and ``kappa`` on leaves, and ``cost``,
    ``sigma``, ``branches``, ``kappa_next`` and ``kappa`` (atom tuples) on
    stages.
    """
    if node.is_leaf:
        return SimpleNamespace(is_leaf=True, value=node.value,
                               kappa=reference_law([(node.value, ONE)]))
    branches = tuple(
        (label, prob, reference_annotate(child)) for label, prob, child in node.branches
    )
    mixture = []
    for _, prob, child in branches:
        for v, p in child.kappa:
            mixture.append((v, p * prob))
    kappa_next = reference_law(mixture)
    sigma = reference_weitzman_index(kappa_next, node.cost)
    kappa = reference_law((min(v, sigma), p) for v, p in kappa_next)
    return SimpleNamespace(is_leaf=False, cost=node.cost, sigma=sigma, branches=branches,
                           kappa_next=kappa_next, kappa=kappa)


def reference_paths(root) -> list[PathInfo]:
    """Every root-to-leaf path of a reference tree, in tree order."""
    out = []

    def walk(node, idxs, labels, sigmas, costs, prob):
        if node.is_leaf:
            out.append(PathInfo(tuple(idxs), tuple(labels), tuple(sigmas), tuple(costs),
                                node.value, prob, min(min(sigmas), node.value)))
            return
        for bi, (label, p, child) in enumerate(node.branches):
            walk(child, idxs + [bi], labels + [label], sigmas + [node.sigma],
                 costs + [node.cost], prob * p)

    walk(root, [], [], [], [], Fraction(1))
    return out


def edge_to_basket(edge: EdgeSpec, direction) -> OutcomeNode:
    """An oriented edge as a two-stage outcome tree, from ``EdgeSpec.table``.

    Stage 1 costs cost(direction) and reveals the first endpoint's signal;
    stage 2 costs the reverse cost and reveals the edge total.
    """
    reverse_cost = edge.cost((direction[1], direction[0]))
    return OutcomeNode(cost=edge.cost(direction), branches=tuple([
        (label, Fraction(mass, edge.weight_total), OutcomeNode(cost=reverse_cost, branches=tuple([
            (second, Fraction(w, mass), OutcomeNode(edge.outcomes[k].total))
            for second, w, k in rows
        ])))
        for label, mass, rows in edge.table(direction)
    ]))


def reference_edge_basket(edge: EdgeSpec, direction=None) -> SimpleNamespace:
    """An edge compiled for a direction (None: bundled) from its outcome rows.

    Groups the rows by first signal with Fraction sums, annotates with
    ``reference_annotate`` and returns the basket's ``root`` and ``paths``,
    and ``path_of``, outcome index -> its path, as ``EdgeSpec.paths`` gives.
    """
    if direction is None:
        law = reference_law((o.total, Fraction(w, edge.weight_total))
                            for o, w in zip(edge.outcomes, edge.weights))
        tree = OutcomeNode.stage(edge.cost_ij + edge.cost_ji,
                                 [(format_rational(v), p, OutcomeNode.leaf(v)) for v, p in law])
        root = reference_annotate(tree)
        paths = reference_paths(root)
        by_label = {p.labels[0]: p for p in paths}
        path_of = {k: by_label[format_rational(o.total)] for k, o in enumerate(edge.outcomes)}
    else:
        forward = direction == (edge.i, edge.j)
        groups: dict = {}
        for k, (o, w) in enumerate(zip(edge.outcomes, edge.weights)):
            first, second = (o.label_i, o.label_j) if forward else (o.label_j, o.label_i)
            groups.setdefault(first, []).append((second, Fraction(w, edge.weight_total), k))
        branches, order = [], []
        for label in sorted(groups):
            rows = sorted(groups[label])
            marginal = sum((p for _, p, _ in rows), ZERO)
            branches.append((label, marginal, OutcomeNode.stage(
                edge.cost((direction[1], direction[0])),
                [(s, p / marginal, OutcomeNode.leaf(edge.outcomes[k].total))
                 for s, p, k in rows])))
            order += [k for _, _, k in rows]
        root = reference_annotate(OutcomeNode.stage(edge.cost(direction), branches))
        paths = reference_paths(root)
        path_of = dict(zip(order, paths))
    return SimpleNamespace(root=root, paths=paths, path_of=path_of)


def exact_atoms(law) -> tuple:
    """A law's atoms, checked to be Fraction pairs (ints would compare equal)."""
    assert all(type(x) is Fraction for atom in law.atoms for x in atom)
    return law.atoms


def assert_matches_reference(node, ref) -> None:
    """Node for node: cost, sigma, branch labels and probabilities, and laws;
    a leaf is its exact value."""
    if ref.is_leaf:
        assert type(node) is Fraction and node == ref.value
        return
    assert exact_atoms(node.capped()) == ref.kappa
    assert (node.cost, node.sigma) == (ref.cost, ref.sigma)
    assert type(node.sigma) is Fraction
    assert exact_atoms(node.kappa_next) == ref.kappa_next
    assert [(l, p) for l, p, _ in node.branches] == [(l, p) for l, p, _ in ref.branches]
    for (_, _, child), (_, _, ref_child) in zip(node.branches, ref.branches):
        assert_matches_reference(child, ref_child)
