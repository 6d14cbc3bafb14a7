"""Matching policies as runners, and the one evaluator ``expected_welfare``.

A runner has ``exact_welfare()``, and for Monte Carlo ``draws`` (coin flips
per trial) and ``row_welfare(row)``; per-realization runners also have
``run(realization) -> RunTrace``, a realization giving each edge one row of
its joint outcome table.  Descending runners sweep the per-edge capped-value
laws; ``DecisionRunner`` subclasses (vertex-based descending and the policies
of ``repro``) expand their decision tree over the endpoint-box laws.  Monte
Carlo tallies seeded splitmix64 samples and computes each distinct one once.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .boxes import weitzman_index
from .distributions import ZERO, DiscreteDistribution
from .instance import (
    MatchingInstance,
    Orientation,
    canonical_orientation,
    scaled_paths,
)
from .nested import check_non_exposure, descending_run
from .rationals import as_float, format_count
from .rng import SplitMix64, weighted_cuts

DEFAULT_ENUM_BOUND = 2_000_000
ENUM_BOUND_ENV = "PANDORA_ENUM_BOUND"

Realization = dict  # edge id -> outcome index


class EnumerationBoundError(RuntimeError):
    """Exact evaluation would exceed the enumeration bound."""

    def __init__(self, size: int, bound: int):
        super().__init__(f"exact enumeration needs {format_count(size)} weighted outcomes, "
                         f"above the bound of {format_count(bound)}")
        self.size = size
        self.bound = bound


class UnsupportedModelError(ValueError):
    """Policy applied to an instance form it is not defined for."""


def resolve_enum_bound(explicit=None) -> int:
    """The explicit bound, else PANDORA_ENUM_BOUND, else the default; at least 1."""
    if explicit is not None:
        value, source = explicit, "--enum-bound"
    else:
        value, source = os.environ.get(ENUM_BOUND_ENV), ENUM_BOUND_ENV
        if not value:
            return DEFAULT_ENUM_BOUND
    try:
        bound = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if bound < 1:
        raise ValueError(f"{source} must be at least 1, got {bound}")
    return bound


def require_within_bound(size: int, enum_bound=None) -> None:
    """Raise EnumerationBoundError if ``size`` weighted outcomes exceed the bound."""
    bound = resolve_enum_bound(enum_bound)
    if size > bound:
        raise EnumerationBoundError(size, bound)


def realization_weights(inst: MatchingInstance) -> tuple[int, list[tuple[int, ...]]]:
    """(D, per edge its outcome weights): a realization's probability is the
    product of its outcomes' weights over D, the product of the weight totals."""
    return math.prod([e.weight_total for e in inst.edges]), [e.weights for e in inst.edges]


def enumerate_realizations(inst: MatchingInstance, enum_bound=None) -> Iterator[tuple]:
    """Every realization and its probability times ``realization_weights(inst)[0]``."""
    require_within_bound(inst.realization_count(), enum_bound)
    ids = inst.edge_ids
    weights = realization_weights(inst)[1]
    for combo in itertools.product(*(range(len(w)) for w in weights)):
        yield dict(zip(ids, combo)), math.prod([w[k] for w, k in zip(weights, combo)])


def outcome_cuts(inst: MatchingInstance) -> list:
    """(edge id, cut points of its outcome weights) per edge, in edge order."""
    return [(e.id, weighted_cuts(e.weights, e.weight_total)) for e in inst.edges]


def sample_realization(cuts: list, rng: SplitMix64) -> Realization:
    """One outcome per edge, in edge order, one draw each; ``cuts`` is ``outcome_cuts(inst)``."""
    return {eid: rng.choose_weighted(c) for eid, c in cuts}


@dataclass
class RunTrace:
    """Everything one policy run did on one realization."""

    inspected: set            # directed pairs with the box opened
    matched: frozenset        # edge ids in the matching
    costs_paid: int           # these three, and a descending run's step
    matched_value: int        # indices, are integers times scale
    welfare: int
    scale: int
    steps: list = field(default_factory=list)
    nested_traces: dict = field(default_factory=dict)   # basket id -> NestedTrace


def assert_valid_trace(trace: RunTrace, inst: MatchingInstance, realization: Realization) -> None:
    """Matching legality, obligatory inspection, and welfare accounting."""
    cost, totals = inst.scaled_numbers(trace.scale)
    used = set()
    value = 0
    for eid in trace.matched:
        e = inst.edge(eid)
        if e.i in used or e.j in used:
            raise AssertionError(f"matched edges share vertex at {eid}")
        used.update(eid)
        for d in e.directions():
            if d not in trace.inspected:
                raise AssertionError(f"matched edge {eid} not fully inspected")
        value += totals[eid][realization[eid]]
    costs = sum([cost[d] for d in trace.inspected])
    if costs != trace.costs_paid or value != trace.matched_value:
        raise AssertionError("trace cost or value accounting is off")
    if trace.welfare != value - costs:
        raise AssertionError("welfare != matched value - costs")


class DescendingRunner:
    """Descending procedure over the edges' compiled baskets.

    With an orientation each edge is its oriented two-stage basket; without
    one, each edge is its bundled one-stage basket (both boxes at once).
    The runner picks each edge's cached ``EdgeSpec.basket`` on first read;
    ``run`` reads their ``EdgeSpec.paths`` times Q and the instance's
    conflict sets, which exact evaluation never builds.
    """

    draws = 0

    def __init__(self, inst: MatchingInstance, orientation: Orientation | None = None):
        if orientation is not None:
            orientation.require_covers(inst)
        self.inst = inst
        self.ids = inst.edge_ids
        self.orientation = orientation

    @functools.cached_property
    def directions(self) -> dict:
        """Edge id -> the direction of its basket, None when bundled."""
        o = self.orientation
        return {eid: None if o is None else o.direction_of(eid) for eid in self.ids}

    @functools.cached_property
    def baskets(self) -> dict:
        return {e.id: e.basket(self.directions[e.id]) for e in self.inst.edges}

    @functools.cached_property
    def scaled(self) -> tuple[int, dict]:
        """``scaled_paths`` of the baskets, built on the first run."""
        return scaled_paths(self.inst, {e.id: e.paths(self.directions[e.id])
                                        for e in self.inst.edges})

    def kappa_laws(self) -> dict:
        """Each edge's ``kappa1_law``, the law of kappa^(1)."""
        return {eid: b.kappa1_law for eid, b in self.baskets.items()}

    def exact_welfare(self) -> Fraction:
        """The expected greedy total on the baskets' capped-value laws."""
        return kappa_welfare(self.kappa_laws())

    def non_exposed(self, realization: Realization, trace: RunTrace) -> bool:
        return all(check_non_exposure(nt, self.baskets[eid])
                   for eid, nt in trace.nested_traces.items())

    def run(self, realization: Realization, record_steps: bool = False) -> RunTrace:
        q, paths = self.scaled
        res = descending_run({eid: paths[eid][k] for eid, k in realization.items()},
                             self.inst.conflicts, record_steps)
        inspected = set()   # an edge's first box once stage 1 is open, both after the last
        for eid, tr in res.traces.items():
            if tr.stages_opened == tr.path.depth:
                inspected.update((eid, eid[::-1]))
            elif tr.stages_opened:
                inspected.add(self.directions[eid])
        return RunTrace(inspected, frozenset(res.claimed_ids), res.total_costs,
                        res.claimed_value, res.welfare, q, res.steps, res.traces)

    def row_welfare(self, row: tuple) -> tuple[int, int]:
        """(w, q): welfare w / q of the run on ``row``, one outcome index per edge."""
        q, paths = self.scaled
        return descending_run({eid: paths[eid][k] for eid, k in zip(self.ids, row)},
                              self.inst.conflicts).welfare, q


class DecisionRunner:
    """A policy that decides each step from the revealed endpoint values.

    Subclasses define only ``_next(opened, blocked)``: ``opened`` maps each
    opened box's directed pair to its revealed value and ``blocked`` holds
    the matched vertices.  It returns None to stop, ("open", pair, key) to
    open a closed box, or ("match", pair, key) to match the edge of the
    opened box ``pair``, opening its partner box if needed.  ``key`` only
    labels the recorded step.  ``_next`` must ignore every box with a
    blocked endpoint: after a match ``exact_welfare`` drops those boxes'
    revealed values (``run`` keeps them).  Only defined when endpoint boxes
    are independent.
    """

    policy = "single-box decision policy"
    draws = 0

    def __init__(self, inst: MatchingInstance):
        if not inst.all_independent():
            raise UnsupportedModelError(f"{self.policy} needs independent endpoint boxes")
        self.inst = inst
        self.ids = inst.edge_ids
        self.cost = {}
        self.dist = {}
        for e in inst.edges:
            for d in e.directions():
                box = e.box(d)
                self.cost[d] = box.cost
                self.dist[d] = box.dist

    def endpoint_values(self, realization: Realization) -> dict:
        vals = {}
        for e in self.inst.edges:
            o = e.outcomes[realization[e.id]]
            vals[(e.i, e.j)] = o.v_i
            vals[(e.j, e.i)] = o.v_j
        return vals

    def run(self, realization: Realization, record_steps: bool = False) -> RunTrace:
        q = self.inst.denominator
        cost, totals = self.inst.scaled_numbers(q)
        vals = self.endpoint_values(realization)
        opened: dict = {}
        matched: set = set()
        blocked: set = set()
        costs = value = 0
        steps: list = []
        time = 0
        while (step := self._next(opened, blocked)) is not None:
            kind, pair, key = step
            if kind == "open":
                costs += cost[pair]
                opened[pair] = vals[pair]
                if record_steps:
                    steps.append((time, "open", pair, key))
            else:
                partner = (pair[1], pair[0])
                if partner not in opened:
                    costs += cost[partner]
                    opened[partner] = vals[partner]
                eid = pair if pair[0] < pair[1] else partner
                matched.add(eid)
                blocked.update(eid)
                value += totals[eid][realization[eid]]   # independent: v_i + v_j
                if record_steps:
                    steps.append((time, "match", eid, key))
            time += 1
        return RunTrace(set(opened), frozenset(matched), costs, value, value - costs, q, steps)

    def row_welfare(self, row: tuple) -> tuple[int, int]:
        """(w, q): welfare w / q of the run on ``row``, one outcome index per edge."""
        trace = self.run(dict(zip(self.ids, row)))
        return trace.welfare, trace.scale

    def exact_welfare(self) -> Fraction:
        """Exact expected welfare by expanding the policy's decision tree.

        ``_next`` reads only the revealed values and the blocked vertices, and
        endpoint boxes are independent, so an open step pays the box's cost
        and branches over the box's law.  A match step adds both values; if
        the partner box is still closed it pays the partner's cost and adds
        its mean instead of its draw, since a matched edge's endpoints are
        blocked and its boxes never steer a later step (so the match has one
        child, without the dead pairs).  An explicit stack of (probability
        as int numerator and denominator, revealed values, blocked vertices)
        holds the open nodes.
        """
        total = ZERO
        stack = [(1, 1, {}, frozenset())]
        while stack:
            num, den, opened, blocked = stack.pop()
            step = self._next(opened, blocked)
            if step is None:
                continue
            prob = Fraction(num, den)
            kind, pair, _ = step
            if kind == "open":
                total -= prob * self.cost[pair]
                values, weights, t = self.dist[pair]
                stack.extend((num * w, den * t, {**opened, pair: v}, blocked)
                             for v, w in zip(values, weights))
                continue
            partner = (pair[1], pair[0])
            if partner in opened:
                gain = opened[pair] + opened[partner]
            else:
                gain = opened[pair] + self.dist[partner].expectation() - self.cost[partner]
            total += prob * gain
            blocked = blocked.union(pair)
            stack.append((num, den, {d: v for d, v in opened.items() if blocked.isdisjoint(d)},
                          blocked))
        return total


class VertexBasedDescendingRunner(DecisionRunner):
    """Descending over single-box indices and revealed endpoint values.

    Considers the highest index among unopened boxes of feasible edges and
    the highest revealed value among opened ones; opens while the index is
    strictly larger, otherwise matches the edge of the best revealed value
    (opening its partner box if needed).  Stops once the best candidate is
    not positive.  Ties go to the smaller directed pair.
    """

    policy = "vertex-based descending"

    def __init__(self, inst: MatchingInstance):
        super().__init__(inst)
        self.sigma = {d: weitzman_index(e.box(d))
                      for e in inst.edges for d in e.directions()}
        # every directed pair, highest index first, ties to the smaller pair
        self._by_index = sorted(self.sigma, key=lambda d: (-self.sigma[d], d))

    def _next(self, opened: dict, blocked) -> tuple | None:
        """("open", pair, index) for the unopened box of highest index, or
        ("match", pair, value) for the opened box of highest value, whichever
        is larger (the match on a tie); pairs with a blocked endpoint are out.
        """
        best_sigma = best_sigma_pair = None
        for d in self._by_index:
            if d not in opened and d[0] not in blocked and d[1] not in blocked:
                best_sigma, best_sigma_pair = self.sigma[d], d
                break
        best_val = best_val_pair = None
        for d, v in opened.items():
            if d[0] in blocked or d[1] in blocked:
                continue
            if best_val is None or v > best_val or (v == best_val and d < best_val_pair):
                best_val, best_val_pair = v, d
        candidates = [x for x in (best_sigma, best_val) if x is not None]
        if not candidates or max(candidates) <= 0:
            return None
        if best_sigma is not None and (best_val is None or best_sigma > best_val):
            return "open", best_sigma_pair, best_sigma
        return "match", best_val_pair, best_val

    def non_exposed(self, realization: Realization, trace: RunTrace) -> bool:
        """No opened box showed a value above its index on an unmatched edge."""
        values = self.endpoint_values(realization)
        return not any(values[(u, v)] > self.sigma[(u, v)]
                       and (min(u, v), max(u, v)) not in trace.matched
                       for u, v in trace.inspected)


def kappa_welfare(laws: dict) -> Fraction:
    """Expected greedy total over independent per-key capped-value laws.

    A law is (Fraction values ascending, int weights, total), as the
    ``DiscreteDistribution`` ``AnnotatedBasket.kappa1_law``.  A key is the
    vertex pair that taking it claims: an edge id, or ``("*", name)`` for
    single selection.  By amortization and greedy equivalence (heavier
    first, ties to the smaller key) this is the exact welfare of a
    descending run whose baskets have these laws.

    The sweep scans the positive (key, atom) pairs in greedy order over
    {claimed vertices: probability}.  A state claiming neither vertex of the
    key has passed its higher atoms untaken, so it takes this one with
    probability w / (the key's weight at or below it), alike in every state
    as keys are independent.  A vertex leaves the states after its last
    pair, merging the states that become equal.  States are bitmasks, values
    ints times V (their common denominator) and probabilities ints over a
    running denominator D, multiplied by each pair's weight at or below.
    """
    bits: dict = {}
    atoms = []   # (value, key, key's bitmask, weight, weight at or below), reduced
    for key, (values, weights, _) in laws.items():
        mask = 0
        for u in key:
            mask |= 1 << bits.setdefault(u, len(bits))
        mass = 0
        for v, w in zip(values, weights):
            mass += w
            if v.numerator > 0:
                g = math.gcd(w, mass)
                atoms.append((v, key, mask, w // g, mass // g))
    if not atoms:
        return ZERO
    vden = math.lcm(*[a[0].denominator for a in atoms])
    # value descending, then key; (value, key) never repeats
    pairs = sorted([(-v.numerator * (vden // v.denominator), *rest) for v, *rest in atoms])
    # per pair, the vertices of the pairs after it: the others leave the states
    lives = list(itertools.accumulate([p[2] for p in pairs[:0:-1]], int.__or__, initial=0))
    states = {0: 1}
    total, den = 0, 1
    for (neg, _, mask, w, mass), live in zip(pairs, reversed(lives)):
        nxt = defaultdict(int)
        rest = mass - w
        free = 0
        for claimed, p in states.items():
            if claimed & mask:
                nxt[claimed & live] += p * mass
            else:
                free += p
                nxt[(claimed | mask) & live] += p * w
                if rest:
                    nxt[claimed & live] += p * rest
        states = nxt
        total = total * mass - free * w * neg
        den *= mass
    return Fraction(total, den * vden)


# Distinct samples the Monte Carlo welfare cache keeps across batches.
MC_CHUNK = 1 << 12
# Words of the SplitMix64 stream Monte Carlo draws at a time (whole trials,
# at least one), so a batch's memory is capped whatever the edge count.
MC_BATCH_WORDS = 1 << 13


def _montecarlo(inst: MatchingInstance, seed: int, trials: int, bits: int,
                row_welfare) -> tuple[float, float]:
    """(mean, standard error) of the welfare over seeded trials.

    A trial reads ``bits + |E|`` words of one stream: ``bits`` orientation
    bits (a word's top bit each), then each edge's outcome in edge order
    (``choose_weighted`` on its cuts).  Its ``row`` is those bits then the
    outcome indices, and its welfare is w / q for ``(w, q) = row_welfare(row)``,
    one q for all.  Each batch draws its words at once, reads one strided
    column per word position and tallies the rows; a distinct row is looked
    up in a bounded cache, computed only on a miss.  The integer sums of
    count * w and count * w^2 equal the sums over the trials one by one.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = SplitMix64(seed)
    cuts = [c for _, c in outcome_cuts(inst)]
    width = bits + len(cuts)
    per_batch = max(1, MC_BATCH_WORDS // max(1, width))
    welfare = functools.lru_cache(maxsize=MC_CHUNK)(row_welfare)
    acc = acc_sq = 0
    for start in range(0, trials, per_batch):
        n = min(per_batch, trials - start)
        words = rng.next_u64s(n * width)
        columns = [[x >> 63 for x in words[k::width]] for k in range(bits)]
        columns += [list(map(functools.partial(bisect_right, c), words[k::width]))
                    for k, c in enumerate(cuts, bits)]
        del words
        for row, count in (Counter(zip(*columns)) if width else {(): n}).items():
            w, q = welfare(row)
            cw = count * w
            acc += cw
            acc_sq += cw * w
    mean = Fraction(acc, trials * q)
    var = Fraction(acc_sq, trials * q * q) - mean * mean
    try:
        stderr = math.sqrt(float(var) / trials)
    except OverflowError:   # var is past the float range, its root may not be
        stderr = as_float(Fraction(math.isqrt(var.numerator // (var.denominator * trials))))
    return as_float(mean), stderr


def expected_welfare(inst: MatchingInstance, runner, mode: str = "exact", seed: int | None = None,
                     trials: int = 100_000, enum_bound=None):
    """A runner's exact expected welfare, or a seeded (mean, stderr) estimate.

    Exact mode first refuses more than the bound of weighted outcomes: the
    realizations times 2^``runner.draws``, whatever way the runner computes.
    """
    if mode == "exact":
        require_within_bound(2 ** runner.draws * inst.realization_count(), enum_bound)
        return runner.exact_welfare()
    if mode == "montecarlo":
        if seed is None:
            raise ValueError("montecarlo mode requires a seed")
        return _montecarlo(inst, seed, trials, runner.draws, runner.row_welfare)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Policies built on top of the oriented descending procedure
# ---------------------------------------------------------------------------

class RandomizedRunner:
    """Uniform-random orientation, then oriented descending.

    Each edge's direction is a fair coin, so the exact welfare (the average
    over all 2^|E| orientations) is the expected greedy total on the half/half
    mixtures of each edge's two directed capped-value laws.  A Monte Carlo row
    is one bit per edge in edge order (as ``random_orientation``), then the
    realization; each edge runs its path through the basket its bit selects.
    """

    def __init__(self, inst: MatchingInstance):
        self.inst = inst
        self.ids = inst.edge_ids
        self.draws = len(self.ids)

    def exact_welfare(self) -> Fraction:
        return kappa_welfare({e.id: _mixture(*(e.basket(d).kappa1_law
                                               for d in e.directions()))
                              for e in self.inst.edges})

    @functools.cached_property
    def scaled(self) -> tuple[int, dict]:
        """``scaled_paths`` keyed by (edge id, orientation bit), built on the first row."""
        return scaled_paths(self.inst, {(e.id, bit): e.paths(d) for e in self.inst.edges
                                        for bit, d in enumerate(e.directions())})

    def row_welfare(self, row: tuple) -> tuple[int, int]:
        q, tables = self.scaled
        paths = {eid: tables[eid, bit][k] for eid, bit, k in zip(self.ids, row, row[self.draws:])}
        return descending_run(paths, self.inst.conflicts).welfare, q


def _mixture(a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
    """The half/half mixture of two laws: both weights over the lcm of the
    totals, merged by value, over twice that lcm."""
    lcm = math.lcm(a.total, b.total)
    return DiscreteDistribution.merged([(v, w * (lcm // t)) for values, weights, t in (a, b)
                                        for v, w in zip(values, weights)], 2 * lcm)


class BestOfTwoRunner(DescendingRunner):
    """Oriented descending on the canonical orientation or its reverse, whichever
    has the larger exact welfare (ties to the canonical); both sweep once, on first use."""

    def __init__(self, inst: MatchingInstance):
        self.inst, self.ids = inst, inst.edge_ids

    @functools.cached_property
    def _choice(self) -> tuple[Orientation, Fraction]:
        o = canonical_orientation(self.inst)
        w, w_rev = (DescendingRunner(self.inst, x).exact_welfare() for x in (o, o.reverse()))
        return (o.reverse(), w_rev) if w_rev > w else (o, w)

    orientation = property(lambda self: self._choice[0])

    def exact_welfare(self) -> Fraction:
        return self._choice[1]


def best_of_two(inst: MatchingInstance, enum_bound=None) -> tuple[Orientation, Fraction]:
    """(orientation, exact welfare) of the best-of-two policy."""
    runner = BestOfTwoRunner(inst)
    welfare = expected_welfare(inst, runner, enum_bound=enum_bound)
    return runner.orientation, welfare


def edge_based_orientation(inst: MatchingInstance) -> Orientation:
    """Orient each edge in the direction whose two-stage basket has the
    larger initial index, ties to the canonical direction."""
    return Orientation(max(e.directions(), key=lambda d: e.basket(d).sigma1)
                       for e in inst.edges)


POLICY_NAMES = ("oriented-desc", "randomized", "best-of-two", "bundled",
                "vertex-based", "edge-based")


def make_runner(inst: MatchingInstance, policy: str, orientation: Orientation | None = None):
    """The runner of one of ``POLICY_NAMES``; ``orientation`` is oriented-desc's,
    canonical by default."""
    if policy == "oriented-desc":
        return DescendingRunner(inst, orientation or canonical_orientation(inst))
    if policy == "edge-based":
        return DescendingRunner(inst, edge_based_orientation(inst))
    runners = {"randomized": RandomizedRunner, "best-of-two": BestOfTwoRunner,
               "bundled": DescendingRunner, "vertex-based": VertexBasedDescendingRunner}
    if policy not in runners:
        raise ValueError(f"unknown policy {policy!r}")
    return runners[policy](inst)
