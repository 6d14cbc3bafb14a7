import itertools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pandora_matching import algorithms
from pandora_matching.algorithms import (
    DescendingRunner,
    EnumerationBoundError,
    POLICY_NAMES,
    RandomizedRunner,
    UnsupportedModelError,
    VertexBasedDescendingRunner,
    assert_valid_trace,
    best_of_two,
    edge_based_orientation,
    expected_welfare,
    kappa_welfare,
    make_runner,
    outcome_cuts,
    sample_realization,
)
from pandora_matching.boxes import PandoraBox
from pandora_matching.checks import summarize
from pandora_matching.distributions import ZERO, DiscreteDistribution
from pandora_matching.instance import (
    EdgeSpec,
    MatchingInstance,
    Orientation,
    canonical_orientation,
    random_orientation,
)
from pandora_matching.oracle import StateBoundError, greedy_matching
from pandora_matching.repro import (
    bundled_star,
    indistinguishable_edge,
    no_dessert_edge,
    no_dessert_star,
)
from pandora_matching.rng import SplitMix64

from support import (
    WRAP_SEED,
    cycle_batch,
    enumerate_runs,
    general_batch,
    joint_batch,
    kappa_weights,
    next_below,
    positive_batch,
    rand_graph,
    rand_instance,
    reference_kappa_sweep,
    reference_kappa_welfare,
    reference_montecarlo,
)
from test_distributions import dist


def symmetric_edge():
    box = PandoraBox(dist((0, F(1, 2)), (3, F(1, 2))), F(1, 2))
    return MatchingInstance("ab", [EdgeSpec.independent("a", "b", box, box)])


class TestOrientedDescending:
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4)])
    def test_forward_welfare(self, alpha):
        inst = no_dessert_edge(alpha).instance
        runner = DescendingRunner(inst, Orientation([("i", "j")]))
        assert expected_welfare(inst, runner) == 1 - alpha

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4)])
    def test_reverse_welfare(self, alpha):
        inst = no_dessert_edge(alpha).instance
        runner = DescendingRunner(inst, Orientation([("j", "i")]))
        assert expected_welfare(inst, runner) == alpha - alpha ** 2

    def test_empty_graph(self):
        inst = MatchingInstance("ab", [])
        runner = DescendingRunner(inst, Orientation([]))
        trace = runner.run({})
        assert trace.welfare == 0 and not trace.matched and not trace.inspected
        assert expected_welfare(inst, runner) == 0

    def test_hub_instance_matches_selection_value(self):
        inst = no_dessert_star(F(1, 2), 2).instance
        pairs = [(e.j, e.i) for e in inst.edges]
        runner = DescendingRunner(inst, Orientation(pairs))
        welfare = expected_welfare(inst, runner)
        # all edges share the hub, so the claimed capped value is the best one
        expected = ZERO
        for realization, prob, _ in enumerate_runs(inst, runner):
            best = max(max(k, ZERO) for k in kappa_weights(runner, realization).values())
            expected += prob * best
        assert welfare == expected == 2

    def test_traces_are_valid(self):
        rng = SplitMix64(1)
        for _ in range(15):
            inst = rand_instance(rng)
            runner = DescendingRunner(inst, canonical_orientation(inst))
            for realization, _, trace in enumerate_runs(inst, runner):
                assert_valid_trace(trace, inst, realization)

    def test_runners_share_compiled_edges_and_conflicts(self):
        inst = no_dessert_star(F(1, 2), 2).instance
        o = canonical_orientation(inst)
        for orientation in (o, o.reverse(), None):
            first, second = (DescendingRunner(inst, orientation) for _ in range(2))
            conflicts = inst.conflicts
            for runner in (first, second):
                runner.run({eid: 0 for eid in inst.edge_ids})
                assert inst.conflicts is conflicts
            for e in inst.edges:
                d = None if orientation is None else orientation.direction_of(e.id)
                assert first.baskets[e.id] is second.baskets[e.id] is e.basket(d)
                assert first.kappa_laws()[e.id] is e.basket(d).kappa1_law
                assert e.paths(d) is e.paths(d)

    def test_exact_evaluation_builds_no_conflict_sets(self):
        inst = no_dessert_star(F(1, 2), 2).instance
        runner = DescendingRunner(inst, canonical_orientation(inst))
        runner.exact_welfare()
        assert "conflicts" not in vars(inst)
        runner.run({eid: 0 for eid in inst.edge_ids})
        assert "conflicts" in vars(inst)

    def test_conflicts_are_the_edges_sharing_an_endpoint(self):
        for inst in general_batch(30) + [no_dessert_star(F(1, 2), 3).instance]:
            assert inst.conflicts == {
                e.id: {f.id for f in inst.edges if f is not e and set(f.id) & set(e.id)}
                for e in inst.edges}

    def test_matching_equals_greedy_on_capped_weights(self):
        rng = SplitMix64(2)
        for _ in range(15):
            inst = rand_instance(rng)
            for o in (canonical_orientation(inst), canonical_orientation(inst).reverse()):
                runner = DescendingRunner(inst, o)
                for realization, _, trace in enumerate_runs(inst, runner):
                    weights = kappa_weights(runner, realization)
                    assert trace.matched == greedy_matching(weights)[0]


class TestExpectedWelfare:
    def test_exact_quarter_alpha(self):
        inst = no_dessert_edge(F(1, 4)).instance
        runner = DescendingRunner(inst, Orientation([("i", "j")]))
        assert expected_welfare(inst, runner) == F(3, 4)

    def test_bound_errors_show_a_huge_count_as_a_power_of_two(self):
        # Python refuses to write an int of more than 4,300 digits in decimal
        huge = 10 ** 5000
        power = f"at least 2^{huge.bit_length() - 1}"
        assert power == "at least 2^16609"
        enum, states = EnumerationBoundError(huge, 2), StateBoundError(huge, 2)
        assert str(enum) == (f"exact enumeration needs {power} weighted outcomes, "
                             "above the bound of 2")
        assert str(states) == f"oracle state space has {power} states, above the bound of 2"
        assert enum.size == states.estimate == huge
        assert "needs 33554432 weighted" in str(EnumerationBoundError(33554432, 2))
        assert f"has {10 ** 30 - 1} states" in str(StateBoundError(10 ** 30 - 1, 2))
        assert "has at least 2^99 states" in str(StateBoundError(10 ** 30, 2))

    def test_enumeration_bound(self):
        inst = no_dessert_edge(F(1, 2)).instance
        runner = DescendingRunner(inst, canonical_orientation(inst))
        with pytest.raises(EnumerationBoundError):
            expected_welfare(inst, runner, enum_bound=2)

    def test_montecarlo_requires_seed(self):
        inst = no_dessert_edge(F(1, 2)).instance
        runner = DescendingRunner(inst, canonical_orientation(inst))
        with pytest.raises(ValueError):
            expected_welfare(inst, runner, "montecarlo")

    @pytest.mark.parametrize("trials", [0, -5])
    def test_montecarlo_rejects_trials_below_one_before_running(self, trials):
        class NeverRun:
            draws = 0

            def run(self, realization, record_steps=False):
                raise AssertionError("ran a trial")

            def row_welfare(self, row):
                raise AssertionError("ran a trial")

        inst = no_dessert_edge(F(1, 2)).instance
        with pytest.raises(ValueError, match="trials must be at least 1"):
            expected_welfare(inst, NeverRun(), "montecarlo", seed=1, trials=trials)

    def test_montecarlo_is_deterministic_given_seed(self):
        inst = no_dessert_edge(F(1, 2)).instance
        runner = DescendingRunner(inst, canonical_orientation(inst))
        a = expected_welfare(inst, runner, "montecarlo", seed=5, trials=2000)
        b = expected_welfare(inst, runner, "montecarlo", seed=5, trials=2000)
        assert a == b

    def test_montecarlo_runs_each_distinct_realization_once(self):
        inst = no_dessert_edge(F(1, 2)).instance
        runner = DescendingRunner(inst, canonical_orientation(inst))
        runs = []

        class Counting:
            draws = 0

            def run(self, realization, record_steps=False):
                runs.append(dict(realization))
                return runner.run(realization, record_steps)

            def row_welfare(self, row):
                trace = self.run(dict(zip(inst.edge_ids, row)))
                return trace.welfare, trace.scale

        estimate = expected_welfare(inst, Counting(), "montecarlo", seed=11, trials=10_000)
        assert len(runs) <= inst.realization_count()
        assert len({tuple(r.items()) for r in runs}) == len(runs)
        assert estimate == expected_welfare(inst, runner, "montecarlo", seed=11, trials=10_000)

    def test_montecarlo_chunks_leave_estimates_unchanged(self, monkeypatch):
        inst = bundled_star(3).instance
        runner = DescendingRunner(inst)
        whole = expected_welfare(inst, runner, "montecarlo", seed=5, trials=2000)
        rand = expected_welfare(inst, RandomizedRunner(inst), "montecarlo", seed=5, trials=2000)
        monkeypatch.setattr(algorithms, "MC_CHUNK", 7)
        monkeypatch.setattr(algorithms, "MC_BATCH_WORDS", 5)
        assert expected_welfare(inst, runner, "montecarlo", seed=5, trials=2000) == whole
        assert expected_welfare(inst, RandomizedRunner(inst), "montecarlo",
                                seed=5, trials=2000) == rand


class TestRandomizedMatching:
    def test_single_edge_average_of_both_orientations(self):
        inst = no_dessert_edge(F(1, 2)).instance
        assert expected_welfare(inst, RandomizedRunner(inst)) == F(3, 8)  # ((1-a) + (a-a^2)) / 2

    def test_empty_graph(self):
        inst = MatchingInstance("ab", [])
        assert expected_welfare(inst, RandomizedRunner(inst)) == 0

    def test_indistinguishable_edge_average(self):
        inst = indistinguishable_edge().instance
        values = []
        for pairs in ([("i", "j")], [("j", "i")]):
            runner = DescendingRunner(inst, Orientation(pairs))
            values.append(expected_welfare(inst, runner))
        assert expected_welfare(inst, RandomizedRunner(inst)) == sum(values) / 2

    def test_compiles_each_edge_direction_once(self, monkeypatch):
        from pandora_matching import instance as instance_mod

        calls = []
        compile_basket = instance_mod.oriented_basket
        monkeypatch.setattr(instance_mod, "oriented_basket",
                            lambda edge, d: calls.append(d) or compile_basket(edge, d))
        inst = no_dessert_star(F(1, 2), 2).instance
        assert len(inst.edges) == 3
        expected_welfare(inst, RandomizedRunner(inst))
        assert len(calls) == 2 * len(inst.edges)

    def test_montecarlo_draws_orientation_then_realization(self):
        inst = bundled_star(3).instance
        for seed in range(20):
            rng = SplitMix64(seed)
            o = random_orientation(inst, rng)
            trace = DescendingRunner(inst, o).run(sample_realization(outcome_cuts(inst), rng))
            w = F(trace.welfare, trace.scale)
            assert expected_welfare(inst, RandomizedRunner(inst), "montecarlo",
                                    seed=seed, trials=1) == (float(w), 0.0)

    def test_montecarlo_within_four_standard_errors(self):
        inst = bundled_star(3).instance
        exact = expected_welfare(inst, RandomizedRunner(inst))
        assert exact == F(65, 54)
        mean, stderr = expected_welfare(inst, RandomizedRunner(inst), "montecarlo",
                                        seed=20240809, trials=20_000)
        assert stderr > 0
        assert abs(mean - float(exact)) <= 4 * stderr

    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 10}, "requires a seed"),
        ({"seed": 1, "trials": 0}, "trials must be at least 1"),
    ], ids=["no-seed", "zero-trials"])
    def test_montecarlo_rejects_bad_arguments(self, kwargs, message):
        inst = no_dessert_edge(F(1, 2)).instance
        with pytest.raises(ValueError, match=message):
            expected_welfare(inst, RandomizedRunner(inst), "montecarlo", **kwargs)


class TestBestOfTwo:
    def test_single_edge_picks_forward(self):
        inst = no_dessert_edge(F(1, 2)).instance
        o, w = best_of_two(inst)
        assert o == Orientation([("i", "j")]) and w == F(1, 2)

    def test_symmetric_edge_tie_goes_canonical(self):
        inst = symmetric_edge()
        o, w = best_of_two(inst)
        assert o == canonical_orientation(inst)

    def test_hub_instance_picks_reversed_copies(self):
        inst = no_dessert_star(F(1, 4), 2).instance
        o, w = best_of_two(inst)
        assert o == canonical_orientation(inst).reverse()
        assert w == F(2175, 512)


class TestBundledDescending:
    def test_star_welfare_at_most_one(self):
        inst = bundled_star(4).instance
        welfare = expected_welfare(inst, DescendingRunner(inst))
        assert welfare <= 1

    def test_negative_bundle_never_inspected(self):
        e = EdgeSpec.independent("a", "b",
                                 PandoraBox(dist((1, 1)), 2),
                                 PandoraBox(dist((-1, 1)), 1))
        inst = MatchingInstance("ab", [e])
        runner = DescendingRunner(inst)
        for _, _, trace in enumerate_runs(inst, runner):
            assert not trace.inspected and trace.welfare == 0

    def test_disjoint_edges_match_iff_positive_total(self):
        coin = PandoraBox(dist((0, F(1, 2)), (4, F(1, 2))), F(1, 2))
        free0 = PandoraBox(dist((0, 1)), 0)
        edges = [EdgeSpec.independent("a", "b", coin, free0),
                 EdgeSpec.independent("c", "d", coin, free0)]
        inst = MatchingInstance("abcd", edges)
        runner = DescendingRunner(inst)
        for realization, _, trace in enumerate_runs(inst, runner):
            expected = {eid for eid, k in realization.items()
                        if inst.edge(eid).outcomes[k].total > 0}
            assert trace.matched == expected

    def test_inspects_both_endpoints_together(self):
        inst = indistinguishable_edge().instance
        runner = DescendingRunner(inst)
        for _, _, trace in enumerate_runs(inst, runner):
            assert (("i", "j") in trace.inspected) == (("j", "i") in trace.inspected)


class TestVertexBasedDescending:
    def test_empty_graph(self):
        inst = MatchingInstance("ab", [])
        assert VertexBasedDescendingRunner(inst).run({}).welfare == 0

    def test_joint_edge_rejected(self):
        e = EdgeSpec.joint("a", "b", 1, 1, [("x", "y", F(2), F(1))])
        inst = MatchingInstance("ab", [e])
        with pytest.raises(UnsupportedModelError):
            VertexBasedDescendingRunner(inst)

    def test_indistinguishable_edge_matches_always(self):
        # both indices are 1, so the procedure opens, sees either 9 or 2
        # above the remaining index, and matches the edge every time
        inst = indistinguishable_edge().instance
        runner = VertexBasedDescendingRunner(inst)
        welfare = ZERO
        for realization, prob, trace in enumerate_runs(inst, runner):
            assert trace.matched == {("i", "j")}
            welfare += prob * F(trace.welfare, trace.scale)
        assert welfare == F(-3, 2)

    def test_welfare_equals_claimed_capped_sum(self):
        # non-exposure makes welfare equal the matched capped values
        inst = indistinguishable_edge().instance
        runner = VertexBasedDescendingRunner(inst)
        e = inst.edges[0]
        capped = ZERO
        for realization, prob, trace in enumerate_runs(inst, runner):
            o = e.outcomes[realization[e.id]]
            if e.id in trace.matched:
                capped += prob * (min(o.v_i, runner.sigma[("i", "j")]) +
                                  min(o.v_j, runner.sigma[("j", "i")]))
        assert expected_welfare(inst, runner) == capped == F(-3, 2)

    def test_stops_when_nothing_positive(self):
        e = EdgeSpec.independent("a", "b",
                                 PandoraBox(dist((-1, 1)), 0),
                                 PandoraBox(dist((-2, 1)), 0))
        inst = MatchingInstance("ab", [e])
        trace = VertexBasedDescendingRunner(inst).run({("a", "b"): 0})
        assert not trace.inspected and trace.welfare == 0

    def test_endpoint_labels_cannot_be_exploited(self):
        # the endpoints tie on cost and index, so flipping which one sorts
        # first must not change the welfare
        skewed = PandoraBox(dist((9, F(1, 8)), (-3, F(7, 8))), 1)
        sure = PandoraBox(dist((2, 1)), 1)
        welfare = {}
        for labels, first in ((("a", "b"), skewed), (("a", "b"), sure)):
            boxes = (first, sure if first is skewed else skewed)
            inst = MatchingInstance(labels, [EdgeSpec.independent(*labels, *boxes)])
            runner = VertexBasedDescendingRunner(inst)
            welfare[first is skewed] = expected_welfare(inst, runner)
        assert welfare[True] == welfare[False] == F(-3, 2)


class TestEdgeBasedOrientation:
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4), F(1, 8)])
    def test_picks_higher_initial_index(self, alpha):
        inst = no_dessert_edge(alpha).instance
        assert edge_based_orientation(inst) == Orientation([("j", "i")])

    def test_symmetric_edge_ties_to_canonical(self):
        inst = symmetric_edge()
        assert edge_based_orientation(inst) == canonical_orientation(inst)

    def test_ratio_alpha_on_the_bare_edge(self):
        alpha = F(1, 4)
        inst = no_dessert_edge(alpha).instance
        chosen = edge_based_orientation(inst)
        w_chosen = expected_welfare(inst, DescendingRunner(inst, chosen))
        w_other = expected_welfare(
            inst, DescendingRunner(inst, chosen.reverse()))
        assert w_chosen / w_other == alpha

    def test_make_runner_uses_edge_based_orientation(self):
        inst = no_dessert_edge(F(1, 4)).instance
        runner = make_runner(inst, "edge-based")
        assert runner.orientation == Orientation([("j", "i")])

    def test_make_runner_refuses_an_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            make_runner(no_dessert_edge(F(1, 4)).instance, "nope")

    def test_works_on_joint_edges(self):
        # one signal is cheap and uninformative, so its basket index is lower
        e = EdgeSpec.joint("a", "b", F(3), F(1, 4),
                           [("x", "u", F(8), F(1, 4)), ("x", "v", F(0), F(1, 4)),
                            ("y", "u", F(8), F(1, 4)), ("y", "v", F(0), F(1, 4))])
        inst = MatchingInstance("ab", [e])
        chosen = edge_based_orientation(inst)
        fwd = DescendingRunner(inst, Orientation([("a", "b")])).baskets[e.id].sigma1
        rev = DescendingRunner(inst, Orientation([("b", "a")])).baskets[e.id].sigma1
        assert rev > fwd
        assert chosen == Orientation([("b", "a")])


def named_instances() -> dict:
    named = {f"bundled-star n={n}": bundled_star(n).instance for n in range(1, 7)}
    for a in ("1/2", "1/4", "1/8"):
        for m in (1, 2, 3):
            named[f"no-dessert-star alpha={a} m={m}"] = no_dessert_star(F(a), m).instance
    named["indistinguishable-edge"] = indistinguishable_edge().instance
    return named


@pytest.fixture(scope="module")
def profile_inputs() -> list:
    return (general_batch(200) + positive_batch(100) + joint_batch(50)
            + list(named_instances().values()))


def simulated_welfare(inst, runner):
    """Expected welfare by running the descending simulation on every realization."""
    return sum((prob * F(trace.welfare, trace.scale)
                for _, prob, trace in enumerate_runs(inst, runner)), ZERO)


DESCENDING_RUNNERS = {
    "canonical": lambda inst: DescendingRunner(inst, canonical_orientation(inst)),
    "reverse": lambda inst: DescendingRunner(inst, canonical_orientation(inst).reverse()),
    "edge-based": lambda inst: make_runner(inst, "edge-based"),
    "bundled": lambda inst: DescendingRunner(inst),
}


class TestInspectedBoxes:
    """A descending run inspects an edge's first box once stage 1 of its
    oriented basket is open, and both boxes once the last stage is."""

    @pytest.mark.parametrize("variant", ["canonical", "reverse", "bundled"])
    def test_inspected_follows_the_stages_opened(self, variant):
        seen = set()
        for inst in general_batch(200) + joint_batch(50):
            runner = DESCENDING_RUNNERS[variant](inst)
            for _, _, trace in enumerate_runs(inst, runner, record_steps=True):
                opens = Counter(s.basket_id for s in trace.steps if s.action == "open")
                expected = set()
                for e in inst.edges:
                    d = runner.directions[e.id]
                    depth = 1 if d is None else 2
                    nested = trace.nested_traces[e.id]
                    assert (nested.path.depth, nested.stages_opened) == (depth, opens[e.id])
                    if opens[e.id] == depth:
                        expected.update(e.directions())
                    elif opens[e.id]:
                        expected.add(d)
                    seen.add((depth, opens[e.id]))
                assert trace.inspected == expected
        assert seen == ({(1, 0), (1, 1)} if variant == "bundled" else {(2, 0), (2, 1), (2, 2)})


def tied_path(vertex_order: str) -> MatchingInstance:
    """Three identical edges along a path; all three tie whenever their values do."""
    box = PandoraBox(dist((0, F(1, 2)), (3, F(1, 2))), F(1, 2))
    edges = [EdgeSpec.independent(min(u, v), max(u, v), box, box)
             for u, v in zip(vertex_order, vertex_order[1:])]
    return MatchingInstance(vertex_order, edges)


class TestPathTablesAreLazy:
    """Exact policies read only sigma^1 and the kappa^1 laws of each basket."""

    @staticmethod
    def built_tables(inst):
        keys = [(e, d) for e in inst.edges for d in (*e.directions(), None)]
        return [(e.id, d) for e, d in keys if d in e._paths or "paths" in vars(e.basket(d))]

    @pytest.mark.parametrize("named", [bundled_star(4), no_dessert_star(F(1, 4), 2),
                                       indistinguishable_edge()], ids=lambda n: n.name)
    def test_exact_policies_build_no_path_table(self, named):
        inst = named.instance
        expected_welfare(inst, RandomizedRunner(inst))
        best_of_two(inst)
        for policy in ("bundled", "edge-based"):
            expected_welfare(inst, make_runner(inst, policy))
        assert self.built_tables(inst) == []
        for runner in (DescendingRunner(inst), DescendingRunner(inst, canonical_orientation(inst)),
                       DescendingRunner(inst, canonical_orientation(inst).reverse())):
            s = summarize(inst, runner)
            assert s.traces_valid and s.non_exposed and s.greedy_equal
            assert s.welfare == expected_welfare(inst, runner)
        assert len(self.built_tables(inst)) == 3 * len(inst.edges)


class TestKappaProfileWelfare:
    """The capped-value profile sum equals the stage-by-stage simulation."""

    @pytest.mark.parametrize("variant", sorted(DESCENDING_RUNNERS))
    def test_fast_path_equals_simulation(self, profile_inputs, variant):
        for inst in profile_inputs:
            runner = DESCENDING_RUNNERS[variant](inst)
            assert expected_welfare(inst, runner) == simulated_welfare(inst, runner)

    def test_randomized_equals_mean_over_all_orientations(self, profile_inputs):
        for inst in profile_inputs:
            orientations = list(itertools.product(*(e.directions() for e in inst.edges)))
            total = sum((simulated_welfare(inst, DescendingRunner(inst, Orientation(pairs)))
                         for pairs in orientations), ZERO)
            assert expected_welfare(inst, RandomizedRunner(inst)) == total / len(orientations)

    @pytest.mark.parametrize("vertex_order", ["abcd", "cabd"])
    def test_tied_edges_follow_the_descending_tie_rule(self, vertex_order):
        # On "cabd" the middle edge (a, b) has the smallest id, so taking tied
        # edges smallest id first claims one edge where another order claims two.
        inst = tied_path(vertex_order)
        tied = dict.fromkeys(inst.edge_ids, F(5, 2))
        assert greedy_matching(tied)[1] == (F(5, 2) if vertex_order == "cabd" else 5)
        for variant, make in sorted(DESCENDING_RUNNERS.items()):
            runner = make(inst)
            laws = runner.kappa_laws()
            assert all(laws[eid] == laws[inst.edge_ids[0]] for eid in inst.edge_ids)
            assert expected_welfare(inst, runner) == simulated_welfare(inst, runner), variant

    def test_empty_instance(self):
        inst = MatchingInstance("ab", [])
        for make in DESCENDING_RUNNERS.values():
            runner = make(inst)
            assert expected_welfare(inst, runner) == simulated_welfare(inst, runner) == 0
        assert expected_welfare(inst, RandomizedRunner(inst)) == 0

    def test_bound_counts_realizations(self):
        inst = no_dessert_star(F(1, 2), 2).instance
        size = inst.realization_count()
        runner = DescendingRunner(inst, canonical_orientation(inst))
        assert expected_welfare(inst, runner, enum_bound=size) == simulated_welfare(inst, runner)
        with pytest.raises(EnumerationBoundError) as exc:
            expected_welfare(inst, runner, enum_bound=size - 1)
        assert exc.value.size == size
        with pytest.raises(EnumerationBoundError) as exc:
            expected_welfare(inst, RandomizedRunner(inst),
                             enum_bound=2 ** len(inst.edges) * size - 1)
        assert exc.value.size == 2 ** len(inst.edges) * size


def mixture_laws(inst) -> dict:
    """Each edge's half/half mixture of its two directed capped-value laws."""
    return {e.id: DiscreteDistribution((v, p / 2) for d in e.directions()
                                       for v, p in e.basket(d).kappa1_law.atoms)
            for e in inst.edges}


@pytest.fixture(scope="module")
def sweep_inputs(profile_inputs) -> list:
    """The profile inputs plus bundled-star n=7, 8 and the four-copy no-dessert stars."""
    return (profile_inputs + [bundled_star(n).instance for n in (7, 8)]
            + [no_dessert_star(F(a), 4).instance for a in ("1/2", "1/4", "1/8")])


class TestSweepMatchesProduct:
    """The threshold sweep equals the product of the per-edge kappa^1 laws."""

    @pytest.mark.parametrize("variant", sorted(DESCENDING_RUNNERS))
    def test_descending_laws(self, sweep_inputs, variant):
        for inst in sweep_inputs:
            runner = DESCENDING_RUNNERS[variant](inst)
            assert runner.exact_welfare() == reference_kappa_welfare(runner.kappa_laws())

    def test_randomized_mixture_laws(self, sweep_inputs):
        for inst in sweep_inputs:
            assert expected_welfare(inst, RandomizedRunner(inst)) == \
                reference_kappa_welfare(mixture_laws(inst))


@pytest.fixture(scope="module")
def integer_sweep_inputs(sweep_inputs) -> list:
    """The sweep inputs plus the seeded cycles and three 24-vertex, 60-edge graphs."""
    return (sweep_inputs + list(cycle_batch().values())
            + [rand_graph(SplitMix64(s), 24, 60) for s in (1, 2, 3)])


# Pairwise coprime totals, so the running denominator grows with every key.
LARGE_TOTALS = (2 ** 61 - 1, 10 ** 9 + 7, 998_244_353, 3 ** 40, 5 ** 27 * 7)
SWEEP_VALUES = tuple(F(v) for v in ("-2", "-1/2", "0", "1/3", "1", "3/2", "2", "5"))


@st.composite
def integer_laws(draw) -> dict:
    """Up to five keys, edge ids on four shared vertices or ("*", name) single
    selections, each with an integer law over a large total; values repeat
    across keys, so ties are common, and include zero and negative atoms."""
    laws = {}
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            key = ("*", draw(st.sampled_from("xyz")))
        else:
            key = tuple(sorted(draw(st.lists(st.sampled_from("abcd"), min_size=2,
                                             max_size=2, unique=True))))
        values = sorted(draw(st.lists(st.sampled_from(SWEEP_VALUES), min_size=1,
                                      max_size=4, unique=True)))
        total = draw(st.sampled_from(LARGE_TOTALS))
        cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=len(values) - 1,
                                    max_size=len(values) - 1, unique=True)))
        bounds = [0] + cuts + [total]
        laws[key] = (tuple(values), tuple(b - a for a, b in zip(bounds, bounds[1:])), total)
    return laws


class TestIntegerSweep:
    """The integer sweep equals the ``Fraction`` sweep it replaced, exactly."""

    @pytest.mark.parametrize("variant", sorted(DESCENDING_RUNNERS))
    def test_descending_laws(self, integer_sweep_inputs, variant):
        for inst in integer_sweep_inputs:
            runner = DESCENDING_RUNNERS[variant](inst)
            assert runner.exact_welfare() == reference_kappa_sweep(runner.kappa_laws())

    def test_randomized_mixture(self, integer_sweep_inputs):
        for inst in integer_sweep_inputs:
            laws = mixture_laws(inst)
            for e in inst.edges:
                mixed = algorithms._mixture(*(e.basket(d).kappa1_law
                                              for d in e.directions()))
                assert mixed == laws[e.id]
            bound = 2 ** len(inst.edges) * inst.realization_count()
            assert expected_welfare(inst, RandomizedRunner(inst), enum_bound=bound) == \
                reference_kappa_sweep(laws)

    @settings(max_examples=300, deadline=None)
    @given(integer_laws())
    def test_random_integer_laws(self, laws):
        expected = reference_kappa_sweep(laws)
        assert kappa_welfare(laws) == expected == reference_kappa_welfare(laws)

    def test_ties_go_to_the_smaller_key(self):
        # On the path c-a-b-d the middle edge (a, b) has the smallest id:
        # taking it first blocks both others, where the larger ids take two.
        laws = dict.fromkeys([("a", "b"), ("a", "c"), ("b", "d")], ((F(5, 2),), (1,), 1))
        assert kappa_welfare(laws) == F(5, 2)
        selection = {("*", name): ((F(0), F(3)), (1, 1), 2) for name in "xy"}
        assert kappa_welfare(selection) == F(9, 4)

    def test_untaken_mass_carries_to_lower_atoms(self):
        law = ((F(-1), F(2), F(5)), (1, 1, 1), 3)
        assert kappa_welfare({("a", "b"): law}) == F(7, 3)
        # (b, c) is taken only where (a, b)'s 5 was not drawn
        assert kappa_welfare({("a", "b"): law, ("b", "c"): ((F(4),), (1,), 1)}) == \
            F(5, 3) + F(2, 3) * 4

    def test_no_positive_atom(self):
        assert kappa_welfare({}) == 0
        assert kappa_welfare({("a", "b"): ((F(-1), F(0)), (1, 2), 3)}) == 0


def star_selection_value(law: DiscreteDistribution, n: int) -> F:
    """E[max(0, max of n iid draws)]: sum over v > 0 of v (F(v)^n - F(v-)^n)."""
    total = cdf = ZERO
    for v, p in law.atoms:
        below, cdf = cdf, cdf + p
        if v > 0:
            total += v * (cdf ** n - below ** n)
    return total


class TestStarIsSelection:
    """A matching on a star has one edge, so the greedy total is the top kappa^1."""

    @pytest.mark.parametrize("policy", ["oriented-desc", "bundled"])
    def test_bundled_star_64_closed_form(self, policy):
        inst = bundled_star(64).instance
        runner = make_runner(inst, policy)
        laws = set(runner.kappa_laws().values())
        assert len(laws) == 1
        assert expected_welfare(inst, runner, enum_bound=2 ** 64) == \
            star_selection_value(laws.pop(), 64)

    def test_bundled_star_20_oriented_pinned(self):
        inst = bundled_star(20).instance
        assert expected_welfare(inst, make_runner(inst, "oriented-desc")) == \
            F("1278084904306626794326243581/104857600000000000000000000")


def vertex_tie_instances() -> list:
    """Small graphs whose boxes share the index 2, some revealing exactly 2.

    point 2 at cost 0 and {2, 6} at cost 2 reveal a value equal to the
    other boxes' index; {0, 4} at cost 1 and {-1, 3} at cost 1/2 only tie
    on the index; {1, 3} at cost 0 has index 3.
    """
    pool = [PandoraBox(dist((2, 1)), 0),
            PandoraBox(dist((2, F(1, 2)), (6, F(1, 2))), 2),
            PandoraBox(dist((0, F(1, 2)), (4, F(1, 2))), 1),
            PandoraBox(dist((-1, F(1, 2)), (3, F(1, 2))), F(1, 2)),
            PandoraBox(dist((1, F(1, 2)), (3, F(1, 2))), 0)]
    graphs = [[("a", "b"), ("b", "c")], [("a", "b"), ("a", "c"), ("a", "d")],
              [("a", "b"), ("a", "c"), ("b", "c")], [("a", "b"), ("c", "d")],
              [("a", "b"), ("b", "c"), ("c", "d")]]
    rng = SplitMix64(8)
    out = []
    for graph in graphs:
        for _ in range(40):
            edges = [EdgeSpec.independent(i, j, *(pool[next_below(rng, len(pool))]
                                                  for _ in range(2))) for i, j in graph]
            out.append(MatchingInstance({v for e in graph for v in e}, edges))
    return out


def rebuilt(inst, box) -> MatchingInstance:
    """inst with every endpoint box replaced by box(old box)."""
    return MatchingInstance(inst.vertices, [
        EdgeSpec.independent(e.i, e.j, box(e.box_ij), box(e.box_ji)) for e in inst.edges])


class TestVertexBasedExact:
    """The decision-tree expansion equals the welfare of every enumerated run."""

    @staticmethod
    def assert_expansion_equals_runs(instances):
        for inst in instances:
            runner = VertexBasedDescendingRunner(inst)
            assert expected_welfare(inst, runner) == simulated_welfare(inst, runner)

    def test_seeded_batches(self):
        self.assert_expansion_equals_runs(
            [inst for inst in general_batch(200) + positive_batch(100) if inst.all_independent()])

    def test_named_instances(self):
        self.assert_expansion_equals_runs(
            [bundled_star(n).instance for n in range(1, 9)]
            + [no_dessert_star(F(a), m).instance for a in ("1/2", "1/4", "1/8")
               for m in range(1, 5)]
            + [no_dessert_edge(F(1, 4)).instance, indistinguishable_edge().instance,
               MatchingInstance("ab", [])])

    def test_ties(self):
        # all four boxes have index 2: (a, b) opens first as the smallest
        # pair, and its revealed 2 equals the best unopened index, so it matches
        sure = PandoraBox(dist((2, 1)), 0)
        coin = PandoraBox(dist((0, F(1, 2)), (4, F(1, 2))), 1)
        low = PandoraBox(dist((-1, F(1, 2)), (3, F(1, 2))), F(1, 2))
        inst = MatchingInstance("abcd", [EdgeSpec.independent("a", "b", sure, coin),
                                         EdgeSpec.independent("c", "d", coin, low)])
        runner = VertexBasedDescendingRunner(inst)
        assert set(runner.sigma.values()) == {2}
        for _, _, trace in enumerate_runs(inst, runner, record_steps=True):
            assert trace.steps[:2] == [(0, "open", ("a", "b"), 2), (1, "match", ("a", "b"), 2)]
        self.assert_expansion_equals_runs([inst] + vertex_tie_instances())

    def test_zero_cost_and_single_atom_boxes(self):
        batch = general_batch(60)
        self.assert_expansion_equals_runs(
            [rebuilt(inst, lambda b: PandoraBox(b.dist, 0)) for inst in batch]
            + [rebuilt(inst, lambda b: PandoraBox(dist((b.dist.atoms[-1][0], 1)), b.cost))
               for inst in batch])

    def test_bound_counts_realizations(self):
        inst = no_dessert_star(F(1, 2), 2).instance
        size = inst.realization_count()
        runner = VertexBasedDescendingRunner(inst)
        assert expected_welfare(inst, runner, enum_bound=size) == simulated_welfare(inst, runner)
        with pytest.raises(EnumerationBoundError) as exc:
            expected_welfare(inst, runner, enum_bound=size - 1)
        assert exc.value.size == size

    def test_long_path_needs_no_recursion(self):
        # 500 single-atom edges: one realization, about 1,000 steps in a row
        box = PandoraBox(dist((1, 1)), F(1, 4))
        names = [f"v{k:03d}" for k in range(501)]
        inst = MatchingInstance(names, [EdgeSpec.independent(u, v, box, box)
                                        for u, v in zip(names, names[1:])])
        runner = VertexBasedDescendingRunner(inst)
        trace = runner.run({eid: 0 for eid in inst.edge_ids})
        assert len(trace.matched) == 250
        assert expected_welfare(inst, runner) == F(trace.welfare, trace.scale) == 250 * F(3, 2)


class TestExactWelfareGolden:
    """Exact welfare of every policy, captured from the stage-by-stage simulation.

    The seeded cycles were captured later, from the exact evaluators.
    """

    GOLDEN = json.loads((Path(__file__).parent / "data" / "exact_welfare.json").read_text())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_policies_match_golden(self, name):
        inst = {**named_instances(), **cycle_batch()}[name]
        golden = self.GOLDEN[name]
        orientation, value = best_of_two(inst)
        assert str(value) == golden["best-of-two"]
        assert orientation.to_json_obj() == golden["best-of-two orientation"]
        assert str(expected_welfare(inst, RandomizedRunner(inst))) == golden["randomized"]
        for policy in POLICY_NAMES:
            runner = make_runner(inst, policy)
            assert str(expected_welfare(inst, runner)) == golden[policy], policy


MC_POLICIES = ("oriented-desc", "bundled", "vertex-based", "edge-based")
MC_RUNS = [(trials, seed) for trials in (1, 7, 2000) for seed in (3, 1729)]


def montecarlo_instances() -> dict:
    """The named instances plus a few seeded general and joint-law instances."""
    named = named_instances()
    named.update((f"general_batch[{k}]", inst) for k, inst in enumerate(general_batch(6)))
    named.update((f"joint_batch[{k}]", inst) for k, inst in enumerate(joint_batch(3)))
    return named


def montecarlo_estimates(inst) -> dict:
    """policy -> "TRIALS@SEED" -> [repr(mean), repr(stderr)], for each policy defined on inst."""
    out = {}
    for policy in MC_POLICIES:
        if policy == "vertex-based" and not inst.all_independent():
            continue
        runner = make_runner(inst, policy)
        out[policy] = {f"{trials}@{seed}": [repr(x) for x in expected_welfare(
            inst, runner, "montecarlo", seed=seed, trials=trials)] for trials, seed in MC_RUNS}
    out["randomized"] = {f"{trials}@{seed}": [repr(x) for x in expected_welfare(
        inst, RandomizedRunner(inst), "montecarlo", seed=seed, trials=trials)]
        for trials, seed in MC_RUNS}
    return out


class TestMonteCarloGolden:
    """Seeded estimates, captured when every trial ran its own simulation.

    The ``randomized`` entries were captured later, when each drawn
    orientation still built its own runner.
    """

    GOLDEN = json.loads((Path(__file__).parent / "data" / "montecarlo_estimates.json").read_text())

    @pytest.fixture(scope="class")
    def instances(self):
        return montecarlo_instances()

    def test_covers_every_instance(self, instances):
        assert sorted(self.GOLDEN) == sorted(instances)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_estimates_match_golden(self, instances, name):
        assert montecarlo_estimates(instances[name]) == self.GOLDEN[name]


class TestBatchedMonteCarlo:
    """Batched draws against the per-trial loop of ``reference_montecarlo``.

    On the 6-edge cycle, 5,000 trials span several batches of ``MC_BATCH_WORDS``.
    """

    @pytest.fixture(scope="class")
    def instances(self):
        return {"cycle": cycle_batch()["cycle[2] n=6"], "joint": joint_batch(3)[0],
                "star": bundled_star(3).instance}

    @pytest.mark.parametrize("seed", [5, WRAP_SEED], ids=["seed-5", "wrapping-seed"])
    @pytest.mark.parametrize("name, policy", [
        *(("cycle", p) for p in MC_POLICIES), ("cycle", "randomized"),
        ("joint", "oriented-desc"), ("joint", "randomized"), ("star", "bundled"),
    ])
    def test_equals_the_per_trial_loop(self, instances, name, policy, seed):
        inst = instances[name]
        trials = 5_000
        assert trials > algorithms.MC_CHUNK
        if policy == "randomized":
            batched = expected_welfare(inst, RandomizedRunner(inst), "montecarlo",
                                       seed=seed, trials=trials)
            runner = None
        else:
            runner = make_runner(inst, policy)
            batched = expected_welfare(inst, runner, "montecarlo", seed=seed, trials=trials)
        assert batched == reference_montecarlo(inst, seed, trials, runner)

    def test_memory_stays_capped(self, monkeypatch):
        """Peak traced memory of randomized Monte Carlo on a 12-vertex, 30-edge graph
        with 2x2-atom boxes, 5,000 trials (60 words each).  Each sample's descending
        run is replaced by a constant, so only the draws, the tally and the welfare
        cache are measured.  Under Python 3.11, the per-trial loop this replaced
        peaked at 4.19 MB (6.27 MB at 10,000 trials, 6.44 MB at 20,000), 4,096-trial
        batches with no word cap at 12.96 MB, and the capped batches at 3.49 MB.
        """
        inst = rand_graph(SplitMix64(12), 12, 30)
        runner = RandomizedRunner(inst)
        expected_welfare(inst, runner, "montecarlo", seed=1, trials=1)   # compile outside
        monkeypatch.setattr(algorithms, "descending_run",
                            lambda paths, conflicts: SimpleNamespace(welfare=0))
        tracemalloc.start()
        try:
            expected_welfare(inst, runner, "montecarlo", seed=7, trials=5_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * 4.19e6
