import itertools
import json
import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pandora_matching.algorithms import DescendingRunner, expected_welfare
from pandora_matching.boxes import PandoraBox
from pandora_matching.cli import main
from pandora_matching.distributions import DiscreteDistribution
from pandora_matching.instance import (
    EdgeSpec,
    MatchingInstance,
    Orientation,
    canonical_orientation,
    oriented_basket,
)
from pandora_matching.oracle import (
    BLOCK_STATES,
    STOP,
    StateBoundError,
    _edge_moves,
    _evidence_count,
    _matching_table,
    greedy_matching,
    optimal_action_tree,
    optimal_welfare,
)
from pandora_matching.repro import (
    bundled_star,
    indistinguishable_edge,
    no_dessert_edge,
    no_dessert_star,
)
from pandora_matching.rng import SplitMix64

from support import (
    general_batch,
    joint_batch,
    next_below,
    positive_batch,
    rand_box,
    rand_instance,
    reference_expected_select_welfare,
    reference_max_weight_matching,
    reference_optimal_welfare,
)
from test_distributions import dist


def matching_graphs(rng: SplitMix64) -> list:
    """Stars (hub first or last in id order), triangles, paths and small graphs."""
    graphs = [[]]
    for k in range(1, 8):
        graphs.append([("h", f"l{t}") for t in range(k)])
        graphs.append([(f"a{t}", "z") for t in range(k)])
    graphs.append([("a", "b"), ("a", "c"), ("b", "c")])
    graphs.append([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")])
    for _ in range(20):
        pool = "abcdef"[:3 + next_below(rng, 4)]
        edges = {(min(u, v), max(u, v)) for u in pool for v in pool
                 if u != v and next_below(rng, 2)}
        graphs.append(sorted(edges))
    return graphs


class TestGreedyMatching:
    def test_single_positive_edge(self):
        m, total = greedy_matching({("a", "b"): F(5)})
        assert m == {("a", "b")} and total == 5

    def test_path_picks_heavier(self):
        m, total = greedy_matching({("a", "b"): F(2), ("b", "c"): F(3)})
        assert m == {("b", "c")} and total == 3

    def test_star_picks_exactly_one(self):
        weights = {("a", "b"): F(1), ("a", "c"): F(1), ("a", "d"): F(1)}
        m, total = greedy_matching(weights)
        assert len(m) == 1 and total == 1
        assert m == {("a", "b")}  # tie broken by edge id

    def test_zero_weight_not_taken(self):
        assert greedy_matching({("a", "b"): F(0)})[0] == frozenset()

    def test_ties_keep_the_smallest_edge_id(self):
        triangle = {("b", "c"): F(3), ("a", "c"): F(3), ("a", "b"): F(3)}
        assert greedy_matching(triangle) == (frozenset({("a", "b")}), 3)
        # (b, c) first would block both ends and leave a total of 2
        path = {("c", "d"): 2, ("b", "c"): 2, ("a", "b"): 2}
        assert greedy_matching(path) == (frozenset({("a", "b"), ("c", "d")}), 4)

    def test_total_type_follows_the_weights(self):
        weights = {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 5, ("c", "d"): -2}
        m, total = greedy_matching(weights)
        assert type(total) is int and (m, total) == (frozenset({("a", "c")}), 5)
        m, total = greedy_matching({e: F(w, 2) for e, w in weights.items()})
        assert type(total) is F and (m, total) == (frozenset({("a", "c")}), F(5, 2))

    @given(st.dictionaries(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")).map(
            lambda t: (min(t), max(t))).filter(lambda t: t[0] != t[1]),
        st.fractions(min_value=-4, max_value=6, max_denominator=4),
        max_size=8))
    @settings(deadline=None)
    def test_greedy_at_least_half_of_optimum(self, weights):
        _, greedy_total = greedy_matching(weights)
        _, best_total = reference_max_weight_matching(weights)
        assert 2 * greedy_total >= best_total


class TestOptimalWelfare:
    def test_indistinguishable_edge_free(self):
        inst = indistinguishable_edge().instance
        assert optimal_welfare(inst).value == F(1, 4)

    def test_all_negative_instance_stops_immediately(self):
        e = EdgeSpec.independent("a", "b",
                                 PandoraBox(dist((-1, 1)), 0),
                                 PandoraBox(dist((-2, F(1, 2)), (-1, F(1, 2))), 1))
        inst = MatchingInstance("ab", [e])
        for constraint in ("free", "bundled"):
            assert optimal_welfare(inst, constraint).value == 0
        o = canonical_orientation(inst)
        assert optimal_welfare(inst, "oriented", o).value == 0

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4), F(1, 8)])
    def test_single_edge_oriented_equals_descending(self, alpha):
        inst = no_dessert_edge(alpha).instance
        fwd = Orientation([("i", "j")])
        rev = fwd.reverse()
        assert optimal_welfare(inst, "oriented", fwd).value == 1 - alpha
        assert optimal_welfare(inst, "oriented", rev).value == alpha - alpha ** 2

    def test_bundled_star_capped_at_one(self):
        for n in (2, 4):
            inst = bundled_star(n).instance
            v = optimal_welfare(inst, "bundled").value
            assert v == 1 - F(1, n) <= 1

    def test_free_dominates_oriented_dominates_descending(self):
        rng = SplitMix64(909)
        for _ in range(12):
            inst = rand_instance(rng)
            o = canonical_orientation(inst)
            free = optimal_welfare(inst).value
            oriented = optimal_welfare(inst, "oriented", o).value
            desc = expected_welfare(inst, DescendingRunner(inst, o))
            assert free >= oriented >= desc
            assert free >= 0

    def test_star_oriented_opt_is_selection_value(self):
        # all edges share a hub, so the oriented problem is single selection
        rng = SplitMix64(911)
        for _ in range(8):
            edges = [EdgeSpec.independent("a", leaf, rand_box(rng), rand_box(rng))
                     for leaf in ("b", "c")]
            inst = MatchingInstance("abc", edges)
            o = canonical_orientation(inst)
            baskets = {e.id: oriented_basket(e, o.direction_of(e.id))
                       for e in inst.edges}
            assert optimal_welfare(inst, "oriented", o).value == \
                reference_expected_select_welfare(baskets) == \
                expected_welfare(inst, DescendingRunner(inst, o))

    def test_state_bound_error(self):
        inst = bundled_star(8).instance
        with pytest.raises(StateBoundError):
            optimal_welfare(inst, state_bound=100)

    def test_state_bound_error_before_per_state_lists(self):
        # 6^8 states: per-state lists alone would take over 10 MB
        inst = bundled_star(8).instance
        tracemalloc.start()
        try:
            with pytest.raises(StateBoundError):
                optimal_welfare(inst, state_bound=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestActionTrace:
    def test_free_trace_on_indistinguishable_edge(self):
        inst = indistinguishable_edge().instance
        pv = optimal_welfare(inst)
        tree = optimal_action_tree(inst, pv)
        # optimal play starts by opening the skewed i-side box
        assert tree["action"] == "open" and tree["box"] == ["i", "j"]


VARIANTS = ("free", "oriented", "oriented-reverse", "bundled")
GOLDEN_INSTANCES = {
    "indistinguishable-edge": lambda: indistinguishable_edge().instance,
    "no-dessert-edge-1/4": lambda: no_dessert_edge(F(1, 4)).instance,
    "bundled-star-2": lambda: bundled_star(2).instance,
}


def variant_args(inst, variant):
    """(constraint, orientation) for one of VARIANTS."""
    o = canonical_orientation(inst)
    return {"free": ("free", None), "oriented": ("oriented", o),
            "oriented-reverse": ("oriented", o.reverse()),
            "bundled": ("bundled", None)}[variant]


def walk(tree, opened=frozenset()):
    """Yield every node of an action tree with the boxes opened above it."""
    yield tree, opened
    if tree.get("action") == "open":
        opened = opened | {tuple(tree["box"])}
    for outcome in tree.get("outcomes", ()):
        yield from walk(outcome["then"], opened)


def small_instances():
    return general_batch(40) + [bundled_star(n).instance for n in (1, 2, 3, 4)]


class TestStateBound:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bound_equals_stored_state_count(self, variant):
        for inst in small_instances():
            constraint, o = variant_args(inst, variant)
            pv = optimal_welfare(inst, constraint, o)
            states = len(pv.best_action)
            assert optimal_welfare(inst, constraint, o, state_bound=states).value == pv.value
            with pytest.raises(StateBoundError) as exc:
                optimal_welfare(inst, constraint, o, state_bound=states - 1)
            assert exc.value.estimate == states
            assert f"has {states} states" in str(exc.value)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bound_is_checked_before_any_move_table(self, variant, monkeypatch):
        from pandora_matching import oracle

        def no_moves(*args):
            raise AssertionError("built a move table")

        inst = bundled_star(8).instance
        constraint, o = variant_args(inst, variant)
        monkeypatch.setattr(oracle, "_edge_moves", no_moves)
        with pytest.raises(StateBoundError):
            optimal_welfare(inst, constraint, o, state_bound=100)


class TestActionTreeGolden:
    GOLDEN = json.loads((Path(__file__).parent / "data" / "oracle_action_trees.json").read_text())

    @pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tree_matches_golden(self, name, variant):
        inst = GOLDEN_INSTANCES[name]()
        pv = optimal_welfare(inst, *variant_args(inst, variant))
        golden = self.GOLDEN[f"{name} {variant}"]
        assert str(pv.value) == golden["value"]
        assert optimal_action_tree(inst, pv) == golden["tree"]

    def test_bundled_trees_open_only_bundles(self):
        for inst in small_instances():
            tree = optimal_action_tree(inst, optimal_welfare(inst, "bundled"))
            assert {node.get("action") for node, _ in walk(tree)} <= {"open-bundle", "stop", None}

    @pytest.mark.parametrize("variant", ["oriented", "oriented-reverse"])
    def test_oriented_trees_open_the_first_box_first(self, variant):
        for inst in small_instances():
            _, o = variant_args(inst, variant)
            tree = optimal_action_tree(inst, optimal_welfare(inst, "oriented", o))
            for node, opened in walk(tree):
                if node.get("action") == "open":
                    u, v = node["box"]
                    eid = (u, v) if u < v else (v, u)
                    assert o.direction_of(eid) == (u, v) or (v, u) in opened


def assert_matches_reference(inst, variant):
    """Value and best move at every state equal the Fraction memo DP's."""
    constraint, o = variant_args(inst, variant)
    pv = optimal_welfare(inst, constraint, o)
    values, moves = reference_optimal_welfare(inst, constraint, o)
    assert len(pv.best_action) == len(moves)
    for state, move in moves.items():
        assert pv.best_action[state] == move, state
        assert pv.best_action.value(state) == values[state], state
    assert type(pv.value) is F
    assert pv.value == values[tuple((-1, -1) for _ in inst.edges)]


def named_stars():
    stars = [bundled_star(n).instance for n in range(1, 6)]
    stars += [no_dessert_star(a, m).instance for a in (F(1, 2), F(1, 4), F(1, 8))
              for m in (1, 2, 3)]
    return stars + [indistinguishable_edge().instance, no_dessert_edge(F(1, 4)).instance]


def awkward_instances():
    """Inputs that stress the integer scale, keyed by name."""
    joint = EdgeSpec.joint("a", "b", F(1, 6), F(2, 5), [
        ("s0", "t0", F(5, 3), F(1, 7)), ("s0", "t1", F(-2, 9), F(1, 11)),
        ("s1", "t0", F(7, 2), F(1, 13)), ("s1", "t1", F(1, 5), F(690, 1001))])
    thirds = EdgeSpec.independent("b", "c", PandoraBox(dist((F(4, 3), F(2, 3)), (-1, F(1, 3))),
                                                       F(1, 7)),
                                  PandoraBox(dist((F(5, 2), F(3, 5)), (0, F(2, 5))), F(1, 3)))
    free = EdgeSpec.independent("a", "c", PandoraBox(dist((3, F(1, 2)), (-1, F(1, 2))), 0),
                                PandoraBox(dist((1, F(1, 4)), (0, F(3, 4))), 0))
    negative = [EdgeSpec.independent(u, v, PandoraBox(dist((-1, F(1, 3)), (-3, F(2, 3))), 1),
                                     PandoraBox(dist((F(-1, 2), 1)), 0))
                for u, v in (("a", "b"), ("b", "c"))]
    single = [EdgeSpec.independent(u, v, PandoraBox(dist((F(3, 2), 1)), F(1, 2)),
                                   PandoraBox(dist((F(2, 3), 1)), F(1, 4)))
              for u, v in (("a", "b"), ("b", "c"), ("a", "c"))]
    return {
        "coprime-joint": MatchingInstance("abc", [joint, thirds]),
        "zero-costs": MatchingInstance("abc", [free, thirds]),
        "all-negative": MatchingInstance("abc", negative),
        "single-atom": MatchingInstance("abc", single),
        "mixed": MatchingInstance("abc", [joint, thirds, free]),
    }


class TestReferenceDP:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_seeded_batches(self, variant):
        for inst in general_batch(40) + positive_batch(20) + joint_batch(12):
            assert_matches_reference(inst, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_named_stars(self, variant):
        for inst in named_stars():
            assert_matches_reference(inst, variant)

    @pytest.mark.parametrize("name", sorted(awkward_instances()))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_awkward_scales(self, name, variant):
        assert_matches_reference(awkward_instances()[name], variant)

    def test_state_table_rejects_foreign_states(self):
        inst = bundled_star(2).instance
        table = optimal_welfare(inst, "bundled").best_action
        for state in [((-1, -1),), ((0, -1), (-1, -1)), ((-1, -1), (-1, -1), (-1, -1)),
                      ([-1, -1], (-1, -1)), "ab"]:
            assert state not in table
            with pytest.raises(KeyError):
                table[state]
        assert set(table) == set(reference_optimal_welfare(inst, "bundled")[1])


def point_edge(u, v, value, cost):
    """An edge whose two boxes are point masses: value splits as value - 1 and 1."""
    point = DiscreteDistribution.point
    return EdgeSpec.independent(u, v, PandoraBox(point(value - 1), cost),
                                PandoraBox(point(1), 0))


class TestLoopEdgeCases:
    """Instances at the edges of the prefix x inner-block state loop."""

    @pytest.mark.parametrize("variant", ["free", "oriented", "bundled"])
    def test_no_edges(self, variant):
        inst = MatchingInstance(["a"], [])
        pv = optimal_welfare(inst, *variant_args(inst, variant))
        assert type(pv.value) is F and pv.value == 0
        assert len(pv.best_action) == 1 and pv.best_action[()] is STOP
        assert pv.best_action.value(()) == 0
        assert optimal_action_tree(inst, pv) == {"action": "stop"}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_edge_has_an_empty_prefix(self, variant):
        rng = SplitMix64(4242)
        for _ in range(6):
            inst = MatchingInstance("ab", [EdgeSpec.independent(
                "a", "b", rand_box(rng, positive=True), rand_box(rng))])
            assert_matches_reference(inst, variant)

    def test_bundled_point_masses_have_two_evidences_per_edge(self):
        edges = [point_edge(u, v, w, F(1, 3)) for u, v, w in
                 [("a", "b", 2), ("b", "c", 3), ("c", "d", 2), ("a", "c", F(5, 2)),
                  ("d", "e", F(1, 3))]]
        inst = MatchingInstance("abcde", edges)
        pv = optimal_welfare(inst, "bundled")
        assert {len(_edge_moves(k, e, "bundled", None)[0]) for k, e in enumerate(edges)} == {2}
        assert pv.value == 2 + 2 - 2 * F(1, 3)
        assert_matches_reference(inst, "bundled")

    def test_check_on_the_empty_instance(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"vertices": ["a"], "edges": []}))
        assert main(["check", "--instance", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_passed"] is True


def block_start(inst, variant) -> int:
    """Index of the first edge of the DP's inner block: the shortest run of
    trailing edges with BLOCK_STATES states or more."""
    constraint, o = variant_args(inst, variant)
    b, size = len(inst.edges), 1
    while b and size < BLOCK_STATES:
        b -= 1
        size *= _evidence_count(inst.edges[b], constraint, o)
    return b


class TestInnerBlock:
    """Instances whose DP runs a nonempty prefix loop over an inner block."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_distinct_leaf_star(self, variant):
        rng = SplitMix64(2718)
        leaves = [f"l{k}" for k in range(1, 6)]
        edges = [EdgeSpec.independent("h", leaf, rand_box(rng, k=3), rand_box(rng, k=1))
                 for leaf in leaves]
        inst = MatchingInstance(["h", *leaves], edges)
        assert len({(e.box_ij, e.box_ji) for e in edges}) == 5
        assert 0 < block_start(inst, variant) < len(edges) - 1
        assert_matches_reference(inst, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_five_edge_cycle(self, variant):
        rng = SplitMix64(31)
        pool = "abcde"
        inst = MatchingInstance(pool, [
            EdgeSpec.independent(u, v, rand_box(rng, k=2), rand_box(rng, k=1))
            for u, v in zip(pool, pool[1:] + pool[:1])])
        assert 0 < block_start(inst, variant) < len(inst.edges) - 1
        assert_matches_reference(inst, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_last_edge_alone_fills_the_block(self, variant):
        rng = SplitMix64(59)
        edges = [EdgeSpec.independent(u, v, rand_box(rng, k=2), rand_box(rng, k=1))
                 for u, v in (("a", "b"), ("b", "c"))]
        edges.append(EdgeSpec.independent("c", "d", rand_box(rng, k=6), rand_box(rng, k=6)))
        inst = MatchingInstance("abcd", edges)
        assert block_start(inst, variant) == len(edges) - 1
        assert_matches_reference(inst, variant)


class TestPastSixteenEdges:
    """The DP reads terminal values from its matching table, which has no
    limit on the number of positive edges."""

    def test_bundled_star_of_point_masses(self):
        leaves = [f"l{k:02d}" for k in range(1, 18)]
        inst = MatchingInstance(["h", *leaves], [
            point_edge("h", leaf, F(k, 3), F(k % 5, 4)) for k, leaf in enumerate(leaves, 1)])
        pv = optimal_welfare(inst, "bundled")
        assert len(pv.best_action) == 2 ** 17
        assert pv.value == expected_welfare(inst, DescendingRunner(inst)) == F(17, 3) - 2 * F(1, 4)

    def test_bundled_path_of_point_masses(self):
        rng = SplitMix64(17)
        gains = [F(1 + next_below(rng, 8), 1 + next_below(rng, 3)) for _ in range(17)]
        edges = [point_edge(f"v{k:02d}", f"v{k + 1:02d}", gain + F(1, 2), F(1, 2))
                 for k, gain in enumerate(gains)]
        inst = MatchingInstance([f"v{k:02d}" for k in range(18)], edges)
        # best path matching of the (positive) gains: skip edge k, or take
        # it and skip edge k - 1
        best = [F(0), gains[0]]
        for gain in gains[1:]:
            best.append(max(best[-1], best[-2] + gain))
        assert optimal_welfare(inst, "bundled").value == best[-1] > max(gains)


def assert_table_matches_reference(ids, weights, zero):
    """Every entry of _matching_table against the brute-force search."""
    table, strides = _matching_table(ids, weights)
    assert len(table) == math.prod(len(w) + 1 for w in weights)
    for classes in itertools.product(*(range(len(w) + 1) for w in weights)):
        chosen = {eid: w[c - 1] for eid, w, c in zip(ids, weights, classes) if c}
        index = sum(c * stride for c, stride in zip(classes, strides))
        assert table[index] == reference_max_weight_matching(chosen, zero)[1], chosen


def full_entry(weights: dict) -> int:
    """The table entry with every edge at its weight; an edge of weight <= 0
    gets no class, as in the DP."""
    table, _ = _matching_table(list(weights), [[w] if w > 0 else [] for w in weights.values()])
    return table[-1]


class TestMatchingTable:
    def test_single_edge(self):
        assert full_entry({("a", "b"): 5}) == 5

    def test_triangle_takes_single_heaviest(self):
        ids = [("a", "b"), ("a", "c"), ("b", "c")]
        table, strides = _matching_table(ids, [[3], [5], [3]])
        assert table[-1] == 5
        assert table[-1 - strides[1]] == 3  # (a, c) left out

    def test_path_with_equal_weights(self):
        assert full_entry({("a", "b"): 2, ("b", "c"): 2}) == 2

    def test_negative_edge_left_out(self):
        assert full_entry({("a", "b"): -1}) == 0

    def test_disjoint_edges_both_taken(self):
        assert full_entry({("a", "b"): 1, ("c", "d"): 2}) == 3

    def test_no_edges_gives_one_zero_entry(self):
        assert _matching_table([], []) == ([0], [])
        assert _matching_table([("a", "b")], [[]]) == ([0], [1])

    def test_total_type_follows_the_weights(self):
        ids = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
        table, _ = _matching_table(ids, [[1, 3], [5], [3], [2]])
        assert all(type(t) is int for t in table)
        halves, _ = _matching_table(ids, [[F(1, 2), F(3, 2)], [F(5, 2)], [F(3, 2)], [F(1)]])
        assert [2 * t for t in halves] == table
        assert all(type(t) is F for t in halves[1:])

    @pytest.mark.parametrize("kind", ["int", "Fraction"])
    def test_equals_recursion_on_shortcut_graphs(self, kind):
        rng = SplitMix64(77)
        values = [-1, 0, 1, 2, 2, 3] if kind == "int" else [F(-1), F(0), F(1, 2), F(2), F(7, 3)]
        zero = 0 if kind == "int" else F(0)
        for graph in matching_graphs(rng):
            for _ in range(30):
                draws = [values[next_below(rng, len(values))] for _ in graph]
                assert_table_matches_reference(graph, [[w] if w > 0 else [] for w in draws], zero)

    def test_disjoint_edges_ties_and_zero_weights(self):
        graph = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")]
        assert_table_matches_reference(graph, [[1, 2], [], [2, 3], [2], [1, 3, 4]], 0)
        table, _ = _matching_table(graph, [[2], [4], [2], [], []])
        assert table[-1] == 4

    def test_equals_recursion_on_per_state_weights(self):
        # every state's terminal weights are one class vector of these lists
        for inst in general_batch(40):
            totals = [_edge_moves(k, e, "free", None)[1] for k, e in enumerate(inst.edges)]
            weights = [sorted({w for w in t.values() if w > 0}) for t in totals]
            assert_table_matches_reference(inst.edge_ids, weights, F(0))
