import json
import math
import re
from fractions import Fraction as F

import pytest

from pandora_matching.algorithms import DescendingRunner
from pandora_matching.boxes import PandoraBox
from pandora_matching.instance import (
    EdgeSpec,
    InstanceError,
    MatchingInstance,
    Orientation,
    bundled_basket,
    canonical_orientation,
    oriented_basket,
)
from pandora_matching.nested import annotate
from pandora_matching.oracle import optimal_welfare
from pandora_matching.repro import (
    bundled_star,
    indistinguishable_edge,
    no_dessert_edge,
    no_dessert_star,
)

from support import (
    assert_matches_reference,
    cycle_batch,
    edge_to_basket,
    general_batch,
    joint_batch,
    positive_batch,
    reference_edge_basket,
)
from test_distributions import dist


def fig_edge(alpha=F(1, 2)):
    return no_dessert_edge(alpha).instance.edges[0]


class TestEdgeSpec:
    def test_independent_product_law(self):
        e = EdgeSpec.independent("a", "b",
                                 PandoraBox(dist((0, F(1, 2)), (2, F(1, 2))), 1),
                                 PandoraBox(dist((1, 1)), 0))
        assert len(e.outcomes) == 2
        assert {o.total for o in e.outcomes} == {1, 3}
        assert all(o.v_i is not None for o in e.outcomes)

    def test_unsorted_endpoints_normalize(self):
        box_hi = PandoraBox(dist((5, 1)), 1)
        box_lo = PandoraBox(dist((0, 1)), 2)
        e = EdgeSpec.independent("b", "a", box_hi, box_lo)
        assert e.id == ("a", "b")
        # box passed for direction (b, a) must still be the (b, a) box
        assert e.box(("b", "a")).dist == box_hi.dist
        assert e.cost(("b", "a")) == 1

    @pytest.mark.parametrize("batch", [lambda: general_batch(200), lambda: joint_batch(50)],
                             ids=["general", "joint"])
    def test_weights_are_the_outcome_law(self, batch):
        for inst in batch():
            for e in inst.edges:
                assert all(type(w) is int for w in e.weights)
                assert sum(e.weights) == e.weight_total
                if e.is_independent:
                    totals = [math.lcm(*(p.denominator for _, p in box.dist.atoms))
                              for box in (e.box_ij, e.box_ji)]
                    assert e.weight_total == totals[0] * totals[1]

    def test_independent_outcomes_run_in_label_order(self):
        # "10" sorts before "9", so label order is not value order
        e = EdgeSpec.independent("a", "b",
                                 PandoraBox(dist((9, F(1, 3)), (10, F(2, 3))), 0),
                                 PandoraBox(dist((-1, F(1, 4)), (2, F(3, 4))), 0))
        assert [(o.label_i, o.label_j) for o in e.outcomes] == [
            ("10", "-1"), ("10", "2"), ("9", "-1"), ("9", "2")]
        assert [o.total for o in e.outcomes] == [9, 12, 8, 11]
        assert e.weights == (2, 6, 1, 3) and e.weight_total == 12

    def test_joint_duplicate_pair_rejected(self):
        with pytest.raises(InstanceError):
            EdgeSpec.joint("a", "b", 1, 1,
                           [("x", "y", F(1), F(1, 2)), ("x", "y", F(2), F(1, 2))])

    def test_joint_bad_probability_sum_rejected(self):
        with pytest.raises(InstanceError):
            EdgeSpec.joint("a", "b", 1, 1, [("x", "y", F(1), F(9, 10))])

    @pytest.mark.parametrize("rows, error", [
        ([("x", "y", 1, F(1, 2)), ("x", "y", 1, F(1, 2)), ("x", "y", 0, 0)],
         "duplicate signal pair ('x', 'y')"),
        ([("x", "y", 2, F(1, 2)), ("x", "y", 1, F(-1, 2)), ("x", "z", 1, 1)],
         "outcome probability -1/2 not positive"),
    ], ids=["duplicate-first", "non-positive-first"])
    def test_joint_first_error_follows_the_signal_pair_order(self, rows, error):
        # Rows sort stably on the signal pair alone: sorting on whole rows
        # would put the zero-probability row first and report it instead.
        swapped = [(lj, li, t, p) for li, lj, t, p in rows]
        for i, j, given in (("a", "b", rows), ("b", "a", swapped)):
            with pytest.raises(InstanceError, match=re.escape(f"edge ('a', 'b'): {error}")):
                EdgeSpec.joint(i, j, 1, 1, given)

    def test_joint_edge_has_no_endpoint_boxes(self):
        e = EdgeSpec.joint("a", "b", 1, 1, [("x", "y", F(1), F(1))])
        with pytest.raises(InstanceError):
            e.box(("a", "b"))

    def test_bundled_box_merges_totals(self):
        e = fig_edge()
        assert e.bundled_box().cost == e.cost_ij + e.cost_ji
        assert e.bundled_box().dist == dist(*[(o.total, F(w, e.weight_total))
                                              for o, w in zip(e.outcomes, e.weights)])

    def test_json_round_trip_independent(self):
        e = fig_edge()
        e2 = EdgeSpec.from_json_obj(e.to_json_obj())
        assert e2.outcomes == e.outcomes and e2.id == e.id

    def test_json_round_trip_joint(self):
        e = EdgeSpec.joint("a", "b", F(1, 2), 1,
                           [("x", "y", F(3, 2), F(1, 4)), ("x", "z", -2, F(3, 4))])
        e2 = EdgeSpec.from_json_obj(e.to_json_obj())
        assert e2.outcomes == e.outcomes
        assert e2.cost_ij == F(1, 2)

    def test_joint_edges_write_back_the_probabilities_they_were_read_with(self):
        doc = {"i": "a", "j": "b", "c_ij": "1/2", "c_ji": "1",
               "joint": [{"si": "x", "sj": "z", "total": "-2", "p": "3/4"},
                         {"si": "x", "sj": "y", "total": "3/2", "p": "1/4"}]}
        written = EdgeSpec.from_json_obj(doc).to_json_obj()["joint"]
        assert [(r["sj"], r["p"]) for r in written] == [("y", "1/4"), ("z", "3/4")]
        edges = [e for inst in joint_batch(50) for e in inst.edges]
        assert edges
        for e in edges:
            obj = json.loads(json.dumps(e.to_json_obj()))
            again = EdgeSpec.from_json_obj(obj)
            assert (again.weights, again.weight_total) == (e.weights, e.weight_total)
            assert again.to_json_obj() == obj


class TestValidate:
    """The constructors refuse invalid instances; ``positive_values``
    classifies the value regime of a valid one."""

    def test_indistinguishable_edge_not_positive(self):
        assert not indistinguishable_edge().instance.positive_values

    def test_bundled_star_positive(self):
        assert bundled_star(4).instance.positive_values

    def test_joint_edges_not_positive_setting(self):
        e = EdgeSpec.joint("a", "b", 0, 0, [("x", "y", F(2), F(1))])
        assert not MatchingInstance("ab", [e]).positive_values

    def test_expectation_below_cost_not_positive(self):
        # nonnegative support, but the (a, b) box's mean 1/2 is below its cost 1
        cheap = PandoraBox(dist((0, F(1, 2)), (1, F(1, 2))), 1)
        e = EdgeSpec.independent("a", "b", cheap, PandoraBox(dist((3, 1)), 0))
        assert cheap.dist.min_value() >= 0
        assert not MatchingInstance("ab", [e]).positive_values

    def test_duplicate_edge_rejected(self):
        e = fig_edge()
        with pytest.raises(InstanceError):
            MatchingInstance(["i", "j"], [e, e])


class TestOrientation:
    def test_reverse_is_involution(self):
        o = Orientation([("a", "b"), ("c", "b"), ("a", "d")])
        assert o.reverse().reverse() == o

    def test_reverse_flips_pairs(self):
        assert Orientation([("a", "b")]).reverse() == Orientation([("b", "a")])

    def test_path_graph_round_trip(self):
        o = Orientation([("b", "a"), ("c", "b")])
        assert o.reverse() == Orientation([("a", "b"), ("b", "c")])

    def test_canonical_is_low_vertex_first(self):
        inst = no_dessert_edge(F(1, 2)).instance
        assert canonical_orientation(inst) == Orientation([("i", "j")])

    def test_double_orientation_rejected(self):
        with pytest.raises(InstanceError):
            Orientation([("a", "b"), ("b", "a")])

    def test_coverage_check(self):
        inst = no_dessert_edge(F(1, 2)).instance
        with pytest.raises(InstanceError):
            Orientation([("x", "y")]).require_covers(inst)


class TestEdgeToBasket:
    def test_forward_direction_gives_paper_indices(self):
        basket = annotate(edge_to_basket(fig_edge(), ("i", "j")))
        assert basket.sigma1 == 1
        stage2 = sorted(child.sigma for _, _, child in basket.root.branches)
        assert stage2 == [-2, 6]

    def test_reverse_direction_gives_paper_indices(self):
        basket = annotate(edge_to_basket(fig_edge(), ("j", "i")))
        assert basket.sigma1 == 2
        stage2 = sorted(child.sigma for _, _, child in basket.root.branches)
        assert stage2 == [0, 6]

    def test_direction_matters(self):
        e = fig_edge(F(1, 4))
        fwd = annotate(edge_to_basket(e, ("i", "j"))).sigma1
        rev = annotate(edge_to_basket(e, ("j", "i"))).sigma1
        assert fwd == 3 and rev == 12

    def test_trivial_joint_edge(self):
        e = EdgeSpec.joint("a", "b", 0, 0, [("x", "y", F(5), F(1))])
        basket = annotate(edge_to_basket(e, ("a", "b")))
        assert [p.value for p in basket.paths] == [5]
        assert basket.paths[0].depth == 2

    def test_stage_one_branch_law_matches_first_box(self):
        e = fig_edge()
        tree = edge_to_basket(e, ("i", "j"))
        branch_law = dist(*[(F(label), p) for label, p, _ in tree.branches])
        assert branch_law == e.box(("i", "j")).dist

    def test_leaf_total_law_matches_bundle(self):
        e = fig_edge()
        for direction in e.directions():
            basket = annotate(edge_to_basket(e, direction))
            law = dist(*[(p.value, p.prob) for p in basket.paths])
            assert law == e.bundled_box().dist

    def test_oriented_basket_lookup_is_bijective(self):
        e = fig_edge()
        paths = e.paths(("j", "i"))
        assert sorted(paths) == sorted(oriented_basket(e, ("j", "i")).paths)
        for p, o in zip(paths, e.outcomes):
            assert p.labels == (o.label_j, o.label_i) and p.value == o.total

    def test_bundled_basket_paths_are_totals(self):
        e = fig_edge()
        assert len(bundled_basket(e).paths) == len({o.total for o in e.outcomes})
        for p, o in zip(e.paths(None), e.outcomes):
            assert p.value == o.total
            assert p.depth == 1


class TestCompileMatchesReference:
    """Every compiled basket equals the original recursive annotation."""

    @staticmethod
    def check(instances):
        for inst in instances:
            for e in inst.edges:
                for direction in (*e.directions(), None):
                    compiled = e.basket(direction)
                    ref = reference_edge_basket(e, direction)
                    assert_matches_reference(compiled.root, ref.root)
                    assert list(compiled.paths) == ref.paths
                    assert dict(enumerate(e.paths(direction))) == ref.path_of

    def test_general_batch(self):
        self.check(general_batch(200))

    def test_positive_batch(self):
        self.check(positive_batch(100))

    def test_joint_batch(self):
        self.check(joint_batch(50))

    def test_cycles(self):
        self.check(cycle_batch().values())

    def test_named_stars(self):
        self.check([bundled_star(n).instance for n in range(1, 7)])
        self.check([no_dessert_star(alpha, m).instance
                    for alpha in (F(1, 2), F(1, 4), F(1, 8)) for m in (1, 2, 3)])


class TestShiftedCompileMatchesGrouped:
    """An independent edge compiles by the shift identity, a joint edge by
    grouping its outcomes; the same law in either form gives one basket."""

    @staticmethod
    def check(instances):
        compiled = 0
        for inst in instances:
            for e in inst.edges:
                if not e.is_independent:
                    continue
                rows = [(o.label_i, o.label_j, o.total, F(w, e.weight_total))
                        for o, w in zip(e.outcomes, e.weights)]
                joint = EdgeSpec.joint(e.i, e.j, e.cost_ij, e.cost_ji, rows)
                for direction in (*e.directions(), None):
                    shifted, grouped = e.basket(direction), joint.basket(direction)
                    assert shifted.root == grouped.root
                    assert shifted.paths == grouped.paths
                    assert e.paths(direction) == joint.paths(direction)
                    compiled += 1
        assert compiled

    def test_constructor_derives_the_box_laws(self):
        e = no_dessert_edge(F(1, 4)).instance.edges[0]
        bare = EdgeSpec(e.i, e.j, e.cost_ij, e.cost_ji, e.outcomes, e.weights, e.weight_total,
                        e.box_ij, e.box_ji)
        for direction in (*e.directions(), None):
            assert bare.basket(direction).root == e.basket(direction).root

    def test_general_batch(self):
        self.check(general_batch(200))

    def test_positive_batch(self):
        self.check(positive_batch(100))

    def test_named_stars(self):
        self.check([bundled_star(n).instance for n in range(1, 7)])
        self.check([no_dessert_star(alpha, m).instance
                    for alpha in (F(1, 2), F(1, 4), F(1, 8)) for m in (1, 2, 3)])


class TestCompiledRecordsAreImmutable:
    """Every caller shares an edge's compiled basket, so its records are frozen."""

    def test_records_refuse_assignment_and_hash(self):
        inst = no_dessert_star(F(1, 4), 2).instance
        e = inst.edges[0]
        basket = e.basket(e.directions()[0])
        stage = basket.root.branches[0][2]
        assert type(stage.branches[0][2]) is F   # a leaf is its value, immutable already
        trace = DescendingRunner(inst, canonical_orientation(inst)).run(
            {eid: 0 for eid in inst.edge_ids}, record_steps=True)
        records = [basket.root, stage, basket.paths[0], e.outcomes[0],
                   e.box_ij, edge_to_basket(e, e.directions()[0]), trace.steps[0],
                   *trace.nested_traces.values(),
                   *optimal_welfare(inst).best_action.values()]
        for record in records:
            hash(record)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)


class TestDirectionTable:
    @pytest.mark.parametrize("batch", [lambda: general_batch(200), lambda: joint_batch(50)],
                             ids=["general", "joint"])
    def test_rows_are_the_joint_law_in_integer_weights(self, batch):
        for inst in batch():
            for e in inst.edges:
                for d in e.directions():
                    table = e.table(d)
                    assert sum(mass for _, mass, _ in table) == e.weight_total
                    assert [s for s, _, _ in table] == sorted({s for s, _, _ in table})
                    seen = []
                    for first, mass, rows in table:
                        assert type(mass) is int
                        assert sum(w for _, w, _ in rows) == mass
                        for second, w, k in rows:
                            o = e.outcomes[k]
                            labels = (o.label_i, o.label_j) if d == e.id else (o.label_j, o.label_i)
                            assert labels == (first, second)
                            assert type(w) is int and w == e.weights[k]
                            seen.append(k)
                    assert sorted(seen) == list(range(len(e.outcomes)))


class TestInstanceJson:
    @pytest.mark.parametrize("vertices", [5, [["x"]], "ab", None, [{"v": "a"}]],
                             ids=["int", "nested-list", "string", "null", "object"])
    def test_bad_vertices_name_the_field(self, vertices):
        obj = no_dessert_edge(F(1, 4)).instance.to_json_obj()
        obj["vertices"] = vertices
        with pytest.raises(InstanceError, match="^vertices must be a list of vertex names"):
            MatchingInstance.from_json_obj(obj)

    def test_vertex_names_may_be_integers(self):
        inst = MatchingInstance.from_json_obj({"vertices": [3, "z"], "edges": []})
        assert inst.vertices == ("3", "z")

    def test_scalar_vertex_names_read_as_edge_endpoints_do(self):
        obj = no_dessert_edge(F(1, 4)).instance.to_json_obj()
        obj["edges"][0]["i"], obj["edges"][0]["j"] = 1.5, True
        obj["vertices"] = [1.5, True, None]
        inst = MatchingInstance.from_json_obj(obj)
        assert inst.vertices == ("1.5", "None", "True")
        assert inst.edge_ids == [("1.5", "True")]

    def test_round_trip(self):
        inst = no_dessert_edge(F(1, 4)).instance
        obj = inst.to_json_obj()
        inst2 = MatchingInstance.from_json_obj(obj)
        assert inst2.edge_ids == inst.edge_ids
        assert inst2.edges[0].outcomes == inst.edges[0].outcomes

    def test_orientation_round_trip(self):
        o = Orientation([("b", "a"), ("c", "b")])
        assert Orientation.from_json_obj(o.to_json_obj()) == o
