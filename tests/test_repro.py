from fractions import Fraction as F

import pytest

from pandora_matching import repro
from pandora_matching.algorithms import (
    EnumerationBoundError,
    UnsupportedModelError,
    assert_valid_trace,
    expected_welfare,
)
from pandora_matching.distributions import ZERO
from pandora_matching.instance import EdgeSpec, MatchingInstance, canonical_orientation
from pandora_matching.oracle import optimal_welfare
from pandora_matching.repro import (
    InspectAllCentersStrategy,
    InspectIFirstStrategy,
    InspectJOnlyStrategy,
    InspectJThenIStrategy,
    IterateCopiesStrategy,
    NamedInstance,
    ReportRow,
    bundled_star,
    indistinguishable_edge,
    no_dessert_edge,
    no_dessert_star,
    report,
)

from support import OpenAllFirstStagesStrategy, enumerate_runs, general_batch


class TestNamedInstances:
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_bundled_star_table(self, n):
        for _, compute, expected in bundled_star(n).table:
            assert compute() == expected

    def test_indistinguishable_table(self):
        for _, compute, expected in indistinguishable_edge().table:
            assert compute() == expected

    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 3), F(1, 4)])
    def test_no_dessert_edge_table(self, alpha):
        for _, compute, expected in no_dessert_edge(alpha).table:
            assert compute() == expected

    @pytest.mark.parametrize("alpha,m", [(F(1, 2), 2), (F(1, 4), 1), (F(1, 4), 3)])
    def test_no_dessert_star_table(self, alpha, m):
        for _, compute, expected in no_dessert_star(alpha, m).table:
            assert compute() == expected

    def test_star_without_copies_is_just_the_outside_option(self):
        inst = no_dessert_star(F(1, 4), 0).instance
        assert optimal_welfare(inst).value == 4

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            no_dessert_edge(F(3, 2))
        with pytest.raises(ValueError):
            no_dessert_edge(0)

    def test_star_graph_shape(self):
        inst = no_dessert_star(F(1, 2), 3).instance
        assert len(inst.edges) == 4
        assert all("i" in e.id for e in inst.edges)


def strategy_cases():
    """(label, instance, strategy) for every single-box strategy the tables use."""
    for n in range(1, 9):
        inst = bundled_star(n).instance
        yield f"all-centers n={n}", inst, InspectAllCentersStrategy(inst, "u", F(n))
    inst = indistinguishable_edge().instance
    for cls in (InspectIFirstStrategy, InspectJThenIStrategy, InspectJOnlyStrategy):
        yield cls.__name__, inst, cls(inst)
    for alpha in (F(1, 2), F(1, 4), F(1, 8)):
        for m in range(4):
            inst = no_dessert_star(alpha, m).instance
            yield (f"iterate-copies alpha={alpha} m={m}", inst,
                   IterateCopiesStrategy(inst, "i", "k", alpha ** -3))
    for k, inst in enumerate(general_batch(40)):
        o = canonical_orientation(inst)
        yield f"open-first {k}", inst, OpenAllFirstStagesStrategy(inst, o)
        yield f"open-first-reverse {k}", inst, OpenAllFirstStagesStrategy(inst, o.reverse())


class TestDecisionRunnerStrategies:
    """Each strategy's decision-tree expansion against its run on every realization."""

    def test_exact_welfare_equals_every_run(self):
        for label, inst, strategy in strategy_cases():
            simulated = ZERO
            for realization, prob, trace in enumerate_runs(inst, strategy):
                assert_valid_trace(trace, inst, realization)
                simulated += prob * F(trace.welfare, trace.scale)
            assert expected_welfare(inst, strategy) == simulated, label

    def test_joint_form_rejected(self):
        inst = MatchingInstance("ik", [EdgeSpec.joint("i", "k", 1, 1, [("x", "y", F(2), F(1))])])
        builders = [InspectIFirstStrategy, InspectJThenIStrategy, InspectJOnlyStrategy,
                    lambda inst: InspectAllCentersStrategy(inst, "i", F(2)),
                    lambda inst: IterateCopiesStrategy(inst, "i", "k", F(2)),
                    lambda inst: OpenAllFirstStagesStrategy(inst, canonical_orientation(inst))]
        for build in builders:
            with pytest.raises(UnsupportedModelError, match="independent endpoint boxes"):
                build(inst)


class TestReport:
    def test_full_run_matches_everywhere(self):
        rows = report()
        assert rows and all(r.match for r in rows)

    def test_only_selects_one_instance(self):
        rows = report(only="indistinguishable-edge")
        assert {r.instance for r in rows} == {"indistinguishable-edge"}

    def test_parameters_are_threaded_through(self):
        rows = report(only="no-dessert-edge", alpha=F(1, 8))
        by_name = {r.quantity: r for r in rows}
        assert by_name["sigma1_ij"].computed == 7
        assert by_name["welfare_desc_ij"].computed == F(7, 8)

    def test_mismatch_is_visible(self):
        row = ReportRow("x", "q", F(1), F(2))
        assert not row.match

    def test_perturbed_expectation_detected(self, monkeypatch):
        named = indistinguishable_edge()
        broken = NamedInstance(named.name, named.params, named.instance, (
            ("opt_free", named.table[2][1], F(1, 3)),))
        monkeypatch.setattr(repro, "build", lambda name, **kw: broken)
        rows = report(only="indistinguishable-edge")
        assert any(not r.match for r in rows)

    @pytest.mark.parametrize("only, size, power", [
        ("bundled-star", {"n": 10 ** 6}, 10 ** 6),
        ("no-dessert-star", {"m": 10 ** 5}, 2 * 10 ** 5),
        # 2^n itself would take 1.25 GB; the count is clamped to a lower bound
        ("bundled-star", {"n": 10 ** 10}, 2 ** 20),
    ], ids=["bundled-star", "no-dessert-star", "bundled-star-clamped"])
    def test_sizes_above_the_bound_are_refused_before_building(self, monkeypatch, only, size,
                                                               power):
        def refuse(*args):
            raise AssertionError("the star was built")

        monkeypatch.setattr(repro, "bundled_star", refuse)
        monkeypatch.setattr(repro, "no_dessert_star", refuse)
        with pytest.raises(EnumerationBoundError) as exc:
            report(only=only, **size)
        assert exc.value.size == 2 ** power
        assert f"needs at least 2^{power} weighted outcomes" in str(exc.value)

    def test_the_pre_check_counts_the_rows_realizations(self, monkeypatch):
        monkeypatch.setenv("PANDORA_ENUM_BOUND", "16")
        assert all(r.match for r in report(only="bundled-star", n=4))
        assert all(r.match for r in report(only="no-dessert-star", m=2))
        for only, size, count in (("bundled-star", {"n": 5}, 32),
                                  ("no-dessert-star", {"m": 3}, 64)):
            with pytest.raises(EnumerationBoundError) as exc:
                report(only=only, **size)
            assert exc.value.size == count

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            repro.build("nope")
