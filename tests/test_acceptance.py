"""Acceptance suite: one test per criterion, exact tolerances throughout.

Criteria 1-3 pin the named instances to their closed forms.  Criteria 4-7
quantify over 200 seeded random instances (at most 3 edges, at most 3
support points per box), criterion 8 over 100 positive-values instances,
criterion 9 over 50 instances with correlated signal pairs per edge.
Criterion 10 is the only statistical one: seeded Monte Carlo estimates must
land within 4 standard errors of the exact values at 100000 trials.
"""

from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from pandora_matching.algorithms import (
    DescendingRunner,
    RandomizedRunner,
    VertexBasedDescendingRunner,
    best_of_two,
    edge_based_orientation,
    expected_welfare,
)
from pandora_matching.checks import summarize
from pandora_matching.distributions import ZERO
from pandora_matching.instance import Orientation, canonical_orientation
from pandora_matching.nested import check_non_exposure, make_trace
from pandora_matching.oracle import optimal_welfare
from pandora_matching.repro import (
    InspectIFirstStrategy,
    InspectJOnlyStrategy,
    InspectJThenIStrategy,
    bundled_star,
    indistinguishable_edge,
    no_dessert_edge,
    no_dessert_star,
)

from support import OpenAllFirstStagesStrategy, general_batch, joint_batch, positive_batch

ALPHAS = (F(1, 2), F(1, 4), F(1, 8))


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number} ({description}): FAIL")
        raise
    print(f"\nACCEPTANCE CRITERION {number} ({description}): PASS")


@pytest.fixture(scope="module")
def general_results():
    out = []
    for inst in general_batch(200):
        o = canonical_orientation(inst)
        fwd = summarize(inst, DescendingRunner(inst, o))
        rev = summarize(inst, DescendingRunner(inst, o.reverse()))
        out.append({
            "inst": inst,
            "o": o,
            "fwd": fwd,
            "rev": rev,
            "opt_free": optimal_welfare(inst).value,
            "opt_fwd": optimal_welfare(inst, "oriented", o).value,
            "opt_rev": optimal_welfare(inst, "oriented", o.reverse()).value,
            "randomized": expected_welfare(inst, RandomizedRunner(inst)),
            "best_of_two": best_of_two(inst)[1],
        })
    return out


def test_criterion_1_indistinguishable_edge():
    with criterion(1, "indistinguishable edge exact values"):
        named = indistinguishable_edge()
        inst = named.instance
        rows = {q: (compute(), expected) for q, compute, expected in named.table}
        for got, expected in rows.values():
            assert got == expected
        assert rows["sigma_ij"][0] == 1 and rows["sigma_ji"][0] == 1
        assert optimal_welfare(inst).value == F(1, 4)
        assert expected_welfare(inst, InspectIFirstStrategy(inst)) == F(1, 4)
        assert expected_welfare(inst, InspectJThenIStrategy(inst)) == F(-5, 8)
        assert expected_welfare(inst, InspectJOnlyStrategy(inst)) == F(-1)


def test_criterion_2_bundled_star_separation():
    with criterion(2, "bundled star: index, cap, and growing separation"):
        ratios = {}
        for n in (2, 4, 8):
            named = bundled_star(n)
            table = {q: (compute(), expected) for q, compute, expected in named.table}
            index, index_expected = table["bundled_index"]
            assert index == index_expected == 1 - F(1, n)
            policy, policy_expected = table["inspect_all_centers_welfare"]
            assert policy == policy_expected == (1 - (1 - F(1, n)) ** n) * n - 1
            bundled_opt = optimal_welfare(named.instance, "bundled").value
            assert bundled_opt <= 1
            ratios[n] = policy / bundled_opt
        assert ratios[2] < ratios[4] < ratios[8]
        assert ratios[8] >= 2


def test_criterion_3_no_dessert_family():
    with criterion(3, "orientation flip: indices, welfares, and the bad rule"):
        for alpha in ALPHAS:
            named = no_dessert_edge(alpha)
            for quantity, compute, expected in named.table:
                assert compute() == expected, (alpha, quantity)
            inst = named.instance
            # the per-edge rule prefers the reverse basket, which is an
            # alpha-fraction of the better orientation's welfare
            chosen = edge_based_orientation(inst)
            assert chosen == Orientation([("j", "i")])
            w_chosen = expected_welfare(
                inst, DescendingRunner(inst, chosen))
            w_best = expected_welfare(
                inst, DescendingRunner(inst, chosen.reverse()))
            assert w_chosen == alpha * w_best

            star = no_dessert_star(alpha, 2)
            table = {q: (compute(), expected) for q, compute, expected in star.table}
            gain, gain_expected = table["per_copy_gain"]
            assert gain == gain_expected == alpha - 2 * alpha * alpha
            chosen_o, welfare = best_of_two(star.instance)
            all_ji = canonical_orientation(star.instance).reverse()
            w_all_ji = expected_welfare(
                star.instance, DescendingRunner(star.instance, all_ji))
            w_all_ij = expected_welfare(
                star.instance,
                DescendingRunner(star.instance, canonical_orientation(star.instance)))
            if alpha < F(1, 2):
                assert chosen_o == all_ji and welfare == w_all_ji > w_all_ij
            else:
                # both worlds coincide exactly at this parameter
                assert w_all_ji == w_all_ij == welfare


def test_criterion_4_amortization(general_results):
    with criterion(4, "welfare equals claimed capped value for descending"):
        for res in general_results:
            assert res["fwd"].welfare == res["fwd"].claimed_kappa_sum
            assert res["rev"].welfare == res["rev"].claimed_kappa_sum

        # a policy that opens every first box and walks away is strictly
        # below its capped bound exactly when that leaves value on the table
        strict_count = 0
        for res in general_results:
            inst, o = res["inst"], res["o"]
            runner = DescendingRunner(inst, o)
            welfare = expected_welfare(inst, OpenAllFirstStagesStrategy(inst, o))
            exposed = False
            for eid, compiled in runner.baskets.items():
                for path in compiled.paths:
                    trace = make_trace(eid, path, 1, False)
                    if not check_non_exposure(trace, compiled):
                        exposed = True
            bound = ZERO  # nothing is ever claimed
            assert welfare <= bound
            assert (welfare < bound) == exposed
            strict_count += exposed
        assert strict_count > 0

        inst = no_dessert_edge(F(1, 2)).instance
        o = canonical_orientation(inst)
        assert expected_welfare(inst, OpenAllFirstStagesStrategy(inst, o)) == -1 < 0


def test_criterion_5_non_exposure(general_results):
    with criterion(5, "descending policies never abandon revealed value"):
        for res in general_results:
            assert res["fwd"].non_exposed and res["fwd"].traces_valid
            assert res["rev"].non_exposed and res["rev"].traces_valid
            bundled = summarize(res["inst"], DescendingRunner(res["inst"]))
            assert bundled.traces_valid and bundled.non_exposed
            vertex = summarize(res["inst"], VertexBasedDescendingRunner(res["inst"]))
            assert vertex.traces_valid and vertex.non_exposed


def test_criterion_6_greedy_equivalence(general_results):
    with criterion(6, "descending matching equals greedy on capped weights"):
        for res in general_results:
            assert res["fwd"].greedy_equal
            assert res["rev"].greedy_equal


def test_criterion_7_approximation_ratios(general_results):
    with criterion(7, "half/quarter approximation and the orientation bound"):
        for res in general_results:
            assert 2 * res["fwd"].welfare >= res["opt_fwd"]
            assert 2 * res["rev"].welfare >= res["opt_rev"]
            assert 4 * res["randomized"] >= res["opt_free"]
            assert 4 * res["best_of_two"] >= res["opt_free"]
            assert res["opt_free"] <= 2 * res["fwd"].welfare + 2 * res["rev"].welfare


def test_criterion_8_positive_values_quarter():
    with criterion(8, "vertex-based quarter approximation on positive values"):
        for inst in positive_batch(100):
            assert inst.positive_values
            vertex = summarize(inst, VertexBasedDescendingRunner(inst))
            assert vertex.traces_valid and vertex.non_exposed
            assert 4 * vertex.welfare >= optimal_welfare(inst).value


def test_criterion_9_correlated_within_edges():
    with criterion(9, "greedy identity and ratios with correlated signals"):
        for inst in joint_batch(50):
            o = canonical_orientation(inst)
            fwd = summarize(inst, DescendingRunner(inst, o))
            rev = summarize(inst, DescendingRunner(inst, o.reverse()))
            assert fwd.greedy_equal and rev.greedy_equal
            assert fwd.non_exposed and rev.non_exposed
            assert fwd.welfare == fwd.claimed_kappa_sum
            opt_free = optimal_welfare(inst).value
            assert 2 * fwd.welfare >= optimal_welfare(inst, "oriented", o).value
            assert 2 * rev.welfare >= optimal_welfare(inst, "oriented", o.reverse()).value
            assert 4 * expected_welfare(inst, RandomizedRunner(inst)) >= opt_free
            assert 4 * best_of_two(inst)[1] >= opt_free
            assert opt_free <= 2 * fwd.welfare + 2 * rev.welfare


def test_criterion_10_monte_carlo_consistency():
    with criterion(10, "seeded Monte Carlo within 4 standard errors"):
        trials = 100_000

        inst = no_dessert_edge(F(1, 4)).instance
        runner = DescendingRunner(inst, canonical_orientation(inst))
        exact = expected_welfare(inst, runner)
        assert exact == F(3, 4)
        mean, stderr = expected_welfare(inst, runner, "montecarlo",
                                        seed=20240809, trials=trials)
        assert stderr > 0
        assert abs(mean - float(exact)) <= 4 * stderr

        ind = indistinguishable_edge().instance
        vb = VertexBasedDescendingRunner(ind)
        exact_vb = expected_welfare(ind, vb)
        mean, stderr = expected_welfare(ind, vb, "montecarlo",
                                        seed=1729, trials=trials)
        assert stderr > 0
        assert abs(mean - float(exact_vb)) <= 4 * stderr
