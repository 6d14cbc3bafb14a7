"""Runs on scaled-integer paths equal the same runs on the Fraction paths.

``DescendingRunner.run`` reads each realized path as integers times the
runner's scale Q.  ``descending_run`` on the baskets' own Fraction paths is
the reference: the same claims, stages and steps, and every number equal
after dividing by Q.  The vertex-based runner's integer sums are compared
with a replay of its decisions in Fractions.
"""

import math
from fractions import Fraction as F

import pytest

from pandora_matching.algorithms import (
    DescendingRunner,
    VertexBasedDescendingRunner,
    enumerate_realizations,
)
from pandora_matching.instance import canonical_orientation
from pandora_matching.nested import descending_run

from test_checks import check_instances

RUNNERS = {
    "forward": lambda inst: DescendingRunner(inst, canonical_orientation(inst)),
    "reverse": lambda inst: DescendingRunner(inst, canonical_orientation(inst).reverse()),
    "bundled": DescendingRunner,
}


@pytest.fixture(scope="module")
def instances():
    return list(check_instances().values())


def unscaled(res, q: int) -> tuple:
    """Everything a descending run reports, with its numbers divided by q."""
    return (res.claimed_ids,
            {i: (t.stages_opened, t.claimed, F(t.costs_paid, q), F(t.welfare, q))
             for i, t in res.traces.items()},
            [(s.time, s.basket_id, s.action, F(s.index, q),
              [(j, F(sigma, q), F(gamma, q)) for j, sigma, gamma in s.eligible_view])
             for s in res.steps],
            F(res.total_costs, q), F(res.claimed_value, q), F(res.welfare, q))


@pytest.mark.parametrize("variant", sorted(RUNNERS))
def test_descending_run_equals_fraction_reference(instances, variant):
    for inst in instances:
        runner = RUNNERS[variant](inst)
        q, scaled = runner.scaled
        assert all(isinstance(x, int) for table in scaled.values() for p in table
                   for x in (*p.sigmas, *p.costs, p.value, p.kappa1))
        for realization, _ in enumerate_realizations(inst):
            reference = descending_run(
                {eid: inst.edge(eid).paths(runner.directions[eid])[k]
                 for eid, k in realization.items()},
                inst.conflicts, record_steps=True)
            res = descending_run({eid: scaled[eid][k] for eid, k in realization.items()},
                                 inst.conflicts, record_steps=True)
            assert unscaled(res, q) == unscaled(reference, 1)
            trace = runner.run(realization, record_steps=True)
            assert trace.scale == q and trace.steps == res.steps
            assert (F(trace.costs_paid, q), F(trace.matched_value, q), F(trace.welfare, q)) == (
                reference.total_costs, reference.claimed_value, reference.welfare)


def fraction_decision_run(runner, realization) -> tuple:
    """``DecisionRunner.run`` with Fraction sums: (inspected, matched, steps,
    costs, value)."""
    vals = runner.endpoint_values(realization)
    opened, matched, blocked, steps = {}, set(), set(), []
    costs = value = F(0)
    while (step := runner._next(opened, blocked)) is not None:
        kind, pair, key = step
        if kind == "open":
            costs += runner.cost[pair]
            opened[pair] = vals[pair]
            steps.append(("open", pair, key))
            continue
        partner = (pair[1], pair[0])
        if partner not in opened:
            costs += runner.cost[partner]
            opened[partner] = vals[partner]
        eid = min(pair, partner)
        matched.add(eid)
        blocked.update(eid)
        value += vals[pair] + vals[partner]
        steps.append(("match", eid, key))
    return set(opened), matched, steps, costs, value


def test_vertex_based_run_equals_fraction_reference(instances):
    for inst in instances:
        if not inst.all_independent():
            continue
        runner = VertexBasedDescendingRunner(inst)
        for realization, _ in enumerate_realizations(inst):
            trace = runner.run(realization, record_steps=True)
            q = trace.scale
            assert q == inst.denominator
            inspected, matched, steps, costs, value = fraction_decision_run(runner, realization)
            assert (trace.inspected, trace.matched) == (inspected, matched)
            assert [step[1:] for step in trace.steps] == steps
            assert (F(trace.costs_paid, q), F(trace.matched_value, q), F(trace.welfare, q)) == (
                costs, value, value - costs)


def test_scale_is_the_lcm_of_the_denominators_read(instances):
    for inst in instances:
        runner = RUNNERS["forward"](inst)
        denominators = [x.denominator for e in inst.edges for o in e.outcomes
                        for x in (e.cost_ij, e.cost_ji, o.total, o.v_i or 0, o.v_j or 0)]
        denominators += [s.denominator for e in inst.edges
                         for p in e.paths(runner.directions[e.id]) for s in p.sigmas]
        assert runner.scaled[0] == math.lcm(*denominators)
