"""The invariant suite reports false when a runner or its step list breaks a rule."""

import dataclasses

import pytest

from pandora_matching import checks
from pandora_matching.algorithms import DescendingRunner
from pandora_matching.nested import make_trace
from pandora_matching.repro import bundled_star

ORIENTED = ("forward", "reverse")


def misreport_cost(trace):
    trace.costs_paid += 1


def skip_inspection(trace):
    for eid in trace.matched:
        trace.inspected.discard(eid)   # the matched edge's first box, as a directed pair


def misreport_match(trace):
    """Report no match: every claimed basket looks stopped after its last stage."""
    trace.matched = frozenset()
    trace.nested_traces = {eid: make_trace(eid, nt.path, nt.stages_opened, False)
                           for eid, nt in trace.nested_traces.items()}


def idle_view(fault):
    """A step-list fault that rewrites the (id, sigma, gamma) of each idle basket."""
    def apply(trace):
        trace.steps = [dataclasses.replace(step, eligible_view=tuple(
            view if view[0] == step.basket_id else fault(step, *view)
            for view in step.eligible_view)) for step in trace.steps]
    return apply


def advanced_gamma(step):
    return next(g for bid, _, g in step.eligible_view if bid == step.basket_id)


FAULTS = {
    "cost": (misreport_cost, ["trace-validity-" + s for s in (*ORIENTED, "bundled")]),
    "inspection": (skip_inspection, ["trace-validity-" + s for s in (*ORIENTED, "bundled")]),
    "matched-edge": (misreport_match, [f"{check}-{s}" for s in ORIENTED for check in (
        "trace-validity", "greedy-equivalence", "amortization-equality",
        "non-exposure-oriented")]),
    "idle-gamma-above-advanced": (
        idle_view(lambda step, bid, sigma, gamma: (bid, sigma, advanced_gamma(step) + 1)),
        ["descending-step-indices-" + s for s in ORIENTED]),
    "idle-gamma-below-its-index": (
        idle_view(lambda step, bid, sigma, gamma: (bid, sigma, sigma - 1)),
        ["descending-step-indices-" + s for s in ORIENTED]),
}


@pytest.fixture
def inst():
    inst = bundled_star(3).instance
    assert all(r.passed for r in checks.run_all_checks(inst))
    return inst


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_its_checks(inst, monkeypatch, fault):
    corrupt, failing = FAULTS[fault]

    class Faulty(DescendingRunner):
        def run(self, realization, record_steps=False):
            trace = super().run(realization, record_steps)
            corrupt(trace)
            return trace

    monkeypatch.setattr(checks, "DescendingRunner", Faulty)
    passed = {r.name: r.passed for r in checks.run_all_checks(inst)}
    assert [name for name in failing if passed[name]] == []
