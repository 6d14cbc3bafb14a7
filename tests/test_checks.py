"""The invariant suite reports false, naming a realization, when a runner or its
step list breaks a rule; its rows and its work counts are pinned."""

import json
from collections import Counter
from pathlib import Path

import pytest

from pandora_matching import algorithms, checks
from pandora_matching.algorithms import DescendingRunner, enumerate_realizations
from pandora_matching.nested import make_trace
from pandora_matching.repro import bundled_star

from support import general_batch, joint_batch, positive_batch
from test_algorithms import named_instances

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
        trace.steps = [step._replace(eligible_view=tuple(
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
    rows = {r.name: r for r in checks.run_all_checks(inst)}
    assert [name for name in failing if rows[name].passed] == []
    for name in failing:
        if name.startswith(PER_REALIZATION):
            assert names_a_realization(rows[name].detail, inst), name
    if fault == "cost":   # every run misreports, so the first realization is named
        first = next(enumerate_realizations(inst))[0]
        assert json.loads(rows["trace-validity-forward"].detail.removeprefix(WITNESS)) == {
            f"{i}-{j}": [inst.edge((i, j)).outcomes[k].label_i,
                         inst.edge((i, j)).outcomes[k].label_j]
            for (i, j), k in first.items()}


PER_REALIZATION = ("trace-validity-", "non-exposure-", "greedy-equivalence-",
                   "descending-step-indices-")
WITNESS = "first failing realization "


def names_a_realization(detail: str, inst) -> bool:
    """True iff ``detail`` names one outcome's signal labels per edge of ``inst``."""
    if not detail.startswith(WITNESS):
        return False
    named = json.loads(detail.removeprefix(WITNESS))
    return sorted(named) == sorted(f"{e.i}-{e.j}" for e in inst.edges) and all(
        tuple(named[f"{e.i}-{e.j}"]) in {(o.label_i, o.label_j) for o in e.outcomes}
        for e in inst.edges)


def test_work_counts_ci_reads(inst, monkeypatch):
    """One descending run, one trace and one greedy matching per realization and
    descending runner (forward, reverse, bundled), counted at the names the
    benchmark's traced layers wrap."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algorithms, "descending_run",
                        counting("descending_run", algorithms.descending_run))
    monkeypatch.setattr(checks, "greedy_matching",
                        counting("greedy_matching", checks.greedy_matching))
    monkeypatch.setattr(DescendingRunner, "run", counting("run", DescendingRunner.run))
    checks.run_all_checks(inst)
    runs = 3 * inst.realization_count()
    assert calls == {"descending_run": runs, "greedy_matching": runs, "run": runs}


def check_instances() -> dict:
    """The named instances and the first 20 of each seeded batch."""
    named = named_instances()
    for batch in (general_batch, positive_batch, joint_batch):
        named.update((f"{batch.__name__}[{k}]", inst) for k, inst in enumerate(batch(20)))
    return named


def check_results(inst) -> list:
    """[name, passed, detail] of every row of ``run_all_checks``."""
    return [[r.name, r.passed, r.detail] for r in checks.run_all_checks(inst)]


class TestCheckResultsGolden:
    """Every row of ``pandora check``, captured when the runs summed Fractions."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "check_results.json").read_text())

    @pytest.fixture(scope="class")
    def instances(self):
        return check_instances()

    def test_covers_every_instance(self, instances):
        assert sorted(self.GOLDEN) == sorted(instances)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_rows_match_golden(self, instances, name):
        assert check_results(instances[name]) == self.GOLDEN[name]
