"""Instance-level verification of the library's structural guarantees.

One enumeration pass per orientation collects everything the per-realization
properties need: trace validity, non-exposure, the greedy-matching identity,
the amortization identity, and the step-level index bookkeeping of the
descending run.  On top of those sit the oracle comparisons (half and
quarter approximation factors and the orientation-pair bound on the optimum).
A failed per-realization row names its first failing realization, {edge: signal labels}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import (
    DescendingRunner,
    VertexBasedDescendingRunner,
    assert_valid_trace,
    enumerate_realizations,
    expected_welfare,
    make_runner,
    realization_weights,
    require_within_bound,
)
from .instance import MatchingInstance, Orientation, canonical_orientation
from .oracle import greedy_matching, optimal_welfare


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Summary:
    """Aggregates of one full enumeration of a runner.

    claimed_kappa_sum and greedy_equal need capped edge weights, so they are
    None for the vertex-based runner; gamma_steps_ok is only checked when
    steps are recorded.  ``witnesses``: false flag -> first failing realization.
    """

    welfare: Fraction
    claimed_kappa_sum: Fraction | None
    traces_valid: bool
    non_exposed: bool
    greedy_equal: bool | None
    gamma_steps_ok: bool
    witnesses: dict


def summarize(inst: MatchingInstance, runner, enum_bound=None,
              record_steps: bool = False) -> Summary:
    """Enumerate every realization once and check each run, summing integers."""
    weighted = isinstance(runner, DescendingRunner)
    welfare = kappa_sum = 0
    witnesses: dict = {}
    for realization, weight in enumerate_realizations(inst, enum_bound):
        trace = runner.run(realization, record_steps=record_steps)
        welfare += weight * trace.welfare
        try:
            assert_valid_trace(trace, inst, realization)
        except AssertionError:
            witnesses.setdefault("traces_valid", realization)
        if not runner.non_exposed(realization, trace):
            witnesses.setdefault("non_exposed", realization)
        if weighted:
            kappa = {eid: nt.path.kappa1 for eid, nt in trace.nested_traces.items()}
            kappa_sum += weight * sum([kappa[eid] for eid in trace.matched])
            if trace.matched != greedy_matching(kappa)[0]:
                witnesses.setdefault("greedy_equal", realization)
        if record_steps and not _gamma_steps_ok(trace.steps):
            witnesses.setdefault("gamma_steps_ok", realization)
    den = realization_weights(inst)[0] * trace.scale
    flags = {flag: flag not in witnesses
             for flag in ("traces_valid", "non_exposed", "greedy_equal", "gamma_steps_ok")}
    if not weighted:
        flags["greedy_equal"] = None
    return Summary(Fraction(welfare, den), Fraction(kappa_sum, den) if weighted else None,
                   witnesses=witnesses, **flags)


def _gamma_steps_ok(steps) -> bool:
    """Advanced basket has maximal running-min index; idle ones sit at theirs."""
    for step in steps:
        view = {bid: (sigma, gamma) for bid, sigma, gamma in step.eligible_view}
        _, adv_gamma = view[step.basket_id]
        for bid, (sigma, gamma) in view.items():
            if gamma > adv_gamma:
                return False
            if bid != step.basket_id and gamma != sigma:
                return False
    return True


def run_all_checks(inst: MatchingInstance, orientation: Orientation | None = None,
                   enum_bound=None) -> list[CheckResult]:
    """The full invariant suite for one instance; all exact comparisons."""
    def row(name: str, s: Summary, flag: str) -> CheckResult:
        if flag not in s.witnesses:
            return CheckResult(name, getattr(s, flag))
        outcomes = {eid: inst.edge(eid).outcomes[k] for eid, k in s.witnesses[flag].items()}
        return CheckResult(name, False, "first failing realization " + json.dumps(
            {f"{i}-{j}": [o.label_i, o.label_j] for (i, j), o in outcomes.items()}))

    require_within_bound(inst.realization_count(), enum_bound)   # before any compile
    # the constructors refuse invalid instances, so a loaded one is valid
    results = [CheckResult("instance-valid", True)]
    o = orientation or canonical_orientation(inst)
    o_rev = o.reverse()
    fwd = summarize(inst, DescendingRunner(inst, o), enum_bound, record_steps=True)
    rev = summarize(inst, DescendingRunner(inst, o_rev), enum_bound, record_steps=True)

    for label, s in (("forward", fwd), ("reverse", rev)):
        results.append(row(f"trace-validity-{label}", s, "traces_valid"))
        results.append(row(f"non-exposure-oriented-{label}", s, "non_exposed"))
        results.append(row(f"greedy-equivalence-{label}", s, "greedy_equal"))
        results.append(CheckResult(
            f"amortization-equality-{label}", s.welfare == s.claimed_kappa_sum,
            f"welfare {s.welfare} vs claimed capped sum {s.claimed_kappa_sum}"))
        results.append(row(f"descending-step-indices-{label}", s, "gamma_steps_ok"))

    bundled = summarize(inst, DescendingRunner(inst), enum_bound)
    results.append(row("trace-validity-bundled", bundled, "traces_valid"))
    results.append(row("non-exposure-bundled", bundled, "non_exposed"))
    results.append(row("greedy-equivalence-bundled", bundled, "greedy_equal"))

    if inst.all_independent():
        vertex = summarize(inst, VertexBasedDescendingRunner(inst), enum_bound)
        results.append(row("trace-validity-vertex-based", vertex, "traces_valid"))
        results.append(row("non-exposure-vertex-based", vertex, "non_exposed"))

    opt_free = optimal_welfare(inst).value
    opt_fwd = optimal_welfare(inst, "oriented", o).value
    opt_rev = optimal_welfare(inst, "oriented", o_rev).value
    results.append(CheckResult("oracle-nonnegative", opt_free >= 0, str(opt_free)))
    results.append(CheckResult(
        "oracle-dominates-oriented", opt_free >= opt_fwd and opt_free >= opt_rev))
    results.append(CheckResult(
        "half-approx-forward", 2 * fwd.welfare >= opt_fwd,
        f"2*{fwd.welfare} vs {opt_fwd}"))
    results.append(CheckResult(
        "half-approx-reverse", 2 * rev.welfare >= opt_rev,
        f"2*{rev.welfare} vs {opt_rev}"))
    results.append(CheckResult(
        "opt-bound", opt_free <= 2 * fwd.welfare + 2 * rev.welfare,
        f"{opt_free} vs 2*{fwd.welfare} + 2*{rev.welfare}"))

    for policy in ("randomized", "best-of-two"):
        value = expected_welfare(inst, make_runner(inst, policy), enum_bound=enum_bound)
        results.append(CheckResult(f"{policy}-quarter", 4 * value >= opt_free,
                                   f"4*{value} vs {opt_free}"))
    return results
