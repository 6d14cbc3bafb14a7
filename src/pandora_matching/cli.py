"""Command-line interface.

Subcommands:
  index         Weitzman index of a single box JSON file
  nested-index  annotate a basket (outcome tree) JSON file
  run           evaluate a matching policy on an instance
  oracle        optimal-policy value under a constraint
  repro         tables for the named benchmark instances
  check         run the invariant suite on an instance

Exact rationals appear in JSON output as "num/den" strings with float
renderings alongside.  PANDORA_ENUM_BOUND overrides the default exact
enumeration bound.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import repro
from .algorithms import (
    ENUM_BOUND_ENV,
    POLICY_NAMES,
    EnumerationBoundError,
    edge_based_orientation,
    expected_welfare,
    make_runner,
    outcome_cuts,
    require_within_bound,
    resolve_enum_bound,
    sample_realization,
)
from .boxes import PandoraBox, weitzman_index
from .checks import run_all_checks
from .instance import (
    MatchingInstance,
    Orientation,
    canonical_orientation,
    random_orientation,
)
from .nested import OutcomeNode, annotate, annotated_to_json_obj
from .oracle import StateBoundError, optimal_action_tree, optimal_welfare, require_orientable
from .rationals import (
    as_float,
    format_rational,
    load_json,
    loads_json,
    parse_rational,
    rational_json,
)
from .rng import SplitMix64

DEFAULT_TRIALS = 100_000


class CliError(Exception):
    pass


def _load(path: str, what: str, from_json_obj, text: str | None = None):
    """Read the JSON file ``path``, or JSON ``text`` that errors call ``path``,
    into an object; any failure becomes one CliError."""
    try:
        return from_json_obj(load_json(path) if text is None else loads_json(text))
    except KeyError as exc:
        raise CliError(f"cannot read {what} {path}: missing key {exc.args[0]!r}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _load_instance(path: str) -> MatchingInstance:
    return _load(path, "instance", MatchingInstance.from_json_obj)


def _check_seed(flag: str, seed: int | None) -> int | None:
    """``seed``, refused outside [0, 2^64), where SplitMix64 would alias it to another."""
    if seed is not None and not 0 <= seed < 1 << 64:
        raise CliError(f"{flag} must be in [0, 2^64), got {seed}")
    return seed


def _orientation_seed(spec: str | None) -> int | None:
    """SEED of a ``random:SEED`` orientation spec, else None."""
    if spec is None or not spec.startswith("random:"):
        return None
    text = spec.split(":", 1)[1]
    try:
        return _check_seed("--orientation random:SEED", int(text))
    except ValueError:
        raise CliError(f"--orientation random:SEED needs an integer SEED, "
                       f"got {text!r}") from None


def _resolve_orientation(spec: str | None, inst: MatchingInstance) -> Orientation:
    """canonical | reverse | edge-based | random:SEED | inline JSON | file path."""
    if spec is None or spec == "canonical":
        return canonical_orientation(inst)
    if spec == "reverse":
        return canonical_orientation(inst).reverse()
    if spec == "edge-based":
        return edge_based_orientation(inst)
    if (seed := _orientation_seed(spec)) is not None:
        return random_orientation(inst, SplitMix64(seed))
    if spec.strip().startswith("["):
        o = _load("from --orientation", "orientation", Orientation.from_json_obj, spec)
    elif os.path.exists(spec):
        o = _load(spec, "orientation", Orientation.from_json_obj)
    else:
        raise CliError(f"cannot interpret orientation spec {spec!r}")
    o.require_covers(inst)
    return o


def _dumps(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` without its indenting encoder's closures,
    a reference cycle that only the collector frees, once per call."""
    if not (obj and isinstance(obj, (dict, list, tuple))):
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        parts = [f"{json.encoder.encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                 for k, v in obj.items()]
        return "{" + inner + f",{inner}".join(parts) + pad + "}"
    return "[" + inner + f",{inner}".join([_dumps(v, inner) for v in obj]) + pad + "]"


def _emit(doc: dict, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        print(_dumps(doc))
        return
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(csv_header)
    for row in csv_rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def cmd_index(args) -> int:
    box = _load(args.instance, "box", PandoraBox.from_json_obj)
    sigma = weitzman_index(box)
    print(json.dumps({"sigma": format_rational(sigma), "sigma_float": as_float(sigma)}))
    return 0


def cmd_nested_index(args) -> int:
    root = _load(args.instance, "tree", OutcomeNode.from_json_obj)
    basket = annotate(root)
    doc = {
        "sigma1": format_rational(basket.sigma1),
        "kappa1": basket.kappa1_law.to_json_obj(),
        "tree": annotated_to_json_obj(basket.root),
    }
    print(_dumps(doc))
    return 0


def cmd_run(args) -> int:
    if args.orientation is not None and args.policy != "oriented-desc":
        raise CliError(f"--orientation applies only to oriented-desc, not {args.policy}")
    if args.trace_seed is not None and args.policy == "randomized":
        raise CliError("--trace-seed needs one runner; randomized draws an orientation "
                       "per realization")
    if args.trace_seed is not None and args.format == "csv":
        raise CliError("--trace-seed needs --format json; the CSV row has no trace")
    if args.mode == "montecarlo":
        if args.policy == "best-of-two":
            raise CliError("best-of-two has no Monte Carlo mode; it compares the exact "
                           "welfare of two orientations")
        if args.trials is None:
            args.trials = DEFAULT_TRIALS
        if args.trials < 1:
            raise CliError(f"--trials must be at least 1, got {args.trials}")
        if args.enum_bound is not None:
            raise CliError("--enum-bound applies only to --mode exact")
        if args.seed is None:
            raise CliError("this mode requires --seed")
    else:
        for flag, given in (("--seed", args.seed), ("--trials", args.trials)):
            if given is not None:
                raise CliError(f"{flag} applies only to --mode montecarlo")
    bound = resolve_enum_bound(args.enum_bound)
    inst = _load_instance(args.instance)
    # --orientation edge-based is the edge-based runner, compiled after the bound
    policy = "edge-based" if args.orientation == "edge-based" else args.policy
    orientation = None
    if policy == "oriented-desc":
        orientation = _resolve_orientation(args.orientation, inst)
    exact = args.mode == "exact"
    if exact:   # the bound expected_welfare checks, before a basket compiles
        draws = len(inst.edges) if policy == "randomized" else 0   # a fair coin per edge
        require_within_bound(2 ** draws * inst.realization_count(), bound)
    runner = make_runner(inst, policy, orientation)
    result = expected_welfare(inst, runner, args.mode, args.seed, args.trials, bound)
    value, stderr = (result, "") if exact else result
    doc: dict = {"instance": args.instance, "policy": args.policy, "mode": args.mode}
    orientation_desc = ""
    if (orientation := getattr(runner, "orientation", None)) is not None:
        orientation_desc = ";".join(f"{u}>{v}" for u, v in orientation.sorted_pairs())
        doc["orientation"] = orientation.to_json_obj()
    doc["welfare"] = rational_json(value) if exact else {
        "float": value, "stderr": stderr, "trials": args.trials, "seed": args.seed}
    if args.trace_seed is not None:
        realization = sample_realization(outcome_cuts(inst), SplitMix64(args.trace_seed))
        trace = runner.run(realization)
        doc["sample_trace"] = _trace_doc(inst, realization, trace)

    ratio = ""
    if args.with_opt:
        opt = optimal_welfare(inst).value
        doc["opt_free"] = rational_json(opt)
        if opt != 0 and exact:
            ratio_val = Fraction(value) / opt
            doc["ratio_to_opt"] = rational_json(ratio_val)
            ratio = format_rational(ratio_val)

    exact_str = format_rational(value) if isinstance(value, Fraction) else ""
    _emit(doc, args.format,
          csv_rows=[[args.instance, args.policy, orientation_desc, args.mode,
                     exact_str, as_float(value), ratio, stderr]],
          csv_header=["instance", "policy", "orientation", "mode",
                      "value_exact", "value_float", "ratio_to_opt", "stderr"])
    return 0


def _trace_doc(inst, realization, trace) -> dict:
    return {
        "realization": {f"{i}-{j}": k for (i, j), k in realization.items()},
        "inspected": sorted(f"{u}>{v}" for u, v in trace.inspected),
        "matched": sorted(f"{i}-{j}" for i, j in trace.matched),
        "costs_paid": format_rational(Fraction(trace.costs_paid, trace.scale)),
        "welfare": format_rational(Fraction(trace.welfare, trace.scale)),
    }


def cmd_oracle(args) -> int:
    if args.orientation is not None and args.constraint != "oriented":
        raise CliError(f"--orientation applies only to --constraint oriented, "
                       f"not {args.constraint}")
    inst = _load_instance(args.instance)
    orientation = None
    if args.constraint == "oriented":
        if args.orientation == "edge-based":   # refuse before it compiles every edge both ways
            require_orientable(inst)
        orientation = _resolve_orientation(args.orientation, inst)
    pv = optimal_welfare(inst, args.constraint, orientation)
    doc = {"constraint": args.constraint, "value": format_rational(pv.value),
           "value_float": as_float(pv.value)}
    if orientation is not None:
        doc["orientation"] = orientation.to_json_obj()
    if args.trace:
        doc["optimal_action_trace"] = optimal_action_tree(inst, pv)
    print(_dumps(doc))
    return 0


def cmd_repro(args) -> int:
    rows = repro.report(only=args.only, alpha=parse_rational(args.alpha),
                        n=args.n, m=args.m)
    mismatches = [r for r in rows if not r.match]
    if args.format == "json":
        doc = {"rows": [{
            "instance": r.instance, "quantity": r.quantity,
            "computed": format_rational(r.computed),
            "expected": format_rational(r.expected),
            "match": r.match} for r in rows],
            "mismatches": len(mismatches)}
        print(_dumps(doc))
    else:
        _emit({}, "csv",
              csv_rows=[[r.instance, r.quantity, format_rational(r.computed),
                         as_float(r.computed), format_rational(r.expected), r.match]
                        for r in rows],
              csv_header=["instance", "quantity", "computed_exact",
                          "computed_float", "expected", "match"])
    return 1 if mismatches else 0


def cmd_check(args) -> int:
    bound = resolve_enum_bound(args.enum_bound)
    inst = _load_instance(args.instance)
    spec = args.orientation
    orientation = None if spec == "edge-based" else _resolve_orientation(spec, inst)
    require_within_bound(inst.realization_count(), bound)   # before edge-based compiles
    results = run_all_checks(inst, orientation or edge_based_orientation(inst), bound)
    doc = {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                      for r in results],
           "all_passed": all(r.passed for r in results)}
    print(_dumps(doc))
    return 0 if doc["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pandora",
        description="Exact Pandora-box matching: indices, policies, oracle, repro.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="Weitzman index of a box JSON file")
    p.add_argument("--instance", required=True, help="box file: {dist, cost}")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("nested-index", help="annotate a basket outcome tree")
    p.add_argument("--instance", required=True, help="tree file")
    p.set_defaults(func=cmd_nested_index)

    p = sub.add_parser("run", help="evaluate a matching policy")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p.add_argument("--orientation", default=None,
                   help="oriented-desc only: canonical (default) | reverse | edge-based | "
                        "random:SEED | file | inline JSON")
    p.add_argument("--mode", default="exact", choices=["exact", "montecarlo"])
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=None,
                   help=f"montecarlo only; default {DEFAULT_TRIALS}")
    p.add_argument("--enum-bound", type=int, default=None)
    p.add_argument("--with-opt", action="store_true",
                   help="also compute the free optimum and the welfare ratio")
    p.add_argument("--trace-seed", type=int, default=None,
                   help="include the trace of one seeded sample realization")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="optimal-policy value by exhaustive DP")
    p.add_argument("--instance", required=True)
    p.add_argument("--constraint", default="free",
                   choices=["free", "oriented", "bundled"])
    p.add_argument("--orientation", default=None,
                   help="--constraint oriented only; default canonical")
    p.add_argument("--trace", action="store_true",
                   help="include the optimal action tree")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("repro", help="closed-form tables for named instances")
    p.add_argument("--only", default=None, choices=list(repro.ALL_NAMES))
    p.add_argument("--alpha", default="1/4", help="rational, e.g. 1/4")
    p.add_argument("--n", type=int, default=4, help="star size")
    p.add_argument("--m", type=int, default=2, help="copy count for the hub instance")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("check", help="run the invariant suite on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--orientation", default="canonical")
    p.add_argument("--enum-bound", type=int, default=None)
    p.set_defaults(func=cmd_check)

    return parser


# One parser per process; each parse_args call still makes a fresh Namespace.
_shared_parser = functools.cache(build_parser)


def _bound_advice(args) -> str:
    """The remedies for an exceeded enumeration bound that this command offers."""
    if args.command == "repro":
        return f"raise the bound ({ENUM_BOUND_ENV})"
    advice = f"raise the bound (--enum-bound / {ENUM_BOUND_ENV})"
    if args.command == "run" and args.policy != "best-of-two":
        advice += " or use Monte Carlo mode"
    return advice


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        given = vars(args)   # seeds are checked before any input is read
        _check_seed("--seed", given.get("seed"))
        _check_seed("--trace-seed", given.get("trace_seed"))
        _orientation_seed(given.get("orientation"))
        return args.func(args)
    except EnumerationBoundError as exc:
        print(f"error: {exc}; {_bound_advice(args)}", file=sys.stderr)
        return 2
    except (CliError, StateBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
