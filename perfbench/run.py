"""Benchmark of the `pandora` CLI on four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: items run one after another
in a fixed order, each an in-process call of ``pandora_matching.cli.main``
on an instance file written during set-up, with its output captured and
checked.  ``--trace 0`` times the loop for ``--seconds`` of busy time and
prints the end-to-end metrics, with every time scaled to nominal machine
speed by a reference task timed between items (see speed.py); the unscaled
figures are printed too.  ``--trace 1`` runs a fixed number of item
groups with every layer boundary wrapped (see spans.py), then a short
cProfile pass on the following groups, and prints the per-layer metrics;
its work counts repeat exactly for a given seed and ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with every
item's latency, and for traced runs the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import workloads as wl
from spans import Tracer, fractions_self_share

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Set-up runs this many times, each from a fresh import of the program; the
# median is reported.
SETUP_REPEATS = 9
# Groups materialized during set-up; later groups are written while the
# clock is paused.
SETUP_GROUPS = 48
# Traced runs do this many groups per second of --seconds, about what an
# untraced run completes at the seed commit, so that both runs cover nearly
# the same items.  A fixed count keeps the work counts comparable.
TRACE_GROUPS_PER_S = {"certify": 12.0, "oracle-star": 2.2, "policy-star": 3.0,
                      "montecarlo": 13.0}
TRACE_WALL_LIMIT_S = 120.0


class SetupError(Exception):
    pass


class Terminated(BaseException):
    """SIGTERM, raised past the per-item handlers so that clean-up runs."""


def _terminate(signum, frame):
    raise Terminated


def import_program():
    """Import the CLI afresh from this checkout's src/."""
    if not (SRC / "pandora_matching" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC / 'pandora_matching'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "pandora_matching"]:
        del sys.modules[name]
    cli = importlib.import_module("pandora_matching.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported the program from {cli.__file__}, not from {SRC}")
    return cli


class Session:
    """Instance files, item execution and output checks for one workload."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.stream = wl.STREAMS[workload](seed)
        self.ready: list = []
        self.records: list = []
        self.exact: dict = {}            # (instance, policy) -> exact welfare
        self.profiler = None
        self.busy = 0.0                  # timed item seconds so far
        self.speed = speed.SpeedLog()

    def path_of(self, name: str) -> str:
        return os.path.relpath(self.workdir / f"{name.replace('/', '_')}.json", ROOT)

    def write(self, name: str, doc: dict) -> str:
        path = self.path_of(name)
        with open(ROOT / path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def materialize(self, count: int) -> None:
        for _ in range(count):
            group = next(self.stream)
            if group.doc is not None:
                group.path = self.write(group.name, group.doc)
            elif group.shared_file is not None:
                group.path = self.path_of(group.shared_file)
            else:
                group.path = None
            self.ready.append(group)

    def next_group(self):
        if not self.ready:
            self.materialize(SETUP_GROUPS)
        return self.ready.pop(0)

    def call(self, argv: list) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.profiler is not None:
                self.profiler.enable()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            finally:
                if self.profiler is not None:
                    self.profiler.disable()
        return rc, out.getvalue(), err.getvalue()

    def prepare(self) -> None:
        """Set-up: files, exact references or a warm-up item, first groups."""
        self.workdir.mkdir(parents=True)
        if self.workload == "montecarlo":
            for name, doc, _ in wl.montecarlo_instances():
                path = self.write(name, doc)
                for policy in wl.MC_POLICIES:
                    rc, out, err = self.call(["run", "--instance", path, "--policy", policy,
                                              "--mode", "exact"])
                    if rc != 0:
                        raise SetupError(f"exact {policy} on {name} failed: {err.strip()}")
                    self.exact[(name, policy)] = json.loads(out)["welfare"]["exact"]
        else:
            path = self.write("warmup", wl.warmup_doc())
            argv = [path if a == "{instance}" else a for a in wl.WARMUP[self.workload]]
            rc, _, err = self.call(argv)
            if rc != 0:
                raise SetupError(f"warm-up item failed: {err.strip()}")
        self.materialize(SETUP_GROUPS)

    def run_group(self, group, deadline=float("inf"), tracer=None, timed=True) -> None:
        """Run the group's items, stopping once busy time reaches ``deadline``.

        Timed items add their time and output check to ``busy``, and the
        machine-speed reference is sampled between them.
        """
        values = {}
        done = []
        for item in group.items:
            argv = [group.path if a == "{instance}" else a for a in item.argv]
            record = {"id": len(self.records), "group": group.name, "label": item.label,
                      "failed": None}
            if tracer is not None:
                tracer.set_item(record["id"])
            start = perf_counter()
            try:
                rc, out, err = self.call(argv)
                record["latency_s"] = perf_counter() - start
                record["digest"], values[item.label] = wl.parse_output(item, rc, out)
            except wl.CheckFailure as exc:
                record["failed"] = str(exc)
            except Exception:   # a crash of one item is counted, not fatal
                record.setdefault("latency_s", perf_counter() - start)
                record["failed"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            if timed:
                record["busy_s"] = perf_counter() - start
                self.busy += record["busy_s"]
                record["at"] = self.busy - record["busy_s"] / 2
                if self.speed.due(self.busy):
                    self.speed.sample(self.busy)
            if item.kind == "montecarlo" and record["failed"] is None:
                record["estimate"] = values[item.label]
                record["pair"] = (group.shared_file, item.label)
            self.records.append(record)
            done.append(record)
            if self.busy >= deadline:
                break
        bad = set(wl.group_failures({k: v for k, v in values.items() if v is not None}))
        for record in done:
            if record["label"] in bad and record["failed"] is None:
                record["failed"] = "cross-item check on the group failed"

    def scale(self, records: list) -> float:
        """Scale the records' times to nominal machine speed; return their busy time."""
        scaled_busy = 0.0
        for record in records:
            factor = self.speed.factor(record["at"])
            record["scaled_latency_s"] = record["latency_s"] * factor
            scaled_busy += record["busy_s"] * factor
        return scaled_busy

    def finish_montecarlo(self) -> None:
        estimates: dict = {}
        for record in self.records:
            if "pair" in record:
                estimates.setdefault(record["pair"], []).append(record["estimate"])
        bad = set(wl.montecarlo_failures(estimates, self.exact))
        for record in self.records:
            if record.get("pair") in bad and record["failed"] is None:
                record["failed"] = "pooled estimate more than 4 stderr from the exact value"

    def digest(self) -> str:
        h = hashlib.sha256()
        for record in self.records:
            h.update(f"{record['group']}\t{record['label']}\t{record.get('digest')}\n".encode())
        return h.hexdigest()


def setup(workload: str, seed: int, base: Path) -> tuple[Session, list, list]:
    """Set up SETUP_REPEATS times; keep the last session.

    Returns the session and each repeat's time, raw and scaled to nominal
    machine speed by reference samples taken before and after it.
    """
    raw, scaled = [], []
    session = None
    for rep in range(SETUP_REPEATS):
        if session is not None:
            shutil.rmtree(session.workdir)
        before = speed.reference_seconds()
        start = perf_counter()
        session = Session(import_program(), workload, seed, base / f"setup{rep}")
        session.prepare()
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * speed.NOMINAL_S / statistics.fmean(
            (before, speed.reference_seconds())))
    return session, raw, scaled


def run_untraced(session: Session, seconds: float) -> None:
    session.speed.sample(0.0)
    while session.busy < seconds:
        session.run_group(session.next_group(), deadline=seconds)
    session.speed.sample(session.busy)


def run_traced(session: Session, groups: int) -> tuple[Tracer, bool]:
    tracer = Tracer()
    tracer.install()
    truncated = False
    session.speed.sample(0.0)
    try:
        for _ in range(groups):
            session.run_group(session.next_group(), tracer=tracer)
            if session.busy > TRACE_WALL_LIMIT_S:
                truncated = True
                break
    finally:
        tracer.uninstall()
    session.speed.sample(session.busy)
    return tracer, truncated


def run_profiled(session: Session, groups: int) -> float:
    session.profiler = cProfile.Profile()
    try:
        for _ in range(groups):
            session.run_group(session.next_group(), timed=False)
    finally:
        profiler, session.profiler = session.profiler, None
    return fractions_self_share(profiler)


def tail(latencies: list) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with ten items beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    if not (ROOT / ".git").exists():     # not a parent directory's repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = git_commit()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit, "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_latencies(meta: dict):
    """Scaled item latencies of the untraced run that matches ``meta``, or None.

    The run must have the same workload, seed and --seconds, and the same
    commit and source size, so that it measured this program.
    """
    path = OUT / f"{meta['workload']}-seed{meta['seed']}-trace0.json"
    if not path.is_file():
        return None
    report = json.loads(path.read_text())
    other = report.get("meta", {})
    if any(other.get(k) != meta[k] for k in ("seconds", "git_commit", "src_lines")):
        return None
    items = report["items"]
    if not all("scaled_latency_s" in r for r in items):
        return None     # written by an older version of this benchmark
    return [r["scaled_latency_s"] for r in items]


def untraced_summary(session: Session, setup_raw: list, setup_scaled: list, meta: dict):
    records = session.records
    busy = session.busy
    scaled_busy = session.scale(records)
    latencies = [r["scaled_latency_s"] for r in records]
    raw = [r["latency_s"] for r in records]
    tail_s, tail_pct = tail(latencies)
    meta.update(item_tail_percentile=round(tail_pct, 2), items=len(latencies))
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "items_per_s": (len(latencies) / scaled_busy, "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    factors = [speed.NOMINAL_S / s for s in session.speed.seconds]
    lines = [f"# timed phase: {len(latencies)} items in {busy:.3f} s busy; "
             f"item_tail_ms is p{tail_pct:.1f} of {len(latencies)} items",
             f"# machine speed: {len(factors)} reference samples, scale factor median "
             f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}",
             f"# unscaled: setup_s {statistics.median(setup_raw):.6g}  items_per_s "
             f"{len(raw) / busy:.6g}  item_p50_ms {1000 * statistics.median(raw):.6g}  "
             f"item_tail_ms {1000 * tail(raw)[0]:.6g}"]
    return metrics, lines


def traced_summary(session: Session, tracer: Tracer, traced_items: int, share: float,
                   truncated: bool, report: dict):
    records = session.records

    def factor(item: int) -> float:
        return session.speed.factor(records[item]["at"])

    metrics = dict(tracer.metrics(traced_items, factor))
    raw = tracer.metrics(traced_items)
    traced_records = records[:traced_items]
    busy = session.busy
    metrics["trace.items_per_s"] = (traced_items / session.scale(traced_records), "1/s")
    metrics["fractions.self_share"] = (share, "fraction")
    layers = tracer.layer_table(factor)
    raw_layers = tracer.layer_table()
    report.update(layers=layers, unscaled_layers=raw_layers, missing=tracer.missing,
                  spans={"total": tracer.span_total, "written": len(tracer.spans)})
    lines = [f"# traced: {traced_items} items in {busy:.3f} s busy"
             + ("  TRUNCATED" if truncated else ""),
             f"# spans: {tracer.span_total} recorded, {len(tracer.spans)} written",
             "# layer times are scaled to nominal machine speed per item; unscaled in brackets"]
    for layer, row in layers.items():
        if row.get("absent"):
            lines.append(f"# layer {layer:<10} absent")
        else:
            plain = raw_layers[layer]
            lines.append(f"# layer {layer:<10} calls {row['calls']:>9}  "
                         f"total {row['total_s']:9.4f} s ({plain['total_s']:.4f})  "
                         f"self {row['self_s']:9.4f} s ({plain['self_s']:.4f})")
    lines.append("# unscaled: " + "  ".join(f"{name} {value:.6g}"
                                           for name, (value, unit) in raw.items()
                                           if unit in ("s", "ms", "us")))
    if tracer.missing:
        lines.append("# missing (not wrapped): " + ", ".join(tracer.missing))
    meta = report["meta"]
    plain = untraced_latencies(meta)
    if plain:
        traced = [r["scaled_latency_s"] for r in traced_records]
        n = min(len(plain), len(traced))
        traced_rate, plain_rate = n / sum(traced[:n]), n / sum(plain[:n])
        report["tracing_overhead"] = {"items": n, "traced_items_per_s": traced_rate,
                                      "untraced_items_per_s": plain_rate}
        lines.append(f"# tracing overhead: traced {traced_rate:.4g} items/s against untraced "
                     f"{plain_rate:.4g} items/s on the first {n} items "
                     f"({100 * (plain_rate / traced_rate - 1):+.1f}% time)")
    else:
        lines.append("# tracing overhead: no untraced run of this program with this seed and "
                     "--seconds to compare with")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    signal.signal(signal.SIGTERM, _terminate)
    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        session, setup_raw, setup_scaled = setup(args.workload, args.seed, base)
        if args.trace == 0:
            run_untraced(session, args.seconds)
        else:
            groups = max(1, round(TRACE_GROUPS_PER_S[args.workload] * args.seconds))
            tracer, truncated = run_traced(session, groups)
            traced_items = len(session.records)
            share = run_profiled(session, max(1, groups // 4))
        if args.workload == "montecarlo":
            session.finish_montecarlo()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    report = {"meta": meta, "setup_s": {"raw": setup_raw, "scaled": setup_scaled},
              "reference_samples": {"busy_s": session.speed.at,
                                    "seconds": session.speed.seconds}}
    if args.trace == 0:
        metrics, lines = untraced_summary(session, setup_raw, setup_scaled, meta)
    else:
        metrics, lines = traced_summary(session, tracer, traced_items, share, truncated,
                                        report)
    records = session.records
    attempted = len(records)
    failed = sum(1 for r in records if r["failed"] is not None)
    digest = session.digest()
    lines = [f"# {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
             "# meta " + json.dumps(meta)] + lines
    lines.append(f"failed_share {failed / attempted:.6g} fraction ({failed} of {attempted} items)")
    lines += [f"# FAILED {r['group']} {r['label']}: {r['failed']}"
              for r in records if r["failed"] is not None]
    lines.append(f"# output digest sha256:{digest} over {attempted} items")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    metrics_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(digest=digest, metrics=metrics_doc, failed_share=failed / attempted,
                  items=[{k: r[k] for k in ("id", "group", "label", "latency_s",
                                            "scaled_latency_s", "failed") if k in r}
                         for r in records])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace == 1:
        tracer.write_spans(OUT / f"{stem}-spans.csv.gz")

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_doc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
