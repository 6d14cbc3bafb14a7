"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent span, item id).  A
function is replaced in every module that bound it, including the modules
that did ``from .x import f``, and methods are replaced on their classes.  A
listed name that no longer exists is reported as missing, and a layer with
no name left is reported as absent.

Self time is a span's duration minus the time covered by its child spans; it
is accumulated per item as spans close, so every span counts even when only
the first ``KEEP_SPANS`` spans are stored for writing out.  Keeping the sums
per item lets the report scale each item's times by the machine-speed factor
at that item, as the untraced run scales item latencies (see speed.py).
"""

from __future__ import annotations

import gzip
import pstats
import sys
from time import perf_counter

# (layer, module, attribute path) of every wrapped function.  The runner
# classes of the algorithms module are found at install time, because their
# number is expected to change.
TARGETS = (
    ("cli", "cli", "main"),
    ("checks", "checks", "run_all_checks"),
    ("oracle", "oracle", "optimal_welfare"),
    ("oracle", "oracle", "max_weight_matching"),
    ("oracle", "oracle", "greedy_matching"),
    ("algorithms", "algorithms", "expected_welfare"),
    ("algorithms", "algorithms", "randomized_matching"),
    ("algorithms", "algorithms", "best_of_two"),
    ("algorithms", "algorithms", "sample_realization"),
    ("nested", "nested", "annotate"),
    ("nested", "nested", "descending_run"),
    ("instance", "instance", "oriented_basket"),
    ("instance", "instance", "bundled_basket"),
    ("boxes", "boxes", "weitzman_index"),
    ("rng", "rng", "SplitMix64.choose_weighted"),
    ("repro", "repro", "report"),
)
# Generator functions: their yields are counted, not timed.
COUNTED = (("algorithms", "algorithms", "enumerate_realizations"),)
LAYERS = ("cli", "checks", "oracle", "algorithms", "nested", "instance", "boxes", "rng",
          "repro")
PACKAGE = "pandora_matching"
KEEP_SPANS = 200_000


def _resolve(module, path: str):
    """(owner, attribute, original) for a dotted path, or None if it is gone."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _runner_targets(algorithms):
    out = []
    for name, cls in sorted(vars(algorithms).items()):
        if (isinstance(cls, type) and cls.__module__ == algorithms.__name__
                and name.endswith("Runner") and "run" in cls.__dict__):
            out.append(("algorithms", "algorithms", f"{name}.run"))
    return tuple(out)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.timed: set[str] = set()
        # item -> ({name: [calls, total s, self s]}, {layer: seconds in its outermost spans})
        self.per_item: dict[int, tuple[dict, dict]] = {}
        self._current: tuple[dict, dict] = ({}, {})
        self._layer_depth = dict.fromkeys(LAYERS, 0)    # open spans of each layer
        self.counts: dict[str, int] = {}     # counted generators -> items yielded
        self.oracle_states = 0
        self.spans: list[tuple] = []         # (span, name id, start, end, parent, item)
        self.span_total = 0
        self.item = -1
        self._stack: list[list] = []         # [span index, child seconds]
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def set_item(self, item: int) -> None:
        """Attribute the spans that follow to ``item``."""
        self.item = item
        self._current = self.per_item.setdefault(item, ({}, {}))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if (name == PACKAGE or name.startswith(PACKAGE + ".")) and mod is not None}
        algorithms = modules.get("algorithms")
        runners = _runner_targets(algorithms) if algorithms else ()
        for layer, modname, path in TARGETS + runners + COUNTED:
            module = modules.get(modname)
            found = _resolve(module, path) if module else None
            name = f"{modname}.{path}"
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            self.layer_of[name] = layer
            if (layer, modname, path) in COUNTED:
                self.counts[name] = 0
                wrapper = self._counting(name, original)
            else:
                self.timed.add(name)
                wrapper = self._timing(name, layer, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Every module that bound the function, under any name.
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _timing(self, name: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        depth = self._layer_depth
        count_states = name == "oracle.optimal_welfare"

        def wrapper(*args, **kwargs):
            index = self.span_total
            self.span_total = index + 1
            parent = stack[-1][0] if stack else -1
            outermost = depth[layer] == 0
            depth[layer] += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                duration = end - start
                stats, layer_total = self._current
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if outermost:
                    layer_total[layer] = layer_total.get(layer, 0.0) + duration
                if index < KEEP_SPANS:
                    spans.append((index, name_id, start, end, parent, self.item))
            if count_states:
                self.oracle_states += len(getattr(result, "best_action", ()))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts[name] += 1
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ----------------------------------------------------------

    def totals(self, factor=None) -> tuple[dict, dict]:
        """Per-name [calls, total s, self s] and per-layer seconds over all items.

        With ``factor``, a function of the item id, each item's times are
        multiplied by its factor; calls are never scaled.
        """
        stats = {name: [0, 0.0, 0.0] for name in self.timed}
        layer_total = dict.fromkeys(LAYERS, 0.0)
        for item, (item_stats, item_layers) in self.per_item.items():
            f = factor(item) if factor else 1.0
            for name, (calls, total, own) in item_stats.items():
                stat = stats[name]
                stat[0] += calls
                stat[1] += total * f
                stat[2] += own * f
            for layer, seconds in item_layers.items():
                layer_total[layer] += seconds * f
        return stats, layer_total

    def layer_table(self, factor=None) -> dict:
        """Per layer: calls, total and self seconds, or absent."""
        stats, layer_total = self.totals(factor)
        table = {}
        for layer in LAYERS:
            names = [n for n, lay in self.layer_of.items() if lay == layer and n in stats]
            if not names:
                table[layer] = {"absent": True}
                continue
            table[layer] = {
                "calls": sum(stats[n][0] for n in names),
                "total_s": layer_total[layer],
                "self_s": sum(stats[n][2] for n in names),
                "functions": {n: dict(zip(("calls", "total_s", "self_s"), stats[n]))
                              for n in sorted(names)},
            }
        return table

    def metrics(self, items: int, factor=None) -> dict:
        """Named per-layer metrics, times scaled by ``factor`` (see totals).

        A gone function contributes zero.
        """
        stats, _ = self.totals(factor)
        layers = self.layer_table(factor)

        def calls(name):
            return stats.get(name, [0])[0]

        def seconds(name):
            return stats.get(name, [0, 0.0])[1]

        def self_s(layer):
            return layers[layer].get("self_s", 0.0)

        runs = [s for n, s in stats.items()
                if n.startswith("algorithms.") and n.endswith("Runner.run")]
        states = self.oracle_states
        ow_s = seconds("oracle.optimal_welfare")
        dr_calls = calls("nested.descending_run")
        dr_s = seconds("nested.descending_run")
        return {
            "cli.self_ms": (1000 * self_s("cli") / items if items else 0.0, "ms"),
            "checks.run_all_checks.calls": (calls("checks.run_all_checks"), "count"),
            "checks.self_s": (self_s("checks"), "s"),
            "oracle.optimal_welfare.calls": (calls("oracle.optimal_welfare"), "count"),
            "oracle.optimal_welfare.s": (ow_s, "s"),
            "oracle.states": (states, "count"),
            "oracle.us_per_state": (1e6 * ow_s / states if states else 0.0, "us"),
            "oracle.max_weight_matching.calls": (calls("oracle.max_weight_matching"), "count"),
            "oracle.max_weight_matching.s": (seconds("oracle.max_weight_matching"), "s"),
            "oracle.greedy_matching.calls": (calls("oracle.greedy_matching"), "count"),
            "oracle.self_s": (self_s("oracle"), "s"),
            "algorithms.realizations": (self.counts.get("algorithms.enumerate_realizations", 0),
                                        "count"),
            "algorithms.runs": (sum(s[0] for s in runs), "count"),
            "algorithms.run.self_s": (sum(s[2] for s in runs), "s"),
            "algorithms.sample_realization.calls": (calls("algorithms.sample_realization"),
                                                    "count"),
            "algorithms.sample_realization.s": (seconds("algorithms.sample_realization"), "s"),
            "algorithms.self_s": (self_s("algorithms"), "s"),
            "nested.annotate.calls": (calls("nested.annotate"), "count"),
            "nested.annotate.s": (seconds("nested.annotate"), "s"),
            "nested.descending_run.calls": (dr_calls, "count"),
            "nested.descending_run.s": (dr_s, "s"),
            "nested.descending_run.us_per_call": (1e6 * dr_s / dr_calls if dr_calls else 0.0, "us"),
            "nested.self_s": (self_s("nested"), "s"),
            "instance.basket_compiles": (calls("instance.oriented_basket")
                                         + calls("instance.bundled_basket"), "count"),
            "instance.basket_compile.s": (seconds("instance.oriented_basket")
                                          + seconds("instance.bundled_basket"), "s"),
            "boxes.weitzman_index.calls": (calls("boxes.weitzman_index"), "count"),
            "boxes.weitzman_index.s": (seconds("boxes.weitzman_index"), "s"),
            "rng.draws": (calls("rng.SplitMix64.choose_weighted"), "count"),
            "rng.choose_weighted.s": (seconds("rng.SplitMix64.choose_weighted"), "s"),
            "repro.self_s": (self_s("repro"), "s"),
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,item\n")
            for index, name_id, start, end, parent, item in sorted(self.spans):
                fh.write(f"{index},{self.names[name_id]},{start:.9f},{end:.9f},{parent},{item}\n")


def fractions_self_share(profile) -> float:
    """Share of profiled self time spent in the stdlib fractions module."""
    stats = pstats.Stats(profile).stats
    total = sum(tt for _, _, tt, _, _ in stats.values())
    in_fractions = sum(tt for (filename, _, _), (_, _, tt, _, _) in stats.items()
                       if filename.endswith("fractions.py"))
    return in_fractions / total if total else 0.0
