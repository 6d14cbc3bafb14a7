"""The four workloads: item streams and the checks on their outputs.

An item is one `pandora` CLI invocation.  A group is the items that share one
instance file; group checks compare the outputs of items on the same
instance.  Each workload is an endless stream of groups built from the
workload seed.  No (subcommand, arguments, instance) item repeats within a
stream, so a cache kept across calls cannot turn the measured phase into
lookups.

Streams start with a fixed prefix of the named instances (identical at every
seed) and continue with a fixed cycle of seeded shapes (see instances.py),
so the work per run is steady across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import instances as gen

WORKLOADS = ("certify", "oracle-star", "policy-star", "montecarlo")

ORACLE_VARIANTS = (
    ("free", ["--constraint", "free"]),
    ("oriented", ["--constraint", "oriented"]),
    ("oriented-rev", ["--constraint", "oriented", "--orientation", "reverse"]),
    ("bundled", ["--constraint", "bundled"]),
)
EXACT_POLICIES = ("randomized", "best-of-two", "bundled", "vertex-based", "edge-based",
                  "oriented-desc")
MC_POLICIES = ("oriented-desc", "bundled", "vertex-based", "edge-based")
ALPHAS = ("1/2", "1/4", "1/8")


@dataclass
class Item:
    label: str             # variant within the group, e.g. "free" or "best-of-two"
    argv: list             # CLI arguments; "{instance}" stands for the group's file
    kind: str              # check, oracle, run, montecarlo, repro


@dataclass
class Group:
    name: str              # unique within the stream
    doc: dict | None       # instance document to write, or None for repro items
    items: list = field(default_factory=list)
    shared_file: str | None = None   # name of a file written during set-up instead
    path: str | None = None          # instance file, once written


def _rng(seed: int, stream: str) -> random.Random:
    digest = hashlib.sha256(f"{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _unique_docs(make, seen: set):
    """Call make() until it returns a document not produced before."""
    while True:
        doc = make()
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            return doc


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def certify_stream(seed: int):
    shapes = gen.certify_shapes(28)
    rng = _rng(seed, "certify")
    seen: set = set()
    for idx in itertools.count():
        doc = _unique_docs(lambda: gen.certify_instance(rng, shapes[idx % len(shapes)]), seen)
        yield Group(f"c{idx:05d}", doc, [Item("check", ["check", "--instance", "{instance}"],
                                              "check")])


def _oracle_items(variants=ORACLE_VARIANTS):
    return [Item(label, ["oracle", "--instance", "{instance}"] + args, "oracle")
            for label, args in variants]


def _named_stars():
    """(name, doc) of the named stars both star workloads start with."""
    out = [(f"bundled-star-n{n}", gen.bundled_star(n)) for n in range(2, 7)]
    for m in range(1, 5):
        for a in ALPHAS:
            out.append((f"no-dessert-star-a{a.replace('/', '_')}-m{m}", gen.no_dessert_star(a, m)))
    return out


# Leaf atom counts (hub box, leaf box) of the seeded distinct-leaf stars.
STAR_SHAPES = (
    [(2, 1)] * 4,
    [(2, 1)] * 3 + [(1, 1)] * 2,
    [(1, 1)] * 6,
    [(2, 2)] * 2 + [(2, 1)] * 2,
    [(3, 1)] * 4,
)


def oracle_star_stream(seed: int):
    # Items that take seconds are left out, since one of them would fill a
    # large share of a run: the free oracle on bundled-star n=6, and all but
    # the bundled constraint on the four-copy no-dessert stars.
    for name, doc in _named_stars():
        heavy = name == "bundled-star-n6" or name.endswith("-m4")
        variants = [v for v in ORACLE_VARIANTS
                    if not (heavy and v[0] == "free")
                    and not (name.endswith("-m4") and v[0].startswith("oriented"))]
        yield Group(name, doc, _oracle_items(variants))
    rng = _rng(seed, "oracle-star")
    seen: set = set()
    for idx in itertools.count():
        shape = STAR_SHAPES[idx % len(STAR_SHAPES)]
        doc = _unique_docs(lambda: gen.distinct_star(rng, shape), seen)
        yield Group(f"star{idx:05d}", doc, _oracle_items())


def _policy_items():
    return [Item(p, ["run", "--instance", "{instance}", "--policy", p, "--mode", "exact"], "run")
            for p in EXACT_POLICIES]


def _repro_argvs():
    out = [["repro", "--only", "bundled-star", "--n", str(n)] for n in (3, 4, 5, 6, 8)]
    out += [["repro", "--only", "no-dessert-star", "--alpha", a, "--m", str(m)]
            for a in ALPHAS for m in (2, 3)]
    out += [["repro", "--only", "no-dessert-edge", "--alpha", a] for a in ALPHAS]
    out += [["repro", "--only", "indistinguishable-edge"], ["repro"]]
    return out


# (edge ids, atoms per edge) of the seeded policy-star graphs; stars use the
# distinct-leaf generator.  Every shape has 2^|E| x realizations = 4096, so
# the randomized items, the longest in the cycle, form one dense group.
POLICY_ATOMS = ([(2, 2)] * 4, [(2, 2)] * 2 + [(2, 1)] * 3, [(2, 1)] * 6)
POLICY_GRAPHS = (
    ([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")], POLICY_ATOMS[0]),
    ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")], POLICY_ATOMS[1]),
    ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")], POLICY_ATOMS[2]),
)
POLICY_STARS = POLICY_ATOMS


def policy_star_stream(seed: int):
    named = _named_stars()
    repros = _repro_argvs()
    # Interleave the repro tables with the named stars so the prefix has an
    # even mix of short and long items.
    for k, (name, doc) in enumerate(named):
        yield Group(name, doc, _policy_items())
        if k < len(repros):
            argv = repros[k]
            yield Group("repro:" + " ".join(argv[1:]), None, [Item("repro", argv, "repro")])
    for argv in repros[len(named):]:
        yield Group("repro:" + " ".join(argv[1:]), None, [Item("repro", argv, "repro")])
    rng = _rng(seed, "policy-star")
    seen: set = set()
    for idx in itertools.count():
        slot = idx % (len(POLICY_GRAPHS) + len(POLICY_STARS))
        if slot < len(POLICY_GRAPHS):
            ids, atoms = POLICY_GRAPHS[slot]
            doc = _unique_docs(lambda: gen.random_graph(rng, ids, atoms), seen)
        else:
            doc = _unique_docs(lambda: gen.distinct_star(rng, POLICY_STARS[slot - len(POLICY_GRAPHS)]),
                               seen)
        yield Group(f"graph{idx:05d}", doc, _policy_items())


def montecarlo_instances():
    """(name, doc, trials) of the named instances the Monte Carlo items sample.

    Trial counts make the items of four instances about equally long and
    those of bundled-star n=6 half again as long.  The median then falls
    among the many short items and the tail among the 20% long ones, so
    neither order statistic sits in a sparse stretch of the distribution.
    """
    return [("bundled-star-n4", gen.bundled_star(4), 500),
            ("bundled-star-n6", gen.bundled_star(6), 600),
            ("no-dessert-star-a1_4-m3", gen.no_dessert_star("1/4", 3), 550),
            ("no-dessert-star-a1_8-m2", gen.no_dessert_star("1/8", 2), 700),
            ("no-dessert-edge-a1_2", gen.no_dessert_edge("1/2"), 1500)]


def montecarlo_stream(seed: int):
    rng = _rng(seed, "montecarlo")
    used: set = set()
    pairs = [(name, p, trials) for name, _, trials in montecarlo_instances()
             for p in MC_POLICIES]
    for idx in itertools.count():
        name, policy, trials = pairs[idx % len(pairs)]
        item_seed = rng.randrange(1 << 62)
        while item_seed in used:
            item_seed = rng.randrange(1 << 62)
        used.add(item_seed)
        argv = ["run", "--instance", "{instance}", "--policy", policy, "--mode", "montecarlo",
                "--seed", str(item_seed), "--trials", str(trials)]
        yield Group(f"{name}/{policy}/{idx}", None, [Item(policy, argv, "montecarlo")],
                    shared_file=name)


STREAMS = {"certify": certify_stream, "oracle-star": oracle_star_stream,
           "policy-star": policy_star_stream, "montecarlo": montecarlo_stream}

# One untimed item per workload on an instance no stream contains, so that
# lazy imports and first-call costs are paid before timing starts.
WARMUP = {
    "certify": ["check", "--instance", "{instance}"],
    "oracle-star": ["oracle", "--instance", "{instance}"],
    "policy-star": ["run", "--instance", "{instance}", "--policy", "oriented-desc"],
}


def warmup_doc() -> dict:
    return gen.bundled_star(1)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class CheckFailure(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def parse_output(item: Item, rc: int, out: str):
    """Check one item's own output; return (digest text, parsed value)."""
    if item.kind == "check":
        doc = json.loads(out)
        _require(rc == 0 and doc.get("all_passed") is True,
                 f"check exit {rc}, failing: "
                 + ", ".join(c["name"] for c in doc.get("checks", []) if not c["passed"]))
        return json.dumps(doc["checks"], sort_keys=True), None
    _require(rc == 0, f"exit code {rc}")
    doc = json.loads(out)
    if item.kind == "oracle":
        value = Fraction(doc["value"])
        _require(value >= 0, f"oracle value {value} < 0")
        return doc["value"], value
    if item.kind == "run":
        value = Fraction(doc["welfare"]["exact"])
        return json.dumps([doc["welfare"]["exact"], doc.get("orientation")]), value
    if item.kind == "repro":
        _require(doc["mismatches"] == 0, f"{doc['mismatches']} repro mismatches")
        return json.dumps(doc["rows"], sort_keys=True), None
    if item.kind == "montecarlo":
        w = doc["welfare"]
        echoed = [str(w["seed"]), str(w["trials"])]
        _require(echoed == [item.argv[item.argv.index(flag) + 1] for flag in ("--seed", "--trials")],
                 "seed or trials not echoed")
        mean, stderr = float(w["float"]), float(w["stderr"])
        _require(math.isfinite(mean) and math.isfinite(stderr) and stderr >= 0,
                 f"bad estimate {mean} +- {stderr}")
        return f"{mean!r} {stderr!r}", (mean, stderr)
    raise ValueError(f"unknown item kind {item.kind!r}")


def group_failures(values: dict) -> list:
    """Labels of items whose cross-item check fails, given label -> value."""
    failed = []
    free = values.get("free")
    if free is not None:
        failed += [label for label in ("oriented", "oriented-rev", "bundled")
                   if label in values and values[label] > free]
    if "best-of-two" in values and "oriented-desc" in values:
        if values["best-of-two"] < values["oriented-desc"]:
            failed.append("best-of-two")
    return failed


def montecarlo_failures(estimates: dict, exact: dict) -> list:
    """Pairs whose pooled estimate lies more than 4 standard errors from exact.

    ``estimates`` maps (instance, policy) to the list of per-item
    (mean, stderr).  Items of one pair use independent seeds and the same
    trial count, so the pooled mean is their average and its standard error
    is sqrt(sum of squared errors) / count.
    """
    failed = []
    for pair, ests in estimates.items():
        k = len(ests)
        mean = sum(m for m, _ in ests) / k
        se = math.sqrt(sum(s * s for _, s in ests)) / k
        target = float(Fraction(exact[pair]))
        if abs(mean - target) > 4 * se + 1e-9 * max(1.0, abs(target)):
            failed.append(pair)
    return failed
