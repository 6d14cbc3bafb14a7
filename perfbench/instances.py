"""Seeded instance generator for the benchmark.

Instances are written straight in the CLI's JSON file format, so the
benchmark depends on the program only through that format and the `pandora`
command.  Rationals are "num/den" strings.

Every random family separates *shape* from *values*.  The shape of an
instance (edge set, atoms per box, joint-table size) fixes how much work the
exact algorithms do: realization counts and oracle state counts are products
over edges of shape numbers.  Shapes come from a fixed schedule drawn once
with ``SHAPE_SEED``; values, probabilities and costs come from the workload
seed.  Two seeds therefore give different inputs of the same sizes, which
keeps run-to-run spread low without repeating any input.

The certify shapes follow the test helper's distributions: at most 3 edges
on at most 6 vertices, 1-3 atoms per box, at most 800 realizations, and
joint-law edges with 1-3 signals per side.  The mix of kinds follows the
acceptance tests' batches: 200 general, 100 positive-value and 50 joint-law
instances, that is 4 : 2 : 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

SHAPE_SEED = 2406_08711
VERTEX_POOL = ("a", "b", "c", "d", "e", "f")
REALIZATION_BUDGET = 800
# The acceptance tests' 200 general : 100 positive-value : 50 joint instances.
CERTIFY_KINDS = ("general", "positive", "general", "joint", "general", "positive", "general")


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Random rationals, laws and boxes
# ---------------------------------------------------------------------------

def rand_fraction(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(lo * den + rng.randrange((hi - lo) * den + 1), den)


def rand_probs(rng: random.Random, k: int) -> list[Fraction]:
    if k == 1:
        return [Fraction(1)]
    den = rng.choice((4, 6, 8, 12))
    while den < k:
        den *= 2
    cuts = sorted(rng.sample(range(1, den), k - 1))
    points = [0] + cuts + [den]
    return [Fraction(points[t + 1] - points[t], den) for t in range(k)]


def rand_dist(rng: random.Random, k: int, lo: int = -3, hi: int = 5) -> list[dict]:
    values: set[Fraction] = set()
    while len(values) < k:
        values.add(rand_fraction(rng, lo, hi))
    return [{"v": fmt(v), "p": fmt(p)} for v, p in zip(sorted(values), rand_probs(rng, k))]


def rand_box(rng: random.Random, k: int, lo: int = -3, hi: int = 5) -> dict:
    return {"dist": rand_dist(rng, k, lo, hi), "cost": fmt(rand_fraction(rng, 0, 3, dens=(1, 2)))}


def positive_box(rng: random.Random, k: int) -> dict:
    """Values in [1, 6] and a cost within the mean, as the test helper's
    positive-value boxes, so every index and capped value is nonnegative."""
    values: set[Fraction] = set()
    while len(values) < k:
        values.add(rand_fraction(rng, 1, 6, dens=(1, 2)))
    probs = rand_probs(rng, k)
    mean = sum(v * p for v, p in zip(sorted(values), probs))
    den = 1 + rng.randrange(4)
    return {"dist": [{"v": fmt(v), "p": fmt(p)} for v, p in zip(sorted(values), probs)],
            "cost": fmt(mean * Fraction(rng.randrange(den + 1), den))}


def independent_edge(i: str, j: str, box_ij: dict, box_ji: dict) -> dict:
    return {"i": i, "j": j, "box_ij": box_ij, "box_ji": box_ji}


def joint_edge(rng: random.Random, i: str, j: str, ki: int, kj: int) -> dict:
    pairs = [(f"s{a}", f"t{b}") for a in range(ki) for b in range(kj)]
    probs = rand_probs(rng, len(pairs))
    rows = [{"si": si, "sj": sj, "total": fmt(rand_fraction(rng, -4, 6)), "p": fmt(p)}
            for (si, sj), p in zip(pairs, probs)]
    return {"i": i, "j": j,
            "c_ij": fmt(rand_fraction(rng, 0, 2, dens=(1, 2))),
            "c_ji": fmt(rand_fraction(rng, 0, 2, dens=(1, 2))),
            "joint": rows}


def instance_doc(edges: list[dict]) -> dict:
    vertices = sorted({e["i"] for e in edges} | {e["j"] for e in edges})
    return {"vertices": vertices, "edges": edges}


# ---------------------------------------------------------------------------
# certify: shapes of the test helper's general, positive and joint batches
# ---------------------------------------------------------------------------

def _rand_edge_ids(rng: random.Random) -> list[tuple[str, str]]:
    n_edges = 1 + rng.randrange(3)
    pool = VERTEX_POOL[:min(len(VERTEX_POOL), n_edges + 1 + rng.randrange(2))]
    ids: set[tuple[str, str]] = set()
    while len(ids) < n_edges:
        u, v = rng.choice(pool), rng.choice(pool)
        if u != v:
            ids.add((min(u, v), max(u, v)))
    return sorted(ids)


def certify_shapes(count: int) -> list[tuple]:
    """Fixed schedule of (kind, ((i, j, k_i, k_j), ...)) within the budget.

    Kinds cycle through ``CERTIFY_KINDS``: joint-law instances, and
    instances with independent endpoint boxes of k_i and k_j atoms, general
    or positive-valued.
    """
    rng = random.Random(SHAPE_SEED)
    shapes = []
    while len(shapes) < count:
        kind = CERTIFY_KINDS[len(shapes) % len(CERTIFY_KINDS)]
        edges = tuple((i, j, 1 + rng.randrange(3), 1 + rng.randrange(3))
                      for i, j in _rand_edge_ids(rng))
        size = 1
        for *_, ki, kj in edges:
            size *= ki * kj
        if size <= REALIZATION_BUDGET:
            shapes.append((kind, edges))
    return shapes


def certify_instance(rng: random.Random, shape) -> dict:
    kind, edges = shape
    if kind == "joint":
        return instance_doc([joint_edge(rng, i, j, ki, kj) for i, j, ki, kj in edges])
    if kind == "positive":
        return instance_doc([independent_edge(i, j, positive_box(rng, ki), positive_box(rng, kj))
                             for i, j, ki, kj in edges])
    return instance_doc([independent_edge(i, j, rand_box(rng, ki), rand_box(rng, kj))
                         for i, j, ki, kj in edges])


# ---------------------------------------------------------------------------
# Named instances (the closed-form families of the repro tables)
# ---------------------------------------------------------------------------

def bundled_star(n: int) -> dict:
    """Hub boxes pay 1/n for an n-or-nothing value; leaves pay 1 for a sure 1."""
    hub_dist = ([{"v": fmt(n), "p": fmt(Fraction(1, n))}, {"v": "0", "p": fmt(1 - Fraction(1, n))}]
                if n > 1 else [{"v": "1", "p": "1"}])
    width = len(str(n))
    edges = [independent_edge("u", f"w{k:0{width}d}",
                              {"dist": hub_dist, "cost": fmt(Fraction(1, n))},
                              {"dist": [{"v": "1", "p": "1"}], "cost": "1"})
             for k in range(1, n + 1)]
    return instance_doc(edges)


def _no_dessert_boxes(alpha: Fraction) -> tuple[dict, dict]:
    a = Fraction(alpha)
    box_ij = {"dist": [{"v": "0", "p": fmt(1 - a)}, {"v": fmt(a ** -3), "p": fmt(a)}],
              "cost": "1"}
    box_ji = {"dist": [{"v": fmt(1 / a - a ** -3), "p": fmt(1 - a * a)},
                       {"v": "0", "p": fmt(a * a)}],
              "cost": fmt(1 - a)}
    return box_ij, box_ji


def no_dessert_edge(alpha) -> dict:
    box_ij, box_ji = _no_dessert_boxes(alpha)
    return instance_doc([independent_edge("i", "j", box_ij, box_ji)])


def no_dessert_star(alpha, m: int) -> dict:
    """m copies of the no-dessert edge around hub i, plus a sure outside option k."""
    a = Fraction(alpha)
    box_ij, box_ji = _no_dessert_boxes(a)
    width = len(str(max(m, 1)))
    edges = [independent_edge("i", f"j{t:0{width}d}", box_ij, box_ji) for t in range(1, m + 1)]
    edges.append(independent_edge("i", "k",
                                  {"dist": [{"v": fmt(1 / a), "p": "1"}], "cost": "0"},
                                  {"dist": [{"v": "0", "p": "1"}], "cost": "0"}))
    return instance_doc(edges)


# ---------------------------------------------------------------------------
# Seeded stars and small graphs for oracle-star and policy-star
# ---------------------------------------------------------------------------

def distinct_star(rng: random.Random, leaf_atoms: list[tuple[int, int]]) -> dict:
    """Star around hub "h" with one leaf per (hub atoms, leaf atoms) entry.

    No two leaf edges have the same spec, so no pair of edges is
    interchangeable.
    """
    width = len(str(len(leaf_atoms)))
    seen: set[str] = set()
    edges = []
    for t, (k_hub, k_leaf) in enumerate(leaf_atoms, start=1):
        while True:
            box_hub, box_leaf = rand_box(rng, k_hub, -2, 6), rand_box(rng, k_leaf, -2, 6)
            key = repr((box_hub, box_leaf))
            if key not in seen:
                seen.add(key)
                break
        edges.append(independent_edge("h", f"l{t:0{width}d}", box_hub, box_leaf))
    return instance_doc(edges)


def random_graph(rng: random.Random, edge_ids, atoms: list[tuple[int, int]]) -> dict:
    return instance_doc([independent_edge(i, j, rand_box(rng, ki), rand_box(rng, kj))
                         for (i, j), (ki, kj) in zip(edge_ids, atoms)])
