import math
from fractions import Fraction as F

import pytest

from pandora_matching.rng import SplitMix64, weighted_cuts

from support import WRAP_SEED, general_batch, joint_batch

TWO64 = 1 << 64


class FixedDraw(SplitMix64):
    """A stream whose every u64 is ``x``."""

    def __init__(self, x: int):
        self.x = x

    def next_u64(self) -> int:
        return self.x


def cuts_of(weights) -> tuple[int, ...]:
    """``weighted_cuts`` of Fraction weights, as int weights over their common denominator."""
    total = math.lcm(*(w.denominator for w in weights))
    return weighted_cuts([w.numerator * (total // w.denominator) for w in weights], total)


def fraction_rule(weights, x: int) -> int:
    """The first k with x / 2^64 below the k-th prefix sum, else the last index."""
    u = F(x, TWO64)
    acc = F(0)
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            return k
    return len(weights) - 1


def weight_lists():
    for inst in general_batch(200) + joint_batch(50):
        for e in inst.edges:
            yield [F(w, e.weight_total) for w in e.weights]
    yield [F(1, 2), F(1, 2)]
    yield [F(1, 4)] * 4
    yield [F(1, 4), F(1, 2), F(1, 4)]
    yield [F(1, 3)] * 3
    yield [F(1, 3), F(2, 3)]
    yield [F(1)]


class TestWeightedCuts:
    def test_cuts_are_ceilings_of_the_prefix_sums(self):
        for weights in weight_lists():
            cuts = cuts_of(weights)
            acc = F(0)
            for w, cut in zip(weights, cuts):
                acc += w
                assert cut - 1 < acc * TWO64 <= cut
            assert cuts[-1] == TWO64

    def test_draw_agrees_with_the_fraction_rule_at_every_cut(self):
        checked = 0
        for weights in weight_lists():
            cuts = cuts_of(weights)
            for x in {0, TWO64 - 1} | {c + d for c in cuts for d in (-1, 0)}:
                if 0 <= x < TWO64:
                    assert FixedDraw(x).choose_weighted(cuts) == fraction_rule(weights, x), (weights, x)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("weights, x, expected", [
        ([F(1, 2), F(1, 2)], TWO64 // 2 - 1, 0),
        ([F(1, 2), F(1, 2)], TWO64 // 2, 1),
        ([F(1, 3), F(2, 3)], TWO64 // 3, 0),
        ([F(1, 3), F(2, 3)], TWO64 // 3 + 1, 1),
        ([F(1, 3), F(1, 3)], TWO64 - 1, 1),
    ], ids=["dyadic-below", "dyadic-at", "third-below", "third-above", "short-sum-last"])
    def test_boundaries(self, weights, x, expected):
        assert FixedDraw(x).choose_weighted(cuts_of(weights)) == expected

    def test_one_u64_per_draw(self):
        cuts = cuts_of([F(1, 3)] * 3)
        rng, ref = SplitMix64(42), SplitMix64(42)
        for _ in range(50):
            rng.choose_weighted(cuts)
            ref.next_u64()
        assert rng.next_u64() == ref.next_u64()


class TestBatch:
    @pytest.mark.parametrize("seed", [42, WRAP_SEED], ids=["seed-42", "wrapping-seed"])
    @pytest.mark.parametrize("n", [0, 1, 7, 10_000])
    def test_batch_equals_single_calls(self, seed, n):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert rng.next_u64s(n) == [ref.next_u64() for _ in range(n)]
        assert rng._state == ref._state
        assert rng.next_u64() == ref.next_u64()

    def test_wrapping_seed_reaches_counter_zero(self):
        rng = SplitMix64(WRAP_SEED)
        rng.next_u64s(3)
        assert rng._state == 0
