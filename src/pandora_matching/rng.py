"""Seeded deterministic randomness for Monte Carlo runs.

The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit counter
stream passed through a fixed mixing function.  It is tiny, portable, and
bit-identical across platforms and Python versions, which keeps seeded
experiment output stable.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_u64s(self, n: int) -> list[int]:
        """The outputs of ``n`` ``next_u64`` calls, leaving the same state.

        Output k mixes state + k * gamma, so one comprehension runs over the counters."""
        start = self._state
        self._state = (start + n * _GAMMA) & _MASK
        return [z ^ (z >> 31)
                for c in range(start + _GAMMA, start + (n + 1) * _GAMMA, _GAMMA)
                for z in [c & _MASK]
                for z in [((z ^ (z >> 30)) * _MIX1) & _MASK]
                for z in [((z ^ (z >> 27)) * _MIX2) & _MASK]]

    def next_bit(self) -> int:
        return self.next_u64() >> 63

    def choose_weighted(self, cuts) -> int:
        """Index drawn by one u64: the first k with u < cuts[k].

        ``cuts`` comes from ``weighted_cuts``.  For an integer u,
        u < ceil(2^64 * s) exactly when u / 2^64 < s, so this is the first k
        whose prefix sum of the weights exceeds u / 2^64.
        """
        return bisect_right(cuts, self.next_u64())


def weighted_cuts(weights, total: int) -> tuple[int, ...]:
    """Integer cut points ceil(2^64 * (w_0 + ... + w_k) / total) of int weights.

    The last cut is raised to at least 2^64, so that every u64 lies below
    it: weights that sum to less than ``total`` leave the rest to the last
    index.
    """
    cuts = [-(-(s << 64) // total) for s in accumulate(weights)]
    if cuts:
        cuts[-1] = max(cuts[-1], 1 << 64)
    return tuple(cuts)
