from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pandora_matching.boxes import PandoraBox, weitzman_index
from pandora_matching.distributions import DiscreteDistribution
from pandora_matching.instance import EdgeSpec

from support import reference_weitzman_index
from test_distributions import BIG_PRIMES, dist, distributions


def box(d, c):
    return PandoraBox(d, F(c))


boxes = st.builds(
    PandoraBox, distributions(),
    st.fractions(min_value=0, max_value=4, max_denominator=4))


class TestWeitzmanIndex:
    def test_deterministic_two_cost_one(self):
        assert weitzman_index(box(dist((2, 1)), 1)) == 1

    def test_skewed_box_same_index(self):
        assert weitzman_index(box(dist((9, F(1, 8)), (-3, F(7, 8))), 1)) == 1

    def test_shifted_hub_box(self):
        n = 4
        d = dist((n + 1, F(1, n)), (1, 1 - F(1, n)))
        assert weitzman_index(box(d, 1 + F(1, n))) == 1 - F(1, n)

    def test_zero_cost_gives_max_support(self):
        assert weitzman_index(box(dist((7, 1)), 0)) == 7
        assert weitzman_index(box(dist((-2, F(1, 2)), (5, F(1, 2))), 0)) == 5

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            box(dist((1, 1)), -1)

    @given(boxes)
    @settings(deadline=None)
    def test_index_solves_surplus_equation(self, b):
        sigma = weitzman_index(b)
        if b.cost > 0:
            assert b.dist.surplus(sigma) == b.cost
            # unique: surplus is strictly monotone around the solution
            assert b.dist.surplus(sigma - 1) > b.cost
            assert b.dist.surplus(sigma + 1) < b.cost
        else:
            assert sigma == b.dist.atoms[-1][0]
            assert b.dist.surplus(sigma) == 0

    @given(distributions(), st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
           st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4))
    @settings(deadline=None)
    def test_higher_cost_lower_index(self, d, cost, bump):
        assert weitzman_index(box(d, cost + bump)) < weitzman_index(box(d, cost))

    @given(boxes, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(deadline=None)
    def test_value_shift_shifts_index(self, b, k):
        shifted = PandoraBox(DiscreteDistribution((v + k, p) for v, p in b.dist.atoms), b.cost)
        assert weitzman_index(shifted) == weitzman_index(b) + k

    @given(boxes)
    def test_matches_fraction_scan(self, b):
        assert weitzman_index(b) == reference_weitzman_index(b.dist.atoms, b.cost)

    @given(distributions(), st.sampled_from(BIG_PRIMES), st.integers(1, 10**7))
    def test_matches_fraction_scan_on_large_denominators(self, d, den, num):
        b = box(d, F(num, den))
        index = weitzman_index(b)
        assert type(index) is F
        assert index == reference_weitzman_index(b.dist.atoms, b.cost)


def bundle(a, b):
    return EdgeSpec.independent("i", "j", a, b).bundled_box()


class TestBundle:
    def test_hub_edge(self):
        n = 4
        hub = box(dist((n, F(1, n)), (0, 1 - F(1, n))), F(1, n))
        leaf = box(dist((1, 1)), 1)
        merged = bundle(hub, leaf)
        assert merged.cost == F(5, 4)
        assert merged.dist == dist((5, F(1, 4)), (1, F(3, 4)))
        assert weitzman_index(merged) == F(3, 4)

    def test_free_zero_box_keeps_index(self):
        b = box(dist((9, F(1, 8)), (-3, F(7, 8))), 1)
        merged = bundle(b, box(dist((0, 1)), 0))
        assert weitzman_index(merged) == weitzman_index(b)

    def test_point_masses(self):
        assert bundle(box(dist((1, 1)), 0), box(dist((2, 1)), 0)).dist == dist((3, 1))

    def test_shift_by_constant(self):
        n = 4
        d = dist((n, F(1, n)), (0, 1 - F(1, n)))
        shifted = bundle(box(d, 0), box(dist((1, 1)), 0)).dist
        assert shifted == dist((n + 1, F(1, n)), (1, 1 - F(1, n)))

    def test_two_coins(self):
        coin = box(dist((0, F(1, 2)), (1, F(1, 2))), 0)
        assert bundle(coin, coin).dist == dist((0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4)))

    @given(boxes, boxes)
    @settings(deadline=None)
    def test_commutes_and_mass_one(self, a, b):
        ab = bundle(a, b)
        assert ab == bundle(b, a)
        assert ab.cost == a.cost + b.cost
        assert sum(p for _, p in ab.dist.atoms) == 1

    @given(boxes, boxes)
    @settings(deadline=None)
    def test_expectation_additive(self, a, b):
        assert bundle(a, b).dist.expectation() == a.dist.expectation() + b.dist.expectation()
