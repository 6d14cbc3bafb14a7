from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pandora_matching.distributions import DiscreteDistribution, DistributionError


def dist(*atoms):
    return DiscreteDistribution([(F(v), F(p)) for v, p in atoms])


@st.composite
def distributions(draw, min_v=-5, max_v=6):
    k = draw(st.integers(1, 4))
    values = draw(st.lists(
        st.fractions(min_value=min_v, max_value=max_v, max_denominator=4),
        min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    total = sum(weights)
    return DiscreteDistribution((v, F(w, total)) for v, w in zip(values, weights))


class TestExpectation:
    def test_point_mass(self):
        assert dist((2, 1)).expectation() == 2

    def test_two_atom_hand_sum(self):
        # 9/8 - 21/8 = -3/2
        assert dist((9, F(1, 8)), (-3, F(7, 8))).expectation() == F(-3, 2)

    def test_hub_box(self):
        n = 4
        d = dist((n, F(1, n)), (0, 1 - F(1, n)))
        assert d.expectation() == 1


class TestSurplus:
    def test_point_mass_above_threshold(self):
        assert dist((2, 1)).surplus(1) == 1

    def test_two_atom(self):
        assert dist((9, F(1, 8)), (-3, F(7, 8))).surplus(1) == 1

    def test_zero_at_max_support(self):
        d = dist((9, F(1, 8)), (-3, F(7, 8)))
        assert d.surplus(9) == 0
        assert d.surplus(100) == 0

    @given(distributions(), st.fractions(min_value=-8, max_value=8, max_denominator=6),
           st.fractions(min_value=0, max_value=4, max_denominator=6))
    def test_non_increasing(self, d, t, delta):
        assert d.surplus(t + delta) <= d.surplus(t)

    @given(distributions(), st.fractions(min_value=0, max_value=5, max_denominator=6))
    def test_linear_below_support(self, d, drop):
        t = d.min_value() - drop
        assert d.surplus(t) == d.expectation() - t


class TestConstruction:
    def test_atoms_merge(self):
        d = DiscreteDistribution([(F(1), F(1, 4)), (F(1), F(1, 4)), (F(2), F(1, 2))])
        assert d == dist((1, F(1, 2)), (2, F(1, 2)))

    def test_rejects_bad_total(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([(F(1), F(9, 10))])

    def test_rejects_nonpositive_prob(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([(F(1), F(0)), (F(2), F(1))])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([])

    def test_json_round_trip(self):
        d = dist((F(-3, 2), F(1, 3)), (9, F(2, 3)))
        assert DiscreteDistribution.from_json_obj(d.to_json_obj()) == d
