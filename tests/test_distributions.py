import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pandora_matching.algorithms import _mixture
from pandora_matching.distributions import ZERO, DiscreteDistribution, DistributionError
from pandora_matching.nested import AnnotatedStage, annotate
from pandora_matching.rng import SplitMix64

from support import (exact_atoms, general_batch, joint_batch, positive_batch, rand_tree,
                     reference_law)


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


@st.composite
def unreduced_documents(draw):
    """A distribution's JSON document whose probabilities are not in lowest
    terms ("2/4") and whose values repeat, also in other spellings ("1/2",
    "2/4", "0.5"), so atoms merge."""
    k = draw(st.integers(1, 5))
    values = draw(st.lists(st.sampled_from(["-3", "-6/4", "-1.5", "0", "1/2", "2/4", "0.5", "2"]),
                           min_size=k, max_size=k))
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    scale = draw(st.integers(1, 4))
    total = scale * sum(weights)
    return [{"v": v, "p": f"{scale * w}/{total}"} for v, w in zip(values, weights)]


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

    @given(st.one_of(distributions(),
                     unreduced_documents().map(DiscreteDistribution.from_json_obj)))
    def test_weights_are_the_probabilities_in_lowest_terms(self, d):
        assert_canonical(d)

    def test_every_built_law_is_in_lowest_terms(self):
        # Every law built on the seeded batches and random trees is canonical.
        rng = SplitMix64(26)
        laws = [law for inst in general_batch(200) + positive_batch(100) + joint_batch(50)
                for law in built_laws(inst)]
        laws += [law for _ in range(30) for law in stage_laws(annotate(rand_tree(rng)).root)]
        for law in laws:
            assert_canonical(law)


def assert_canonical(law):
    """Values strictly ascending, positive int weights summing to the total,
    gcd 1, and ``of`` on a multiple of the law gives it back."""
    values, weights, total = law
    assert type(law) is DiscreteDistribution
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(type(w) is int and w > 0 for w in weights)
    assert sum(weights) == total and math.gcd(total, *weights) == 1
    assert DiscreteDistribution.of(values, tuple([3 * w for w in weights]), 3 * total) == law


def stage_laws(node):
    """The capped law and kappa_next of the stage ``node`` and of each stage below."""
    yield node.capped()
    yield node.kappa_next
    for _, _, child in node.branches:
        if type(child) is AnnotatedStage:   # else a leaf: its value, no law
            yield from stage_laws(child)


def built_laws(inst):
    """Every law the package builds for an instance's edges."""
    for e in inst.edges:
        if e.is_independent:
            yield from (e.box_ij.dist, e.box_ji.dist)
        yield e.bundled_box().dist
        yield _mixture(*(e.basket(d).kappa1_law for d in e.directions()))
        for key in (None, *e.directions()):
            basket = e.basket(key)
            yield basket.kappa1_law
            yield from stage_laws(basket.root)


# Values that collide across types (1, F(2, 2), F(4, 4)) and large coprime
# denominators, so the merge key and the integer sums are both exercised.
BIG_PRIMES = (1_000_003, 999_983, 1_000_033)
values = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.sampled_from([F(2, 2), F(4, 4), F(-6, 3)]
                    + [F(k, p) for k in (1, -7, 10**6) for p in BIG_PRIMES]),
)


class TestConstructorMatchesReference:
    """The constructor's atoms equal a plain Fraction-dict merge."""

    @given(st.lists(st.tuples(values, st.integers(1, 10**7)), min_size=1, max_size=8))
    def test_weighted_atoms(self, pairs):
        total = sum(w for _, w in pairs)
        atoms = [(v, F(w, total)) for v, w in pairs]
        assert exact_atoms(DiscreteDistribution(atoms)) == reference_law(atoms)

    @given(st.lists(st.tuples(values, st.sampled_from(BIG_PRIMES)), min_size=1, max_size=3),
           values)
    def test_coprime_denominators(self, heads, last_value):
        atoms = [(v, F(1, p)) for v, p in heads]
        atoms.append((last_value, 1 - sum(p for _, p in atoms)))
        assert exact_atoms(DiscreteDistribution(atoms)) == reference_law(atoms)

    @given(unreduced_documents())
    def test_unreduced_documents(self, doc):
        law = DiscreteDistribution.from_json_obj(doc)
        assert exact_atoms(law) == reference_law((atom["v"], atom["p"]) for atom in doc)

    def test_int_and_fraction_of_equal_value_merge(self):
        atoms = [(1, F(1, 4)), (F(2, 2), F(1, 4)), (F(4, 4), F(1, 2))]
        d = DiscreteDistribution(atoms)
        assert exact_atoms(d) == ((F(1), F(1)),) == reference_law(atoms)
        assert exact_atoms(DiscreteDistribution([(2, 1)])) == ((F(2), F(1)),)

    @pytest.mark.parametrize("atoms, message", [
        ([(1, 0), (2, 1)], "probability must be positive, got 0"),
        ([(1, F(-1, 2)), (2, F(3, 2))], "probability must be positive, got -1/2"),
        ([(1, F(999, 1000))], "probabilities sum to 999/1000, expected 1"),
        ([(1, F(1, 2)), (1, F(1, 3))], "probabilities sum to 5/6, expected 1"),
        ([(F(1, 3), F(1, 1_000_003)), (2, F(1, 999_983))],
         f"probabilities sum to {F(1, 1_000_003) + F(1, 999_983)}, expected 1"),
        ([], "distribution needs at least one atom"),
    ], ids=["zero", "negative", "short", "short-merged", "coprime", "empty"])
    def test_errors_match_reference(self, atoms, message):
        with pytest.raises(DistributionError) as ref:
            reference_law(atoms)
        with pytest.raises(DistributionError) as new:
            DiscreteDistribution(atoms)
        assert str(new.value) == str(ref.value) == message

    @given(distributions(), st.fractions(min_value=-6, max_value=7, max_denominator=4))
    def test_clips_match_pushforward(self, d, t):
        t = min(t, d.atoms[-1][0])   # an index never exceeds the top value
        stage = AnnotatedStage(ZERO, t, (), d)
        assert exact_atoms(stage.capped()) == reference_law((min(v, t), p) for v, p in d.atoms)
