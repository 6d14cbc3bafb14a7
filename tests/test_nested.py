import functools
import math
from fractions import Fraction as F

import pytest

from pandora_matching.algorithms import kappa_welfare
from pandora_matching.boxes import PandoraBox, weitzman_index
from pandora_matching.distributions import DiscreteDistribution, ZERO
from pandora_matching.nested import (
    AnnotatedStage,
    BasketError,
    OutcomeNode,
    annotate,
    check_non_exposure,
    descending_run,
    make_trace,
)
from pandora_matching.rng import SplitMix64

from support import (
    assert_matches_reference,
    enumerate_joint_paths,
    gamma_sequence,
    kappa_sequence,
    next_below,
    rand_tree,
    reference_annotate,
    reference_expected_select_welfare,
    reference_paths,
)
from test_distributions import dist


def selection_sweep(baskets: dict) -> F:
    """The matching sweep as single selection: every key claims the vertex "*"."""
    return kappa_welfare({("*", i): b.kappa1_law for i, b in baskets.items()})


def edge_tree(alpha, direction="ij"):
    """Two-stage tree for the flip-order edge at a given parameter."""
    a = F(alpha)
    hi = a ** -3
    lo_j = 1 / a - a ** -3
    if direction == "ij":
        return OutcomeNode.stage(1, [
            ("hi", a, OutcomeNode.stage(1 - a, [
                ("zero", a * a, OutcomeNode.leaf(hi)),
                ("neg", 1 - a * a, OutcomeNode.leaf(hi + lo_j)),
            ])),
            ("lo", 1 - a, OutcomeNode.stage(1 - a, [
                ("zero", a * a, OutcomeNode.leaf(0)),
                ("neg", 1 - a * a, OutcomeNode.leaf(lo_j)),
            ])),
        ])
    return OutcomeNode.stage(1 - a, [
        ("zero", a * a, OutcomeNode.stage(1, [
            ("hi", a, OutcomeNode.leaf(hi)),
            ("lo", 1 - a, OutcomeNode.leaf(0)),
        ])),
        ("neg", 1 - a * a, OutcomeNode.stage(1, [
            ("hi", a, OutcomeNode.leaf(hi + lo_j)),
            ("lo", 1 - a, OutcomeNode.leaf(lo_j)),
        ])),
    ])


class TestAnnotate:
    def test_root_index_forward(self):
        basket = annotate(edge_tree(F(1, 2)))
        assert basket.sigma1 == 1  # 1/alpha - 1

    def test_second_stage_index_after_high_signal(self):
        basket = annotate(edge_tree(F(1, 2)))
        high_child = basket.root.branches[0][2]
        assert high_child.sigma == 6  # 1/a^3 - 1/a^2 + 1/a at a = 1/2

    def test_second_stage_index_after_low_signal(self):
        basket = annotate(edge_tree(F(1, 2)))
        low_child = basket.root.branches[1][2]
        assert low_child.sigma == -2  # -1/a^2 + 1/a

    def test_root_index_reverse(self):
        basket = annotate(edge_tree(F(1, 2), "ji"))
        assert basket.sigma1 == 2  # 1/a^2 - 1/a
        assert basket.root.branches[0][2].sigma == 6   # 1/a^3 - 1/a
        assert basket.root.branches[1][2].sigma == 0

    def test_depth_one_reduces_to_weitzman(self):
        d = dist((9, F(1, 8)), (-3, F(7, 8)))
        tree = OutcomeNode.stage(1, [("v9", F(1, 8), OutcomeNode.leaf(9)),
                                     ("v-3", F(7, 8), OutcomeNode.leaf(-3))])
        assert annotate(tree).sigma1 == weitzman_index(PandoraBox(d, 1))

    def test_rejects_bad_branch_probs(self):
        tree = OutcomeNode.stage(1, [("a", F(1, 2), OutcomeNode.leaf(1))])
        with pytest.raises(BasketError):
            annotate(tree)

    def test_rejects_bare_leaf(self):
        with pytest.raises(BasketError):
            annotate(OutcomeNode.leaf(3))

    def test_rejects_leaf_with_cost(self):
        tree = OutcomeNode.stage(1, [("a", 1, OutcomeNode(value=F(1), cost=F(1)))])
        with pytest.raises(BasketError, match="leaf node must not carry cost"):
            annotate(tree)


class TestKappa1Distribution:
    def test_forward_orientation(self):
        basket = annotate(edge_tree(F(1, 2)))
        k1 = basket.kappa1_law
        assert k1 == dist((1, F(1, 2)), (-2, F(1, 8)), (-6, F(3, 8)))
        assert k1.expected_positive_part() == F(1, 2)  # 1 - alpha

    def test_reverse_orientation(self):
        basket = annotate(edge_tree(F(1, 2), "ji"))
        k1 = basket.kappa1_law
        assert dict(k1.atoms)[2] == F(1, 8)  # alpha^3
        assert k1.expected_positive_part() == F(1, 4)  # alpha - alpha^2

    def test_free_point_box(self):
        tree = OutcomeNode.stage(0, [("v", 1, OutcomeNode.leaf(F(5, 2)))])
        assert annotate(tree).kappa1_law == dist((F(5, 2), 1))


class TestIndexSequences:
    SIGMAS = [F(11, 4), 2, 3, F(7, 4), 1, F(5, 2), F(3, 2), F(9, 4)]

    def test_running_minima(self):
        assert gamma_sequence(self.SIGMAS) == [F(11, 4), 2, 2, F(7, 4), 1, 1, 1, 1]

    def test_constant_when_equal(self):
        assert gamma_sequence([2, 2, 2]) == [2, 2, 2]

    def test_suffix_minima(self):
        assert kappa_sequence(self.SIGMAS) == [1, 1, 1, 1, 1, F(3, 2), F(3, 2), F(9, 4)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gamma_sequence([])


def path_by_labels(basket, *labels):
    for p in basket.paths:
        if p.labels == labels:
            return p
    raise AssertionError(f"no path {labels}")


class TestNonExposure:
    def test_claimed_is_never_exposed(self):
        basket = annotate(edge_tree(F(1, 2)))
        p = path_by_labels(basket, "hi", "zero")
        assert check_non_exposure(make_trace("b", p, 2, True), basket)

    def test_untouched_is_never_exposed(self):
        basket = annotate(edge_tree(F(1, 2)))
        p = path_by_labels(basket, "lo", "neg")
        assert check_non_exposure(make_trace("b", p, 0, False), basket)

    def test_stopping_after_good_news_is_exposed(self):
        basket = annotate(edge_tree(F(1, 2)))
        # after the high first signal the continuation is worth kappa^(2) >= 2
        # while the running index floor is 1
        p = path_by_labels(basket, "hi", "zero")
        assert not check_non_exposure(make_trace("b", p, 1, False), basket)

    def test_stopping_after_bad_news_is_fine(self):
        basket = annotate(edge_tree(F(1, 2)))
        p = path_by_labels(basket, "lo", "zero")
        assert check_non_exposure(make_trace("b", p, 1, False), basket)

    @staticmethod
    def scaled_copy(p):
        """The path as integers times the lcm of its denominators."""
        return p.scaled(math.lcm(*(x.denominator for x in (*p.sigmas, *p.costs, p.value))))

    def test_scaled_paths_get_the_same_verdicts(self):
        basket = annotate(edge_tree(F(1, 4)))
        for p in basket.paths:
            for stop, claimed in ((0, False), (1, False), (2, False), (2, True)):
                assert (check_non_exposure(make_trace("b", self.scaled_copy(p), stop, claimed),
                                           basket)
                        == check_non_exposure(make_trace("b", p, stop, claimed), basket))

    def test_path_of_another_basket_is_refused(self):
        basket = annotate(edge_tree(F(1, 2)))
        # other labels, and the same labels with other probabilities
        for other in (annotate(edge_tree(F(1, 2), "ji")), annotate(edge_tree(F(1, 4)))):
            for p in other.paths:
                for path in (p, self.scaled_copy(p)):
                    with pytest.raises(BasketError, match="does not belong"):
                        check_non_exposure(make_trace("b", path, 1, False), basket)


class TestAmortization:
    def test_unopened_contributes_nothing(self):
        basket = annotate(edge_tree(F(1, 2)))
        trace = make_trace("b", basket.paths[0], 0, False)
        assert (trace.welfare, trace.path.kappa1 if trace.claimed else 0) == (0, 0)

    def test_descending_equality_over_all_paths(self):
        basket = annotate(edge_tree(F(1, 2)))
        welfare = ZERO
        bound = ZERO
        for paths, prob in enumerate_joint_paths({"b": basket}):
            res = descending_run(paths)
            trace = res.traces["b"]
            w, k = trace.welfare, (trace.path.kappa1 if trace.claimed else 0)
            welfare += prob * w
            bound += prob * k
        assert welfare == bound == F(1, 2)

    def test_single_realization_contribution(self):
        basket = annotate(edge_tree(F(1, 2)))
        p = path_by_labels(basket, "hi", "zero")
        trace = make_trace("b", p, 2, True)
        w, k = trace.welfare, (trace.path.kappa1 if trace.claimed else 0)
        assert w == 8 - 1 - F(1, 2)
        assert k == 1

    def test_exposed_policy_strictly_below_bound(self):
        # open the first stage and always stop: pays 1, never claims
        basket = annotate(edge_tree(F(1, 2)))
        welfare = ZERO
        bound = ZERO
        exposed = False
        for p in basket.paths:
            trace = make_trace("b", p, 1, False)
            w, k = trace.welfare, (trace.path.kappa1 if trace.claimed else 0)
            welfare += p.prob * w
            bound += p.prob * k
            if not check_non_exposure(trace, basket):
                exposed = True
        assert exposed
        assert welfare == -1 < bound == 0


def all_node_choices(basket):
    """Every adapted policy on one basket: a go/stop bit per tree node, each
    node keyed by the branch indices that reach it (a leaf is a bare value)."""
    import itertools

    nodes = []

    def collect(node, key):
        nodes.append(key)
        if type(node) is AnnotatedStage:
            for bi, (_, _, child) in enumerate(node.branches):
                collect(child, key + (bi,))

    collect(basket.root, ())
    for bits in itertools.product((False, True), repeat=len(nodes)):
        yield dict(zip(nodes, bits))


def run_policy(basket, policy, path):
    node = basket.root
    stage = 0
    while type(node) is AnnotatedStage:
        if not policy[path.branch_indices[:stage]]:
            return make_trace("b", path, stage, False)
        node = node.branches[path.branch_indices[stage]][2]
        stage += 1
    return make_trace("b", path, stage, policy[path.branch_indices])


class TestAmortizationOverAllPolicies:
    """The welfare bound holds for every policy, tightly iff non-exposed."""

    def test_every_adapted_policy_on_random_baskets(self):
        rng = SplitMix64(90210)
        for _ in range(8):
            basket = annotate(rand_tree(rng, depth=2, max_branch=2))
            for policy in all_node_choices(basket):
                welfare = ZERO
                bound = ZERO
                exposed = False
                for path in basket.paths:
                    trace = run_policy(basket, policy, path)
                    w, k = trace.welfare, (trace.path.kappa1 if trace.claimed else 0)
                    welfare += path.prob * w
                    bound += path.prob * k
                    if not check_non_exposure(trace, basket):
                        exposed = True
                assert welfare <= bound
                assert (welfare == bound) == (not exposed)

    def test_chain_basket_all_policies(self):
        rng = SplitMix64(90211)
        basket = annotate(rand_tree(rng, depth=3, max_branch=1))
        for policy in all_node_choices(basket):
            trace = run_policy(basket, policy, basket.paths[0])
            w, k = trace.welfare, (trace.path.kappa1 if trace.claimed else 0)
            assert w <= k or not check_non_exposure(trace, basket)


class TestRaggedDepth:
    def test_annotation_and_selection_with_uneven_stages(self):
        # one branch ends after a single stage, the other needs two more
        tree = OutcomeNode.stage(F(1, 2), [
            ("short", F(1, 2), OutcomeNode.leaf(3)),
            ("long", F(1, 2), OutcomeNode.stage(1, [
                ("up", F(1, 3), OutcomeNode.leaf(6)),
                ("down", F(2, 3), OutcomeNode.leaf(-1)),
            ])),
        ])
        basket = annotate(tree)
        assert {p.depth for p in basket.paths} == {1, 2}
        assert basket.kappa1_law == DiscreteDistribution(
            (p.kappa1, p.prob) for p in basket.paths)
        got = reference_expected_select_welfare({"b": basket})
        expected = ZERO
        for p in basket.paths:
            expected += p.prob * max(p.kappa1, ZERO)
        assert got == expected == selection_sweep({"b": basket})


class TestDescendingSelect:
    def test_negative_basket_left_alone(self):
        tree = OutcomeNode.stage(2, [("v", 1, OutcomeNode.leaf(-1))])
        basket = annotate(tree)
        assert basket.sigma1 < 0
        res = descending_run({"b": basket.paths[0]})
        assert res.welfare == 0 and not res.claimed_ids
        assert res.traces["b"].stages_opened == 0

    def test_zero_index_not_advanced(self):
        tree = OutcomeNode.stage(1, [("v", 1, OutcomeNode.leaf(1))])
        basket = annotate(tree)
        assert basket.sigma1 == 0
        res = descending_run({"b": basket.paths[0]})
        assert res.welfare == 0 and res.traces["b"].stages_opened == 0

    def test_claims_pointwise_max_capped_value(self):
        rng = SplitMix64(424242)
        for _ in range(40):
            baskets = {f"b{k}": annotate(rand_tree(rng)) for k in range(1 + next_below(rng, 3))}
            for paths, _ in enumerate_joint_paths(baskets):
                res = descending_run(paths)
                best = max(max(p.kappa1, ZERO) for p in paths.values())
                claimed = sum((paths[i].kappa1 for i in res.claimed_ids), ZERO)
                assert claimed == best

    def test_welfare_equals_expected_max_capped_value(self):
        rng = SplitMix64(77)
        for _ in range(25):
            baskets = {f"b{k}": annotate(rand_tree(rng)) for k in range(1 + next_below(rng, 3))}
            expected_max = ZERO
            for paths, prob in enumerate_joint_paths(baskets):
                expected_max += prob * max(max(p.kappa1, ZERO) for p in paths.values())
            assert reference_expected_select_welfare(baskets) == expected_max
            assert selection_sweep(baskets) == expected_max

    def test_sweep_on_tied_baskets(self):
        # equal capped-value laws tie on every atom; selection claims one basket
        tree = OutcomeNode.stage(1, [("hi", F(1, 2), OutcomeNode.leaf(5)),
                                     ("lo", F(1, 2), OutcomeNode.leaf(-1))])
        baskets = {f"b{k}": annotate(tree) for k in range(3)}
        assert selection_sweep(baskets) == reference_expected_select_welfare(baskets)


def brute_select_value(trees: dict) -> F:
    """Independent oracle: exhaustive policy search for single selection."""
    ids = sorted(trees)

    @functools.cache
    def best(state) -> F:
        value = ZERO  # stopping is always allowed
        for k, node in enumerate(state):
            if node.is_leaf:
                value = max(value, node.value)
                continue
            ev = -node.cost
            for _, p, child in node.branches:
                ev += p * best(state[:k] + (child,) + state[k + 1:])
            value = max(value, ev)
        return value

    return best(tuple(trees[i] for i in ids))


class TestOptimality:
    def test_descending_matches_brute_force_policy_search(self):
        rng = SplitMix64(2024)
        for _ in range(20):
            trees = {f"b{k}": rand_tree(rng, depth=1 + next_below(rng, 2), max_branch=2)
                     for k in range(1 + next_below(rng, 2))}
            baskets = {i: annotate(t) for i, t in trees.items()}
            assert reference_expected_select_welfare(baskets) == brute_select_value(trees)
            assert selection_sweep(baskets) == brute_select_value(trees)

    def test_deeper_tree_against_brute_force(self):
        rng = SplitMix64(31337)
        for _ in range(6):
            trees = {"b0": rand_tree(rng, depth=3, max_branch=2)}
            baskets = {i: annotate(t) for i, t in trees.items()}
            assert reference_expected_select_welfare(baskets) == brute_select_value(trees)
            assert selection_sweep(baskets) == brute_select_value(trees)


class TestAnnotationInvariants:
    def test_backward_induction_consistency(self):
        rng = SplitMix64(555)
        for _ in range(30):
            basket = annotate(rand_tree(rng))

            def walk(node):
                if type(node) is not AnnotatedStage:
                    return
                if node.cost > 0:
                    assert node.kappa_next.surplus(node.sigma) == node.cost
                else:
                    assert node.sigma == node.kappa_next.atoms[-1][0]
                for _, _, child in node.branches:
                    walk(child)

            walk(basket.root)

    def test_pathwise_capped_value(self):
        rng = SplitMix64(556)
        for _ in range(30):
            basket = annotate(rand_tree(rng))
            total_prob = ZERO
            for p in basket.paths:
                total_prob += p.prob
                assert p.kappa1 == min(min(gamma_sequence(p.sigmas)), p.value)
                seq = kappa_sequence(list(p.sigmas) + [p.value])
                assert seq == sorted(seq)  # capped values weakly increase
                assert p.kappa1 == seq[0]
            assert total_prob == 1
            assert basket.kappa1_law == DiscreteDistribution(
                (p.kappa1, p.prob) for p in basket.paths)

    def test_gamma_equality_on_every_step(self):
        rng = SplitMix64(557)
        for _ in range(20):
            baskets = {f"b{k}": annotate(rand_tree(rng)) for k in range(1 + next_below(rng, 3))}
            for paths, _ in enumerate_joint_paths(baskets):
                res = descending_run(paths, record_steps=True)
                for step in res.steps:
                    view = {bid: (s, g) for bid, s, g in step.eligible_view}
                    _, adv_gamma = view[step.basket_id]
                    for bid, (sigma, gamma) in view.items():
                        assert gamma <= adv_gamma
                        if bid != step.basket_id:
                            assert gamma == sigma


class TestAnnotateMatchesReference:
    def test_random_deeper_trees(self):
        rng = SplitMix64(558)
        for _ in range(150):
            tree = rand_tree(rng, depth=1 + next_below(rng, 4))
            basket = annotate(tree)
            ref = reference_annotate(tree)
            assert_matches_reference(basket.root, ref)
            assert list(basket.paths) == reference_paths(ref)
