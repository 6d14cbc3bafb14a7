"""Exact toolkit for two-sided matching with Pandora-box inspection costs."""

from .algorithms import (
    DecisionRunner,
    DescendingRunner,
    EnumerationBoundError,
    RandomizedRunner,
    RunTrace,
    UnsupportedModelError,
    VertexBasedDescendingRunner,
    best_of_two,
    edge_based_orientation,
    expected_welfare,
    make_runner,
)
from .boxes import PandoraBox, weitzman_index
from .distributions import DiscreteDistribution
from .instance import (
    EdgeSpec,
    MatchingInstance,
    Orientation,
    canonical_orientation,
    random_orientation,
)
from .nested import (
    AnnotatedBasket,
    NestedTrace,
    OutcomeNode,
    annotate,
    check_non_exposure,
    descending_run,
)
from .oracle import PolicyValue, greedy_matching, optimal_welfare

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
