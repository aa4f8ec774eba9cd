"""Fault-injection search strategies (the approaches of Table I).

Every strategy implements the same interface
(:class:`~repro.core.strategies.base.SearchStrategy`): one proposer,
``propose_batch``, which charges simulation and labelling costs against
an :class:`~repro.core.session.ExplorationSession`'s shared budget.

* :class:`AvisStrategy` -- SABRE + the redundancy pruning policies (the
  paper's contribution; it is what :class:`repro.core.avis.Avis` runs by
  default).
* :class:`StratifiedBFI` -- :class:`BayesianFaultInjection` labelling
  SABRE's transition-targeted schedule (the paper's improved baseline).
* :class:`BayesianFaultInjection` -- the state-of-the-art baseline: a
  learned model labels candidate sites enumerated in depth-first order;
  labelling consumes budget.
* :class:`RandomInjection` -- uniform random injection sites and times.
* :class:`DepthFirstSearch` / :class:`BreadthFirstSearch` -- the naive
  enumerations of Section IV-B, used for the Figure 5 comparison.
"""

from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.core.strategies.avis_strategy import AvisStrategy
from repro.core.strategies.bayesian import BayesianFaultInjection, BfiModel, TrainingExample
from repro.core.strategies.exhaustive import BreadthFirstSearch, DepthFirstSearch
from repro.core.strategies.random_search import RandomInjection
from repro.core.strategies.stratified_bfi import StratifiedBFI

__all__ = [
    "AvisStrategy",
    "BayesianFaultInjection",
    "BfiModel",
    "BreadthFirstSearch",
    "DepthFirstSearch",
    "RandomInjection",
    "SearchStrategy",
    "StrategyFeatures",
    "StratifiedBFI",
    "TrainingExample",
]
