"""Stratified BFI: BFI's model on top of SABRE's injection schedule.

The paper constructs this improved baseline to isolate the contribution
of the two ideas: Stratified BFI enumerates candidate sites in SABRE's
transition-targeted order (so it no longer drowns in labelling
irrelevant sites), but it still defers to the learned model before
simulating -- so it only exercises failure contexts its training data
covers, and it never "exhaustively targets the critical periods where the
UAV transitioned between operating modes" (Section VI).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.session import ExplorationSession
from repro.core.strategies.base import StrategyFeatures
from repro.core.strategies.bayesian import BayesianFaultInjection, BfiModel


class StratifiedBFI(BayesianFaultInjection):
    """The "Strat. BFI" column of Table I: :class:`BayesianFaultInjection`
    labelling SABRE's stratified schedule instead of the depth-first
    one, simulating only what the model predicts unsafe."""

    name = "stratified-bfi"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=True,
        searches_dissimilar_first=True,
    )
    EXPLORATION_RATE = 0.0

    def __init__(
        self,
        model: Optional[BfiModel] = None,
        threshold: float = 0.4,
        max_concurrent_failures: int = 1,
        time_quantum_s: float = 1.0,
        burst_durations: Sequence[float] = (),
    ) -> None:
        super().__init__(
            model=model,
            threshold=threshold,
            max_concurrent_failures=max_concurrent_failures,
            burst_durations=burst_durations,
        )
        self._time_quantum = time_quantum_s

    def _candidate_times(self, session: ExplorationSession) -> List[float]:
        """SABRE's stratified schedule: each transition and its near
        neighbourhood, in mission order."""
        transitions = [time for time in session.transition_times if time > 0.0]
        if not transitions:
            transitions = [0.0]
        times: List[float] = []
        for time in transitions:
            times.append(time)
            shifted = time + self._time_quantum
            if shifted <= session.mission_duration:
                times.append(shifted)
        return times
