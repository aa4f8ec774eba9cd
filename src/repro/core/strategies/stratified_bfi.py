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

import itertools
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.session import ExplorationSession
from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.core.strategies.bayesian import BfiModel
from repro.hinj.faults import (
    FaultScenario,
    FaultSpec,
    admissible_burst_windows,
    validate_burst_durations,
)
from repro.sensors.base import SensorId

#: One labelled candidate: (time, mode category, subset, recovery window).
_Candidate = Tuple[float, str, Tuple[SensorId, ...], Optional[float]]


class StratifiedBFI(SearchStrategy):
    """The "Strat. BFI" column of Table I.

    ``burst_durations`` (off by default) extends the candidate space with
    intermittent variants of every subset: the latched candidates keep
    their exact classic order, then each burst duration sweeps the same
    (time, subset) grid with a bounded fault window.  The model scores a
    burst like its latched counterpart -- BFI's features do not cover
    recovery timing, which is precisely why it under-explores that axis.
    """

    name = "stratified-bfi"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=True,
        searches_dissimilar_first=True,
    )

    def __init__(
        self,
        model: Optional[BfiModel] = None,
        threshold: float = 0.4,
        max_concurrent_failures: int = 1,
        time_quantum_s: float = 1.0,
        burst_durations: Sequence[float] = (),
    ) -> None:
        self._model = model if model is not None else BfiModel()
        self._threshold = threshold
        self._max_concurrent = max_concurrent_failures
        self._time_quantum = time_quantum_s
        self._burst_durations = validate_burst_durations(burst_durations)
        self._candidates: Optional[Iterator[_Candidate]] = None
        self._candidates_session: Optional[ExplorationSession] = None
        self.labels_issued = 0
        self.simulations_run = 0

    def _subsets(self, session: ExplorationSession) -> List[Tuple[SensorId, ...]]:
        sensors = session.sensor_ids
        subsets: List[Tuple[SensorId, ...]] = []
        for size in range(1, self._max_concurrent + 1):
            subsets.extend(itertools.combinations(sensors, size))
        return subsets

    def _windows(self, session: ExplorationSession) -> List[Optional[float]]:
        """The recovery windows swept per (time, subset)."""
        return admissible_burst_windows(
            self._burst_durations, session.mission_duration
        )

    def _injection_times(self, session: ExplorationSession) -> List[float]:
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

    def explore(self, session: ExplorationSession) -> None:
        for time, mode_category, subset, duration in self._candidate_stream(session):
            if session.budget.exhausted:
                return
            if not session.charge_label():
                return
            self.labels_issued += 1
            score = self._model.scenario_score(
                [sensor_id.sensor_type for sensor_id in subset], mode_category
            )
            if score < self._threshold:
                continue
            scenario = FaultScenario(
                FaultSpec(sensor_id, time, duration) for sensor_id in subset
            )
            if session.was_explored(scenario):
                continue
            result = session.run_scenario(scenario)
            if result is None:
                return
            self.simulations_run += 1

    # ------------------------------------------------------------------
    # Batch evaluation (the model's verdicts do not depend on run
    # outcomes, so labelling ahead of the simulations is sound)
    # ------------------------------------------------------------------
    def _candidate_stream(self, session: ExplorationSession) -> Iterator[_Candidate]:
        """The labelled-candidate order shared by :meth:`explore` and
        :meth:`propose_batch`: per injection time, the latched subsets
        first (exactly the classic order), then each burst duration's
        sweep of the same subsets."""
        subsets = self._subsets(session)
        windows = self._windows(session)
        for time in self._injection_times(session):
            mode_category = session.mode_category_at(time)
            for window in windows:
                for subset in subsets:
                    yield time, mode_category, subset, window

    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """Label candidates in SABRE's stratified order; batch the ones
        the model predicts unsafe.

        Labelling and simulation costs are charged here, during
        proposal, in the same per-candidate order as the sequential
        loop (label, then reserve the simulation the moment a candidate
        passes the threshold) -- so the budget trajectory, and therefore
        where the campaign stops, is identical to :meth:`explore`.
        """
        if self._candidates is None or self._candidates_session is not session:
            self._candidates_session = session
            self._candidates = self._candidate_stream(session)
        batch: List[FaultScenario] = []
        seen: Set[FaultScenario] = set()
        while len(batch) < max_scenarios:
            entry = next(self._candidates, None)
            if entry is None:
                break
            time, mode_category, subset, duration = entry
            if session.budget.exhausted or not session.charge_label():
                break
            self.labels_issued += 1
            score = self._model.scenario_score(
                [sensor_id.sensor_type for sensor_id in subset], mode_category
            )
            if score < self._threshold:
                continue
            scenario = FaultScenario(
                FaultSpec(sensor_id, time, duration) for sensor_id in subset
            )
            if session.was_explored(scenario) or scenario in seen:
                continue
            if not session.reserve_simulation():
                break
            seen.add(scenario)
            batch.append(scenario)
        return batch
