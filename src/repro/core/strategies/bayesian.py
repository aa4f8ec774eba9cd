"""Bayesian Fault Injection (BFI), the state-of-the-art baseline.

The paper compares against BFI (Jha et al., DSN 2019): a learned model
predicts which candidate injection sites are likely to produce unsafe
conditions and only those are simulated.  Two properties matter for the
comparison:

* the model is only as good as its training data -- it predicts unsafe
  conditions for (sensor, flight-phase) combinations it has seen before
  and misses bugs outside that distribution (e.g. unsafe conditions
  during landing, or joint multi-sensor failures);
* labelling is not free -- the paper measured ~10 s per site, so BFI
  running over a depth-first candidate enumeration burns nearly the whole
  budget labelling sites near the end of the mission and "was unable to
  explore even a single second of data".

The model here is a naive-Bayes classifier over two categorical features
(sensor type and mode category) with Laplace smoothing.  The default
training data reconstructs the prior-incident distribution implied by the
paper's results: accelerometer/takeoff, compass/waypoint, gyro/waypoint
and gyro/takeoff incidents are in-distribution; GPS/barometer/battery
failures and the landing phase are not.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.runner import RunResult
from repro.core.session import ExplorationSession
from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.hinj.faults import (
    FaultScenario,
    FaultSpec,
    admissible_burst_windows,
    validate_burst_durations,
)
from repro.sensors.base import SensorId, SensorType


@dataclass(frozen=True)
class TrainingExample:
    """One historical observation: did this failure context end unsafely?"""

    sensor_type: SensorType
    mode_category: str
    unsafe: bool


def default_training_data() -> List[TrainingExample]:
    """Prior incidents the BFI model is trained on.

    Reconstructed from the paper's observations about which bugs the
    learned approaches could and could not predict: the training set has
    seen unsafe outcomes from accelerometer failures during takeoff and
    from compass/gyroscope failures during waypoint flight (plus a gyro
    incident during takeoff), and benign outcomes elsewhere.  Crucially it
    contains no landing-phase incidents and no joint-failure incidents,
    which is why BFI and Stratified BFI miss those bugs (Sections VI-A
    and VI-C).
    """
    positives = [
        (SensorType.ACCELEROMETER, "takeoff"),
        (SensorType.ACCELEROMETER, "takeoff"),
        (SensorType.COMPASS, "waypoint"),
        (SensorType.COMPASS, "waypoint"),
        (SensorType.GYROSCOPE, "waypoint"),
        (SensorType.GYROSCOPE, "takeoff"),
    ]
    negatives = [
        (SensorType.GPS, "takeoff"),
        (SensorType.GPS, "waypoint"),
        (SensorType.GPS, "land"),
        (SensorType.BAROMETER, "takeoff"),
        (SensorType.BAROMETER, "waypoint"),
        (SensorType.BAROMETER, "land"),
        (SensorType.BATTERY, "waypoint"),
        (SensorType.BATTERY, "land"),
        (SensorType.COMPASS, "takeoff"),
        (SensorType.COMPASS, "takeoff"),
        (SensorType.COMPASS, "takeoff"),
        (SensorType.COMPASS, "land"),
        (SensorType.GYROSCOPE, "land"),
        (SensorType.ACCELEROMETER, "waypoint"),
        (SensorType.ACCELEROMETER, "land"),
        (SensorType.GPS, "manual"),
        (SensorType.BAROMETER, "manual"),
        (SensorType.COMPASS, "manual"),
        (SensorType.GYROSCOPE, "manual"),
        (SensorType.ACCELEROMETER, "manual"),
        (SensorType.BATTERY, "manual"),
    ]
    examples = [TrainingExample(sensor, mode, True) for sensor, mode in positives]
    examples.extend(TrainingExample(sensor, mode, False) for sensor, mode in negatives)
    return examples


class BfiModel:
    """Naive-Bayes predictor over (sensor type, mode category)."""

    def __init__(
        self,
        training_data: Optional[Iterable[TrainingExample]] = None,
        smoothing: float = 1.0,
    ) -> None:
        self._smoothing = smoothing
        self._sensor_counts: Dict[bool, Dict[SensorType, float]] = {
            True: defaultdict(float),
            False: defaultdict(float),
        }
        self._mode_counts: Dict[bool, Dict[str, float]] = {
            True: defaultdict(float),
            False: defaultdict(float),
        }
        self._class_counts: Dict[bool, float] = {True: 0.0, False: 0.0}
        self._sensor_vocabulary: set = set()
        self._mode_vocabulary: set = set()
        for example in training_data if training_data is not None else default_training_data():
            self.observe(example)

    def observe(self, example: TrainingExample) -> None:
        """Add one training example to the model."""
        label = example.unsafe
        self._class_counts[label] += 1.0
        self._sensor_counts[label][example.sensor_type] += 1.0
        self._mode_counts[label][example.mode_category] += 1.0
        self._sensor_vocabulary.add(example.sensor_type)
        self._mode_vocabulary.add(example.mode_category)

    def _likelihood(
        self, counts: Dict, value, label: bool, vocabulary_size: int
    ) -> float:
        numerator = counts[label][value] + self._smoothing
        denominator = self._class_counts[label] + self._smoothing * max(vocabulary_size, 1)
        return numerator / denominator

    def predict_unsafe_probability(
        self, sensor_type: SensorType, mode_category: str
    ) -> float:
        """P(unsafe | sensor type, mode category) under naive Bayes."""
        total = self._class_counts[True] + self._class_counts[False]
        if total == 0.0:
            return 0.5
        scores: Dict[bool, float] = {}
        for label in (True, False):
            prior = (self._class_counts[label] + self._smoothing) / (
                total + 2.0 * self._smoothing
            )
            score = prior
            score *= self._likelihood(
                self._sensor_counts, sensor_type, label, len(self._sensor_vocabulary)
            )
            score *= self._likelihood(
                self._mode_counts, mode_category, label, len(self._mode_vocabulary)
            )
            scores[label] = score
        denominator = scores[True] + scores[False]
        return scores[True] / denominator if denominator > 0.0 else 0.5

    def predicts_unsafe(
        self, sensor_type: SensorType, mode_category: str, threshold: float = 0.4
    ) -> bool:
        """True when the model labels the site as likely unsafe."""
        return self.predict_unsafe_probability(sensor_type, mode_category) >= threshold

    def scenario_score(self, scenario_types: Sequence[SensorType], mode_category: str) -> float:
        """Score a multi-sensor scenario as the max of its per-sensor scores.

        The published BFI model scores individual fault sites; a joint
        scenario is only predicted unsafe when one of its constituent
        failures already is -- which is exactly why it cannot anticipate
        bugs that require *both* failures together (PX4-13291).
        """
        if not scenario_types:
            return 0.0
        return max(
            self.predict_unsafe_probability(sensor_type, mode_category)
            for sensor_type in scenario_types
        )


class BayesianFaultInjection(SearchStrategy):
    """BFI over a depth-first candidate enumeration (column "BFI")."""

    name = "bfi"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=True,
        searches_dissimilar_first=False,
    )

    def __init__(
        self,
        model: Optional[BfiModel] = None,
        candidate_granularity_s: float = 0.1,
        threshold: float = 0.4,
        exploration_rate: float = 0.02,
        rng_seed: int = 7,
        max_concurrent_failures: int = 1,
        learn_online: bool = False,
        burst_durations: Sequence[float] = (),
    ) -> None:
        self._model = model if model is not None else BfiModel()
        self._granularity = candidate_granularity_s
        self._threshold = threshold
        self._exploration_rate = exploration_rate
        self._rng = random.Random(rng_seed)
        self._max_concurrent = max_concurrent_failures
        # ``learn_online`` folds every simulated outcome back into the
        # model as a fresh training example.  The published BFI trains
        # offline only, so this is off by default.
        self._learn_online = learn_online
        # ``burst_durations`` sweeps intermittent variants of every
        # candidate after the latched ones (empty = the classic space).
        self._burst_durations = validate_burst_durations(burst_durations)
        self.labels_issued = 0
        self.simulations_run = 0
        # --- batch-proposal state (reset per session) -----------------
        self._batch_session: Optional[ExplorationSession] = None
        self._batch_stream: Optional[
            Iterator[Tuple[float, str, Tuple[SensorId, ...], Optional[float]]]
        ] = None
        self._batch_finished = False
        self._deferred_updates: List[
            Tuple[FaultScenario, Tuple[SensorId, ...], str]
        ] = []

    # ------------------------------------------------------------------
    # Candidate enumeration (depth-first, from the end of the mission)
    # ------------------------------------------------------------------
    def _candidate_times(self, session: ExplorationSession) -> List[float]:
        duration = session.mission_duration
        times: List[float] = []
        time = duration
        while time > 0.0:
            times.append(round(time, 3))
            time -= self._granularity
        return times

    def _candidate_subsets(self, session: ExplorationSession) -> List[Tuple[SensorId, ...]]:
        sensors = session.sensor_ids
        subsets: List[Tuple[SensorId, ...]] = []
        for size in range(1, self._max_concurrent + 1):
            subsets.extend(itertools.combinations(sensors, size))
        return subsets

    def _candidate_windows(
        self, session: ExplorationSession
    ) -> List[Optional[float]]:
        """Recovery windows swept per candidate site."""
        return admissible_burst_windows(
            self._burst_durations, session.mission_duration
        )

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def _observe_outcome(
        self,
        subset: Tuple[SensorId, ...],
        mode_category: str,
        result: RunResult,
    ) -> None:
        """Fold one simulated outcome back into the model (learn_online)."""
        for sensor_id in subset:
            self._model.observe(
                TrainingExample(
                    sensor_type=sensor_id.sensor_type,
                    mode_category=mode_category,
                    unsafe=result.found_unsafe_condition,
                )
            )

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
            predicted_unsafe = score >= self._threshold
            explore_anyway = self._rng.random() < self._exploration_rate
            if not predicted_unsafe and not explore_anyway:
                continue
            scenario = FaultScenario(
                FaultSpec(sensor_id, time, duration) for sensor_id in subset
            )
            result = session.run_scenario(scenario)
            if result is None:
                return
            self.simulations_run += 1
            if self._learn_online:
                self._observe_outcome(subset, mode_category, result)

    # ------------------------------------------------------------------
    # Batch evaluation (the depth-first enumeration and the offline
    # model are outcome-independent, so labelling ahead of the
    # simulations is sound; with online learning, model updates are
    # deferred and applied in canonical proposal order between rounds)
    # ------------------------------------------------------------------
    def _candidate_stream(
        self, session: ExplorationSession
    ) -> Iterator[Tuple[float, str, Tuple[SensorId, ...], Optional[float]]]:
        """The candidate order shared by :meth:`explore` and
        :meth:`propose_batch`: per site, the latched subsets first (the
        exact classic order), then each burst duration's sweep."""
        subsets = self._candidate_subsets(session)
        windows = self._candidate_windows(session)
        for time in self._candidate_times(session):
            mode_category = session.mode_category_at(time)
            for window in windows:
                for subset in subsets:
                    yield time, mode_category, subset, window

    def _apply_deferred_updates(self, session: ExplorationSession) -> None:
        """Consume the outcomes of the previous batch, in proposal order.

        Only populated with ``learn_online``; the offline model has no
        feedback to consume.
        """
        for scenario, subset, mode_category in self._deferred_updates:
            result = session.result_for(scenario)
            if result is None:
                raise RuntimeError(
                    "batched BFI proposed a scenario whose result was never "
                    "ingested -- the engine must record every proposed "
                    "scenario before the next proposal round"
                )
            self._observe_outcome(subset, mode_category, result)
        self._deferred_updates.clear()

    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """Label candidates depth-first; batch the ones worth simulating.

        Labelling and simulation costs are charged here, during
        proposal, in the same per-candidate order as the sequential
        loop (label, then reserve the simulation the moment a candidate
        passes the threshold or wins the exploration draw), and the RNG
        is consumed one draw per label -- so the budget trajectory, the
        explored scenarios, and where the campaign stops are identical
        to :meth:`explore`.

        With ``learn_online`` every label's score depends on the
        outcomes of every earlier simulation, so a round closes as soon
        as one scenario is in flight: the deferred model updates are
        applied (in proposal order) when the next round opens.  Without
        it the model is frozen and batches fill to ``max_scenarios``.
        """
        if self._batch_session is not session:
            self._batch_session = session
            self._batch_stream = self._candidate_stream(session)
            self._batch_finished = False
            self._deferred_updates = []
        self._apply_deferred_updates(session)
        if self._batch_finished:
            return []
        assert self._batch_stream is not None
        batch: List[FaultScenario] = []
        seen: Set[FaultScenario] = set()
        while len(batch) < max_scenarios:
            if self._learn_online and self._deferred_updates:
                # The next label's score depends on an in-flight outcome.
                break
            entry = next(self._batch_stream, None)
            if entry is None:
                self._batch_finished = True
                break
            time, mode_category, subset, duration = entry
            if session.budget.exhausted or not session.charge_label():
                self._batch_finished = True
                break
            self.labels_issued += 1
            score = self._model.scenario_score(
                [sensor_id.sensor_type for sensor_id in subset], mode_category
            )
            predicted_unsafe = score >= self._threshold
            explore_anyway = self._rng.random() < self._exploration_rate
            if not predicted_unsafe and not explore_anyway:
                continue
            scenario = FaultScenario(
                FaultSpec(sensor_id, time, duration) for sensor_id in subset
            )
            if session.was_explored(scenario) or scenario in seen:
                # The sequential loop re-runs the scenario for free (the
                # session serves the cached result without a charge) and
                # still counts it; with the result already known, a
                # deferred model update can be consumed immediately.
                self.simulations_run += 1
                if self._learn_online:
                    result = session.result_for(scenario)
                    if result is not None:
                        self._observe_outcome(subset, mode_category, result)
                continue
            if not session.reserve_simulation():
                self._batch_finished = True
                break
            seen.add(scenario)
            if self._learn_online:
                self._deferred_updates.append((scenario, subset, mode_category))
            batch.append(scenario)
        return batch
