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

from repro.core.session import ExplorationSession
from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.hinj.faults import (
    FaultScenario,
    FaultSpec,
    admissible_burst_windows,
    validate_burst_durations,
)
from repro.sensors.base import SensorId, SensorType

#: One labelled candidate: (time, mode category, subset, recovery window).
_Candidate = Tuple[float, str, Tuple[SensorId, ...], Optional[float]]


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
    """BFI over a depth-first candidate enumeration (column "BFI").

    Every candidate site is labelled (charged to the budget) and scored
    by the offline model; the ones it predicts unsafe -- plus a seeded
    ``EXPLORATION_RATE`` share of the rest -- are simulated.  The model
    and the enumeration do not depend on run outcomes, so labelling
    ahead of the simulations is sound and batches fill to the requested
    size.

    ``burst_durations`` (off by default) extends the candidate space with
    intermittent variants of every subset: the latched candidates keep
    their exact classic order, then each burst duration sweeps the same
    (time, subset) grid with a bounded fault window.  The model scores a
    burst like its latched counterpart -- BFI's features do not cover
    recovery timing, which is precisely why it under-explores that axis.
    """

    name = "bfi"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=True,
        searches_dissimilar_first=False,
    )
    #: Chance that a site the model rejects is simulated anyway; one
    #: seeded draw per label.
    EXPLORATION_RATE = 0.02

    def __init__(
        self,
        model: Optional[BfiModel] = None,
        candidate_granularity_s: float = 0.1,
        threshold: float = 0.4,
        rng_seed: int = 7,
        max_concurrent_failures: int = 1,
        burst_durations: Sequence[float] = (),
    ) -> None:
        self._model = model if model is not None else BfiModel()
        self._granularity = candidate_granularity_s
        self._threshold = threshold
        self._rng = random.Random(rng_seed)
        self._max_concurrent = max_concurrent_failures
        self._burst_durations = validate_burst_durations(burst_durations)
        self._stream_session: Optional[ExplorationSession] = None
        self._stream: Iterator[_Candidate] = iter(())

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def _candidate_times(self, session: ExplorationSession) -> List[float]:
        """Depth-first: from the end of the mission backwards."""
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

    def _candidate_stream(self, session: ExplorationSession) -> Iterator[_Candidate]:
        """Per candidate time, the latched subsets first (the exact
        classic order), then each burst duration's sweep of the same
        subsets."""
        subsets = self._candidate_subsets(session)
        windows = admissible_burst_windows(
            self._burst_durations, session.mission_duration
        )
        for time in self._candidate_times(session):
            mode_category = session.mode_category_at(time)
            for window in windows:
                for subset in subsets:
                    yield time, mode_category, subset, window

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------
    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """Label candidates in order; batch the ones worth simulating.

        Per candidate: charge the label, score it, draw once from the
        RNG, and reserve the simulation the moment the candidate passes
        the threshold or wins the exploration draw.  The candidate
        cursor is per session, so a strategy reused for another campaign
        restarts the enumeration.
        """
        if self._stream_session is not session:
            self._stream_session = session
            self._stream = self._candidate_stream(session)
        batch: List[FaultScenario] = []
        seen: Set[FaultScenario] = set()
        while len(batch) < max_scenarios:
            entry = next(self._stream, None)
            if entry is None:
                break
            time, mode_category, subset, duration = entry
            if session.budget.exhausted or not session.charge_label():
                break
            score = self._model.scenario_score(
                [sensor_id.sensor_type for sensor_id in subset], mode_category
            )
            predicted_unsafe = score >= self._threshold
            explore_anyway = self._rng.random() < self.EXPLORATION_RATE
            if not predicted_unsafe and not explore_anyway:
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
