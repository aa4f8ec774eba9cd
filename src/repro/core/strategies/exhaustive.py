"""The naive exhaustive orders of Section IV-B: depth-first and breadth-first.

The paper walks through both on the Figure 5 example (two sensors, five
time-steps) to show why neither reaches dissimilar scenarios quickly:
depth-first stays at the end of the run varying which sensors fail, while
breadth-first re-runs the same whole-run failure at slightly different
start times.  Both are implemented here twice over:

* as pure *enumerators* (`enumerate_scenarios`) so the Figure 5 benchmark
  can print the exact search orders the paper lists, and
* as budget-driven strategies so they can be run head-to-head with the
  other approaches.

Scenario representation note: the paper writes a scenario as the vector
``<F1 ... F5>`` of failed-sensor sets per time-step.  With clean (never
recovering) failures that vector is equivalent to assigning each failed
sensor its first failure time, which is how
:class:`~repro.hinj.faults.FaultScenario` stores it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.session import ExplorationSession
from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId


def _non_empty_subsets(sensors: Sequence[SensorId]) -> List[Tuple[SensorId, ...]]:
    subsets: List[Tuple[SensorId, ...]] = []
    for size in range(1, len(sensors) + 1):
        subsets.extend(itertools.combinations(sensors, size))
    return subsets


class _EnumerationStrategy(SearchStrategy):
    """Shared budget-driven proposer over a fixed enumeration order.

    The enumeration order is a pure function of the sensor set and the
    time grid, so batches of consecutive scenarios are independent and
    the search is embarrassingly parallel: :meth:`propose_batch` simply
    hands out the next slice of the enumeration.
    """

    def __init__(self, time_step_s: float = 1.0) -> None:
        self._time_step = time_step_s
        self._scenario_iter: Optional[Iterator[FaultScenario]] = None
        self._iter_session: Optional[ExplorationSession] = None

    @staticmethod
    def enumerate_scenarios(
        sensors: Sequence[SensorId], times: Sequence[float]
    ) -> Iterator[FaultScenario]:
        raise NotImplementedError

    def _times(self, session: ExplorationSession) -> List[float]:
        duration = session.mission_duration
        return [
            round(index * self._time_step, 3)
            for index in range(int(duration / self._time_step) + 1)
        ]

    def _ensure_iterator(self, session: ExplorationSession) -> Iterator[FaultScenario]:
        # The enumeration cursor is per-session: a strategy instance
        # reused for another campaign restarts from the top with that
        # campaign's sensors and time grid.
        if self._scenario_iter is None or self._iter_session is not session:
            self._iter_session = session
            self._scenario_iter = self.enumerate_scenarios(
                session.sensor_ids, self._times(session)
            )
        return self._scenario_iter

    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """The next ``max_scenarios`` unexplored scenarios in search order."""
        iterator = self._ensure_iterator(session)
        batch: List[FaultScenario] = []
        seen: Set[FaultScenario] = set()
        for scenario in iterator:
            if session.budget.exhausted:
                break
            if scenario.is_empty or session.was_explored(scenario) or scenario in seen:
                continue
            if not session.reserve_simulation():
                break
            seen.add(scenario)
            batch.append(scenario)
            if len(batch) >= max_scenarios:
                break
        return batch


class DepthFirstSearch(_EnumerationStrategy):
    """Depth-first enumeration: latest injection times first."""

    name = "depth-first"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=False,
        searches_dissimilar_first=False,
    )

    @staticmethod
    def enumerate_scenarios(
        sensors: Sequence[SensorId], times: Sequence[float]
    ) -> Iterator[FaultScenario]:
        """The DFS order of Section IV-B: vary the tail of the run first.

        The first scenario is the fault-free run; then every subset of
        sensors failed at the last time-step, then the last two, and so
        on -- matching the sequence listed in the paper.
        """
        yield FaultScenario()
        subsets = _non_empty_subsets(sensors)
        for start_index in range(len(times) - 1, -1, -1):
            start_time = times[start_index]
            for subset in subsets:
                yield FaultScenario(FaultSpec(sensor_id, start_time) for sensor_id in subset)


class BreadthFirstSearch(_EnumerationStrategy):
    """Breadth-first enumeration: whole-run failures first, then later starts."""

    name = "breadth-first"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=False,
        searches_dissimilar_first=False,
    )

    @staticmethod
    def enumerate_scenarios(
        sensors: Sequence[SensorId], times: Sequence[float]
    ) -> Iterator[FaultScenario]:
        """The BFS order of Section IV-B.

        After the fault-free run, every sensor subset is failed for the
        whole run (start at the first time-step), then every subset from
        the second time-step onward, and so on, sweeping the start time
        forward -- matching the listed sequence (``{GPS}`` for the whole
        run, ``{Baro}`` for the whole run, ``{GPS, Baro}``, then the same
        subsets starting one step later, ...).
        """
        yield FaultScenario()
        subsets = _non_empty_subsets(sensors)
        for start_time in times:
            for subset in subsets:
                yield FaultScenario(FaultSpec(sensor_id, start_time) for sensor_id in subset)
