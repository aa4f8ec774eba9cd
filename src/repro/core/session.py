"""Exploration sessions: budget accounting shared by every approach.

The paper gives every approach the same wall-clock budget (2 hours per
workload) and points out that BFI spends almost all of it *labelling*
candidate injection sites (~10 s per site) rather than simulating.  The
reproduction makes that trade-off explicit: a session has a budget in
abstract units, running one simulation costs ``simulation_cost`` units
and labelling one candidate costs ``labelling_cost`` units.  Ratios
matter, absolute values do not; the defaults
(:data:`DEFAULT_SIMULATION_COST`, :data:`DEFAULT_LABELLING_COST`)
approximate the paper's "a simulation takes minutes, a label takes ten
seconds".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.runner import RunResult, TestRunner
from repro.firmware.modes import OperatingModeLabel
from repro.hinj.faults import (
    EMPTY_SCENARIO,
    FailureHandle,
    FaultScenario,
    TrafficFailure,
)
from repro.sensors.base import SensorId, SensorRole
from repro.sensors.suite import SensorSuite, iris_sensor_suite

#: Default budget units per simulation and per labelled candidate.
DEFAULT_SIMULATION_COST = 1.0
DEFAULT_LABELLING_COST = 0.15


@dataclass
class BudgetAccount:
    """Tracks how much of the test budget has been consumed."""

    total_units: float
    simulation_cost: float = DEFAULT_SIMULATION_COST
    labelling_cost: float = DEFAULT_LABELLING_COST
    spent_units: float = 0.0
    simulations: int = 0
    labels: int = 0

    def __post_init__(self) -> None:
        # NaN and -1 would end a campaign before its first simulation,
        # inf would never end one: none of them is a budget.
        if not math.isfinite(self.total_units) or self.total_units < 0:
            raise ValueError(
                f"budget must be a finite number >= 0, got {self.total_units!r}"
            )

    @property
    def remaining_units(self) -> float:
        """Budget units still available."""
        return max(self.total_units - self.spent_units, 0.0)

    @property
    def exhausted(self) -> bool:
        """True when not even one more simulation fits in the budget."""
        return self.remaining_units < self.simulation_cost

    def can_afford_simulation(self) -> bool:
        """True when one more simulation fits in the budget."""
        return self.remaining_units >= self.simulation_cost

    def can_afford_label(self) -> bool:
        """True when one more labelling call fits in the budget."""
        return self.remaining_units >= self.labelling_cost

    def charge_simulation(self) -> None:
        """Consume the cost of one simulation."""
        self.spent_units += self.simulation_cost
        self.simulations += 1

    def charge_label(self) -> None:
        """Consume the cost of labelling one candidate injection site."""
        self.spent_units += self.labelling_cost
        self.labels += 1


class ExplorationSession:
    """One approach's exploration of the fault space under a budget."""

    def __init__(
        self,
        runner: TestRunner,
        budget: BudgetAccount,
        profiling_run: RunResult,
        suite: Optional[SensorSuite] = None,
        traffic_failures: Optional[List[TrafficFailure]] = None,
    ) -> None:
        self._runner = runner
        self._budget = budget
        self._profiling_run = profiling_run
        self._suite = suite if suite is not None else iris_sensor_suite()
        self._traffic_failures = list(traffic_failures) if traffic_failures else []
        self._results: List[RunResult] = []
        self._explored: Dict[FaultScenario, RunResult] = {}

    # ------------------------------------------------------------------
    # Context the strategies rely on
    # ------------------------------------------------------------------
    @property
    def runner(self) -> TestRunner:
        """The test runner executing scenarios for this session."""
        return self._runner

    @property
    def budget(self) -> BudgetAccount:
        """The budget account for this session."""
        return self._budget

    @property
    def profiling_run(self) -> RunResult:
        """The fault-free profiling run (mode transitions, duration)."""
        return self._profiling_run

    @property
    def mission_duration(self) -> float:
        """Duration of the fault-free run, in simulated seconds."""
        return self._profiling_run.duration_s

    @property
    def transition_times(self) -> List[float]:
        """Times of the operating-mode transitions in the profiling run."""
        return self._profiling_run.transition_times

    @property
    def fleet_size(self) -> int:
        """Number of vehicles per simulation (from the run configuration)."""
        config = getattr(self._runner, "config", None)
        return getattr(config, "fleet_size", 1)

    @property
    def sensor_ids(self) -> List[SensorId]:
        """Every sensor instance available for fault injection.

        For fleet campaigns the fault space is the suite replicated per
        vehicle: each physical instance appears once per fleet member,
        namespaced by vehicle index.  Fleet size 1 returns the suite's
        own (vehicle 0) ids, exactly as before, so classic campaigns and
        their scenario hashes are untouched.
        """
        base_ids = self._suite.sensor_ids
        fleet_size = self.fleet_size
        if fleet_size == 1:
            return base_ids
        return [
            sensor_id.for_vehicle(vehicle)
            for vehicle in range(fleet_size)
            for sensor_id in base_ids
        ]

    @property
    def traffic_failures(self) -> List["TrafficFailure"]:
        """The coordination fault space opened to this session.

        Empty by default: a session only explores the inter-vehicle
        channel when the caller opted in (``Avis(traffic_faults=True)``
        or an explicit ``traffic_failures`` list), so every classic and
        homogeneous-fleet campaign keeps its exact pre-traffic fault
        space and scenario sequence.
        """
        return list(self._traffic_failures)

    @property
    def injectable_failures(self) -> List[FailureHandle]:
        """Every failure handle a strategy may schedule: the sensor
        instances plus any opted-in coordination failures."""
        return list(self.sensor_ids) + list(self._traffic_failures)

    def sensor_role(self, sensor_id: SensorId) -> SensorRole:
        """Role (primary/backup) of a sensor instance (any fleet member)."""
        return self._suite.role_of(sensor_id.base)

    def mode_label_at(self, time: float) -> str:
        """Operating-mode label at ``time`` in the profiling run."""
        return self._profiling_run.mode_label_at(time)

    def mode_category_at(self, time: float) -> str:
        """Table IV mode category at ``time`` in the profiling run."""
        return OperatingModeLabel.mode_category(self.mode_label_at(time))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def results(self) -> List[RunResult]:
        """Every run executed by this session, in order."""
        return list(self._results)

    @property
    def unsafe_results(self) -> List[RunResult]:
        """Runs that produced at least one unsafe condition."""
        return [result for result in self._results if result.found_unsafe_condition]

    def was_explored(self, scenario: FaultScenario) -> bool:
        """True when ``scenario`` has already been simulated."""
        return scenario in self._explored

    def result_for(self, scenario: FaultScenario) -> Optional[RunResult]:
        """The recorded result of ``scenario``, or None when unexplored.

        SABRE's proposer uses this to consume the outcome of a scenario
        executed and ingested between proposal rounds (found-bug
        pruning and queue re-seeding).
        """
        return self._explored.get(scenario)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def reserve_simulation(self) -> bool:
        """Charge one simulation ahead of its execution; False when the
        budget cannot afford it.

        Proposers (:meth:`SearchStrategy.propose_batch`) charge each
        proposed scenario here, at proposal time, interleaved with their
        labelling charges in per-candidate order -- so the budget
        trajectory, and where the campaign stops, is the same at every
        round size, even for strategies that also charge labelling
        costs.
        """
        if not self._budget.can_afford_simulation():
            return False
        self._budget.charge_simulation()
        return True

    def ingest_result(self, scenario: FaultScenario, result: RunResult) -> None:
        """Record a simulation executed outside the session (by the
        campaign engine's backend, or by ``explore()``).

        The simulation cost was already charged when the scenario was
        proposed (:meth:`reserve_simulation`); this only records.  Both
        drivers record in proposal order, so the session's result list
        does not depend on the round size.
        """
        self._explored[scenario] = result
        self._results.append(result)

    def charge_label(self) -> bool:
        """Charge one candidate-labelling call; False when unaffordable."""
        if not self._budget.can_afford_label():
            return False
        self._budget.charge_label()
        return True
