"""Regeneration of the paper's figures from the reproduction.

* Figures 1, 9 and 10 are altitude-over-time traces of specific case
  studies (the golden run against the fault-injected run).
* Figure 5 illustrates the fault-space search orders of DFS, BFS and
  SABRE on a two-sensor, five-time-step toy space; SABRE's order is
  what the search itself proposes.
* Figure 6 counts the sensor-instance-symmetry classes by enumerating
  the failed subsets of one sensor type (21 -> 5 checks for three
  compasses).
* Table I is the qualitative feature matrix of the approaches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.config import RunConfiguration
from repro.core.runner import RunResult, TestRunner
from repro.core.sabre import SabreSearch
from repro.core.session import BudgetAccount, ExplorationSession
from repro.core.strategies import (
    AvisStrategy,
    BayesianFaultInjection,
    BreadthFirstSearch,
    DepthFirstSearch,
    RandomInjection,
    SearchStrategy,
    StratifiedBFI,
)
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.hinj.instrumentation import ModeTransition
from repro.sensors import Barometer, GpsReceiver
from repro.sensors.base import SensorId, SensorType
from repro.sensors.suite import SensorSuite
from repro.workloads.builtin import AutoWorkload, WaypointFenceWorkload


@dataclass
class AltitudeTrace:
    """An altitude-over-time series extracted from one run."""

    label: str
    times: List[float]
    altitudes: List[float]

    @property
    def peak_altitude(self) -> float:
        """The maximum altitude reached."""
        return max(self.altitudes) if self.altitudes else 0.0

    @property
    def final_altitude(self) -> float:
        """The altitude at the end of the (possibly aborted) run."""
        return self.altitudes[-1] if self.altitudes else 0.0


@dataclass
class CaseStudyTraces:
    """Golden-vs-faulted traces plus the run results behind them."""

    golden: AltitudeTrace
    faulted: AltitudeTrace
    golden_run: RunResult
    faulted_run: RunResult

    @property
    def unsafe(self) -> bool:
        """True when the faulted run produced an unsafe condition."""
        return self.faulted_run.found_unsafe_condition

    @property
    def crashed(self) -> bool:
        """True when the faulted run ended in a recorded collision."""
        return bool(self.faulted_run.collisions)


def _altitude_trace(label: str, result: RunResult) -> AltitudeTrace:
    return AltitudeTrace(
        label=label,
        times=[sample.time for sample in result.trace],
        altitudes=[sample.altitude for sample in result.trace],
    )


def _run_case_study(
    config: RunConfiguration, scenario: FaultScenario
) -> CaseStudyTraces:
    """Run the golden and faulted variants of one case study."""
    from repro.core.avis import Avis

    avis = Avis(config, profiling_runs=2)
    golden = avis.profiling_results[0]
    runner = TestRunner(config, monitor=avis.monitor)
    faulted = runner.run(scenario)
    return CaseStudyTraces(
        golden=_altitude_trace("golden run", golden),
        faulted=_altitude_trace("fault-injected run", faulted),
        golden_run=golden,
        faulted_run=faulted,
    )


def _transition_time(result: RunResult, label: str, default: float) -> float:
    for transition in result.mode_transitions:
        if transition.label == label:
            return transition.time
    return default


def case_study_figure1(altitude: float = 20.0) -> CaseStudyTraces:
    """Figure 1: an IMU failure at the end of the landing causes a crash.

    The accelerometer is failed just as the return-to-launch descent hands
    over to the landing mode; the firmware falls back to GPS-driven
    altitude whose reference is far too coarse near the ground.
    """
    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: WaypointFenceWorkload(altitude=altitude),
    )
    golden_runner = TestRunner(config)
    golden = golden_runner.run()
    land_time = _transition_time(golden, "land", default=golden.duration_s * 0.7)
    scenario = FaultScenario(
        [FaultSpec(SensorId(SensorType.ACCELEROMETER, 0), land_time)]
    )
    return _run_case_study(config, scenario)


def case_study_apm16021(altitude: float = 20.0) -> CaseStudyTraces:
    """Figure 9: an accelerometer fault late in the takeoff climb.

    The vehicle overshoots the target altitude, the firmware overcorrects
    into a landing against a stale, too-high altitude model, and the
    vehicle hits the ground.
    """
    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=altitude),
    )
    golden_runner = TestRunner(config)
    golden = golden_runner.run()
    takeoff_time = _transition_time(golden, "takeoff", default=3.0)
    # Inject the fault late in the climb (about 90 % of the way up, the
    # paper's case study injects at 18 m of a 20 m climb).
    climb_duration = 0.0
    for sample in golden.trace:
        if sample.altitude >= altitude * 0.9:
            climb_duration = sample.time - takeoff_time
            break
    injection_time = takeoff_time + max(climb_duration, 1.0)
    scenario = FaultScenario(
        [FaultSpec(SensorId(SensorType.ACCELEROMETER, 0), injection_time)]
    )
    return _run_case_study(config, scenario)


def case_study_apm16967(altitude: float = 20.0) -> CaseStudyTraces:
    """Figure 10: a compass failure between waypoints.

    The firmware navigates on an old heading, the land fail-safe engages,
    and the state-estimate reset near the end of the landing causes a
    crash.
    """
    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: WaypointFenceWorkload(altitude=altitude),
    )
    golden_runner = TestRunner(config)
    golden = golden_runner.run()
    waypoint_time = _transition_time(golden, "waypoint-2", default=golden.duration_s * 0.4)
    scenario = FaultScenario(
        [FaultSpec(SensorId(SensorType.COMPASS, 0), waypoint_time + 1.0)]
    )
    return _run_case_study(config, scenario)


# ----------------------------------------------------------------------
# Figure 5: search orders on the toy fault space
# ----------------------------------------------------------------------
#: The toy mission's mode transitions (t1, t2 and t4, as in Figure 5).
FIGURE5_TRANSITIONS: Tuple[float, ...] = (1.0, 2.0, 4.0)


def _sabre_order(mission_s: float, count: int) -> List[FaultScenario]:
    """The first ``count`` scenarios :class:`SabreSearch` proposes on the
    toy, where every flight is safe and shows the toy's transitions."""
    labels = ("takeoff", "waypoint", "land")
    safe_flight = RunResult(
        scenario=EMPTY_SCENARIO,
        firmware_name="toy",
        workload_name="figure5",
        workload_result=None,
        trace=[],
        mode_transitions=[
            ModeTransition(time, label, previous)
            for time, label, previous in zip(
                FIGURE5_TRANSITIONS, labels, ("preflight",) + labels
            )
        ],
        collisions=[],
        fence_breaches=[],
        injections=[],
        failsafe_events=[],
        triggered_bugs=[],
        firmware_process_alive=True,
        duration_s=mission_s,
        steps=0,
    )
    session = ExplorationSession(
        # Nothing is flown: every proposal is answered with safe_flight.
        runner=None,
        budget=BudgetAccount(total_units=float(count)),
        profiling_run=safe_flight,
        suite=SensorSuite([GpsReceiver(), Barometer()]),
    )
    search = SabreSearch(session)
    order: List[FaultScenario] = []
    while True:
        batch = search.propose_batch(count)
        if not batch:
            return order
        for scenario in batch:
            session.ingest_result(scenario, safe_flight)
        order.extend(batch)


def figure5_search_orders(
    time_steps: int = 5, scenarios_per_strategy: int = 15
) -> Dict[str, List[str]]:
    """The first few scenarios explored by DFS, BFS and SABRE.

    The toy space matches Figure 5: two sensors (GPS and barometer) and
    ``time_steps`` injection times.  SABRE's row is what
    :class:`SabreSearch`, at its default time quantum and per-dequeue
    bound, proposes for a ``time_steps``-second mission with transitions
    at :data:`FIGURE5_TRANSITIONS` in which every flight is safe.
    """
    gps = SensorId(SensorType.GPS, 0)
    baro = SensorId(SensorType.BAROMETER, 0)
    times = [float(index + 1) for index in range(time_steps)]

    def render(scenario: FaultScenario) -> str:
        if scenario.is_empty:
            return "<no faults>"
        return "; ".join(
            f"{fault.sensor_id.sensor_type.value}@t{int(fault.start_time)}"
            for fault in scenario
        )

    dfs = DepthFirstSearch.enumerate_scenarios([gps, baro], times)
    bfs = BreadthFirstSearch.enumerate_scenarios([gps, baro], times)
    sabre = _sabre_order(float(time_steps), scenarios_per_strategy)
    return {
        name: [render(scenario) for scenario in order[:scenarios_per_strategy]]
        for name, order in (
            ("depth-first", list(dfs)),
            ("breadth-first", list(bfs)),
            ("sabre", sabre),
        )
    }


# ----------------------------------------------------------------------
# Figure 6: sensor-instance symmetry, counted by enumeration
# ----------------------------------------------------------------------
def figure6_pruning_counts(max_instances: int = 5) -> List[Tuple[int, int, int]]:
    """Rows of (instance count, unpruned checks, symmetric checks).

    For an N-instance sensor type, every (primary instance, non-empty
    set of failed instances) pair is one check without symmetry pruning.
    With it, pairs that fail the same roles are one check: each pair
    maps to its role signature (is the primary failed, how many backups
    are), and the row counts the distinct signatures.  For three
    compasses the row reads (3, 21, 5), the numbers quoted in the
    paper's Figure 6 discussion.
    """
    rows = []
    for count in range(1, max_instances + 1):
        instances = range(count)
        pairs = [
            (primary, failed)
            for primary in instances
            for size in range(1, count + 1)
            for failed in itertools.combinations(instances, size)
        ]
        signatures = {
            (primary in failed, len(failed) - (primary in failed))
            for primary, failed in pairs
        }
        rows.append((count, len(pairs), len(signatures)))
    return rows


# ----------------------------------------------------------------------
# Table I: qualitative feature matrix
# ----------------------------------------------------------------------
def table1_feature_matrix() -> List[Tuple[str, str, str, str]]:
    """Rows of (approach, targets transitions, prior bugs, dissimilar first)."""
    strategies: Sequence[SearchStrategy] = (
        AvisStrategy(),
        StratifiedBFI(),
        BayesianFaultInjection(),
        RandomInjection(),
    )
    rows = []
    for strategy in strategies:
        features = strategy.features.as_row()
        rows.append((strategy.name, features[0], features[1], features[2]))
    return rows
