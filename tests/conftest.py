"""Shared fixtures and helpers for the test suite.

Integration fixtures use a short mission (8 m takeoff + land) so full
simulated flights stay in the tens of milliseconds; campaign-level
fixtures are session-scoped so profiling is paid for once.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import pytest

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.runner import RunResult, TestRunner, TraceSample
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import FaultScenario
from repro.hinj.instrumentation import ModeTransition
from repro.workloads.builtin import AutoWorkload, WaypointFenceWorkload
from repro.workloads.framework import WorkloadOutcome, WorkloadResult


def make_trace(
    positions: Sequence[tuple],
    mode_labels: Optional[Sequence[str]] = None,
    sample_period: float = 0.1,
    armed: bool = True,
    on_ground: bool = False,
) -> List[TraceSample]:
    """Build a synthetic trace from a list of positions."""
    samples = []
    for index, position in enumerate(positions):
        label = mode_labels[index] if mode_labels is not None else "takeoff"
        samples.append(
            TraceSample(
                index=index,
                time=index * sample_period,
                position=tuple(position),
                acceleration=(0.0, 0.0, 0.0),
                velocity=(0.0, 0.0, 0.0),
                mode_label=label,
                altitude=position[2],
                on_ground=on_ground,
                armed=armed,
            )
        )
    return samples


def make_run_result(
    trace: Optional[List[TraceSample]] = None,
    transitions: Optional[List[ModeTransition]] = None,
    scenario: Optional[FaultScenario] = None,
    triggered_bugs: Optional[List[str]] = None,
    collisions: Optional[list] = None,
    duration_s: Optional[float] = None,
    workload_outcome: WorkloadOutcome = WorkloadOutcome.PASSED,
) -> RunResult:
    """Build a synthetic RunResult for unit tests."""
    if trace is None:
        trace = make_trace([(0.0, 0.0, float(i)) for i in range(20)])
    if transitions is None:
        transitions = [
            ModeTransition(time=0.0, label="preflight", previous=None),
            ModeTransition(time=0.5, label="takeoff", previous="preflight"),
            ModeTransition(time=1.0, label="land", previous="takeoff"),
        ]
    return RunResult(
        scenario=scenario if scenario is not None else FaultScenario(),
        firmware_name="ardupilot",
        workload_name="synthetic",
        workload_result=WorkloadResult(outcome=workload_outcome),
        trace=trace,
        mode_transitions=transitions,
        collisions=collisions if collisions is not None else [],
        fence_breaches=[],
        injections=[],
        failsafe_events=[],
        triggered_bugs=triggered_bugs if triggered_bugs is not None else [],
        firmware_process_alive=True,
        duration_s=duration_s if duration_s is not None else trace[-1].time,
        steps=len(trace) * 5,
    )


def line_digest(lines) -> str:
    """A short SHA-256 over the ``repr`` of each line, in order."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update((repr(line) + "\n").encode("utf-8"))
    return digest.hexdigest()[:20]


def flight_lines(result: RunResult) -> list:
    """Every observable of one flown run, without its cache key: traces,
    mode transitions, event logs, injections, verdict inputs and step
    count.  Two runs with equal lines flew the same flight."""
    lines = list(result.trace)
    lines += [
        sample
        for vehicle in sorted(result.vehicle_traces)
        for sample in result.vehicle_traces[vehicle]
    ]
    lines += result.mode_transitions
    lines += [
        transition
        for vehicle in sorted(result.vehicle_mode_transitions)
        for transition in result.vehicle_mode_transitions[vehicle]
    ]
    lines += [
        result.collisions,
        result.fence_breaches,
        result.injections,
        result.failsafe_events,
        result.triggered_bugs,
        result.workload_result.outcome,
        result.steps,
        result.duration_s,
        result.min_separation_m,
        result.proximity_events,
        result.traffic_injections,
    ]
    return lines


def drive_batched(search, batch_size: int) -> None:
    """Drive a SABRE proposal machine the way the campaign engine does:
    execute every proposed scenario, ingest results in proposal order."""
    session = search.session
    while True:
        batch = search.propose_batch(batch_size)
        if not batch:
            return
        for scenario in batch:
            session.ingest_result(scenario, session.runner.run(scenario))


def drive_strategy(strategy, session, batch_size: int) -> None:
    """The campaign engine's propose/run/ingest loop without a backend
    or a cache, at an explicit round size (stub runners have no config
    for a backend to build a runner from)."""
    while True:
        batch = strategy.propose_batch(session, batch_size)
        if not batch:
            return
        for scenario in batch:
            session.ingest_result(scenario, session.runner.run(scenario))


@pytest.fixture(scope="session")
def short_auto_config() -> RunConfiguration:
    """A short AUTO mission (8 m takeoff + land) on ArduPilot."""
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=8.0, init_wait_ms=1000.0),
        max_sim_time_s=90.0,
    )


@pytest.fixture(scope="session")
def short_waypoint_config() -> RunConfiguration:
    """A short waypoint mission (10 m box) on ArduPilot."""
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: WaypointFenceWorkload(
            altitude=10.0, box_side=10.0, init_wait_ms=1000.0
        ),
        max_sim_time_s=120.0,
    )


@pytest.fixture(scope="session")
def short_px4_config() -> RunConfiguration:
    """The short waypoint mission on the PX4 flavour."""
    return RunConfiguration(
        firmware_class=Px4Firmware,
        workload_factory=lambda: WaypointFenceWorkload(
            altitude=10.0, box_side=10.0, init_wait_ms=1000.0
        ),
        max_sim_time_s=120.0,
    )


@pytest.fixture(scope="session")
def golden_auto_run(short_auto_config) -> RunResult:
    """One fault-free run of the short AUTO mission."""
    return TestRunner(short_auto_config).run()


@pytest.fixture(scope="session")
def golden_waypoint_run(short_waypoint_config) -> RunResult:
    """One fault-free run of the short waypoint mission."""
    return TestRunner(short_waypoint_config).run()


@pytest.fixture(scope="session")
def waypoint_avis(short_waypoint_config) -> Avis:
    """An Avis instance profiled on the short waypoint mission."""
    avis = Avis(short_waypoint_config, profiling_runs=2, budget_units=20.0)
    avis.profile()
    return avis
