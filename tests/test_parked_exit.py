"""The parked exit: a wait ends once every vehicle is disarmed on the
ground with no fault left to inject or recover.

A parked run must be an exact prefix of the run that keeps stepping
until its wait times out: the same verdict, injections and triggered
bugs, and a trace, mode-transition and fail-safe log that the full run
only extends.  The full run is flown here by switching the harness's
parked predicate off.
"""

from __future__ import annotations

import pytest

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.runner import SimulationHarness, TestRunner
from repro.engine.backends import parse_backend_spec
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.failsafe import FailsafeAction
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import FaultScenario, FaultSpec, TrafficFaultKind, TrafficFaultSpec
from repro.obs.runtime import Observability, observed
from repro.sensors.base import SensorId, SensorType
from repro.workloads.builtin import (
    AutoWorkload,
    PositionHoldBoxWorkload,
    WaypointFenceWorkload,
)
from repro.workloads.fleet import MultiPadTakeoffLandWorkload
from repro.workloads.framework import WorkloadOutcome

BATTERY = SensorId(SensorType.BATTERY, 0)
GPS = SensorId(SensorType.GPS, 0)
FIRMWARES = pytest.mark.parametrize(
    "firmware", [ArduPilotFirmware, Px4Firmware], ids=["apm", "px4"]
)

#: Just after the waypoint workload's arming handshake (armed at ~2.3 s).
AFTER_ARMING_S = 2.38


def waypoint_config(firmware) -> RunConfiguration:
    return RunConfiguration(
        firmware_class=firmware,
        workload_factory=lambda: WaypointFenceWorkload(altitude=15.0, box_side=15.0),
    )


@pytest.fixture(scope="module")
def waypoint_runners():
    """Monitored waypoint runners, one per firmware (profiled once)."""
    runners = {}
    for firmware in (ArduPilotFirmware, Px4Firmware):
        config = waypoint_config(firmware)
        avis = Avis(config, profiling_runs=2)
        avis.profile()
        runners[firmware.name] = TestRunner(config, avis.monitor)
    return runners


def fly_without_parked_exit(runner, scenario, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(SimulationHarness, "parked", lambda self: False)
        return runner.run(scenario)


def assert_prefix(parked, full):
    """``parked`` is an exact prefix of ``full`` with the same verdict."""
    assert parked.steps < full.steps
    end = parked.duration_s
    assert [c.describe() for c in parked.unsafe_conditions] == [
        c.describe() for c in full.unsafe_conditions
    ]
    assert parked.injections == full.injections
    assert parked.traffic_injections == full.traffic_injections
    assert parked.triggered_bugs == full.triggered_bugs
    parked_traces = parked.vehicle_traces or {0: parked.trace}
    full_traces = full.vehicle_traces or {0: full.trace}
    assert parked_traces.keys() == full_traces.keys()
    for vehicle, samples in parked_traces.items():
        assert samples == full_traces[vehicle][: len(samples)]
    assert parked.mode_transitions == [
        t for t in full.mode_transitions if t.time <= end
    ]
    assert parked.failsafe_events == [
        e for e in full.failsafe_events if e.time <= end
    ]
    assert parked.collisions == [c for c in full.collisions if c.time <= end]


class TestWaypointParks:
    @FIRMWARES
    def test_battery_failure_after_arming_ends_within_seconds(
        self, firmware, waypoint_runners
    ):
        scenario = FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S)])
        result = waypoint_runners[firmware.name].run(scenario)
        assert result.workload_result.outcome == WorkloadOutcome.FAILED
        assert result.workload_result.reason == (
            "vehicle disarmed on the ground while waiting for altitude 15.0 m"
        )
        assert result.duration_s < AFTER_ARMING_S + 1.0
        assert [event.action for event in result.failsafe_events] == [
            FailsafeAction.DISARM
        ]
        assert result.unsafe_conditions == []

    @FIRMWARES
    def test_open_burst_window_delays_the_exit_until_its_recovery(
        self, firmware, waypoint_runners
    ):
        scenario = FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S, 5.0)])
        result = waypoint_runners[firmware.name].run(scenario)
        (record,) = result.injections
        assert record.recovered_time is not None
        assert record.recovered_time >= AFTER_ARMING_S + 5.0
        assert record.recovered_time <= result.duration_s < record.recovered_time + 1.0
        assert "disarmed on the ground" in result.workload_result.reason

    @FIRMWARES
    def test_gps_failed_before_arming_still_times_out_in_the_arm_wait(
        self, firmware, waypoint_runners
    ):
        result = waypoint_runners[firmware.name].run(
            FaultScenario([FaultSpec(GPS, 0.5)])
        )
        assert result.workload_result.outcome == WorkloadOutcome.TIMEOUT
        assert result.workload_result.reason == (
            "timed out after 30s waiting for vehicle to arm"
        )
        # The init wait and the mission upload come first.
        assert 30.0 <= result.workload_result.duration_s < 33.0

    @FIRMWARES
    @pytest.mark.parametrize(
        "scenario",
        [
            FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S)]),
            FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S, 5.0)]),
            FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S), FaultSpec(GPS, 6.0)]),
        ],
        ids=["latched", "burst", "pending-fault"],
    )
    def test_parked_run_is_a_prefix_of_the_full_run(
        self, firmware, scenario, waypoint_runners, monkeypatch
    ):
        runner = waypoint_runners[firmware.name]
        parked = runner.run(scenario)
        full = fly_without_parked_exit(runner, scenario, monkeypatch)
        assert full.workload_result.outcome == WorkloadOutcome.TIMEOUT
        assert_prefix(parked, full)
        # No exit before the last fault took effect on the ground.
        assert parked.duration_s >= max(r.injected_time for r in parked.injections)

    def test_a_fault_no_log_can_record_keeps_the_run_waiting(self, waypoint_runners):
        # A classic run has no traffic channel to apply (and log) the
        # dropout, so its injection logs never complete.
        scenario = FaultScenario(
            [
                FaultSpec(BATTERY, AFTER_ARMING_S),
                TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 3.0),
            ]
        )
        result = waypoint_runners["ardupilot"].run(scenario)
        assert result.workload_result.outcome == WorkloadOutcome.TIMEOUT


class TestFaultFreeRunsNeverPark:
    @FIRMWARES
    @pytest.mark.parametrize(
        "workload_factory",
        [
            lambda: AutoWorkload(altitude=10.0),
            lambda: PositionHoldBoxWorkload(altitude=10.0, box_side=10.0),
            lambda: WaypointFenceWorkload(altitude=15.0, box_side=15.0),
        ],
        ids=["auto", "position-hold-box", "waypoint-fence"],
    )
    def test_golden_runs_pass_without_a_parked_poll(
        self, firmware, workload_factory, monkeypatch
    ):
        polls = []
        original = SimulationHarness.parked

        def spy(harness):
            answer = original(harness)
            polls.append(answer)
            return answer

        monkeypatch.setattr(SimulationHarness, "parked", spy)
        config = RunConfiguration(
            firmware_class=firmware, workload_factory=workload_factory
        )
        result = TestRunner(config).run()
        assert result.workload_passed
        assert True not in polls


class TestFleetParks:
    def test_fleet_waits_for_every_vehicle_and_the_traffic_recovery(
        self, monkeypatch
    ):
        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: MultiPadTakeoffLandWorkload(
                altitude=8.0, hover_ms=2000.0, fleet_size=2
            ),
            fleet_size=2,
        )
        scenario = FaultScenario(
            [
                FaultSpec(BATTERY, AFTER_ARMING_S),
                FaultSpec(BATTERY.for_vehicle(1), AFTER_ARMING_S),
                TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0, duration_s=4.0),
            ]
        )
        runner = TestRunner(config)
        parked = runner.run(scenario)
        assert "disarmed on the ground" in parked.workload_result.reason
        (traffic,) = parked.traffic_injections
        assert traffic.recovered_time is not None
        assert traffic.recovered_time <= parked.duration_s < traffic.recovered_time + 1.0
        assert_prefix(parked, fly_without_parked_exit(runner, scenario, monkeypatch))

    def test_one_vehicle_still_armed_keeps_the_fleet_flying(self):
        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: MultiPadTakeoffLandWorkload(
                altitude=8.0, hover_ms=2000.0, fleet_size=2
            ),
            fleet_size=2,
            max_sim_time_s=12.0,
        )
        scenario = FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S)])
        harness = SimulationHarness(config, scenario)
        workload = config.workload_factory()
        workload.bind(harness)
        result = workload.run()
        # Vehicle 0 is parked on its pad, but vehicle 1 flies the
        # mission, so the run goes on to the end of its time budget.
        assert result.outcome == WorkloadOutcome.BUDGET_EXHAUSTED
        assert not harness.vehicle(0).firmware.armed
        assert not harness.parked()


class TestObservability:
    def test_parked_exit_is_counted_and_recorded(self, waypoint_runners):
        scenario = FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S)])
        runner = waypoint_runners["ardupilot"]
        untraced = runner.run(scenario)
        with observed(Observability()) as obs:
            traced = runner.run(scenario)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("run.parked") == 1.0
        assert counters.get("run.flight_events{kind=run.parked}") == 1.0
        (event,) = [e for e in traced.flight_log.events if e.kind == "run.parked"]
        assert event.time_s == pytest.approx(traced.duration_s)
        # Tracing observes the exit without moving it.
        assert traced.steps == untraced.steps
        assert traced.trace == untraced.trace
        assert untraced.flight_log is None

    def test_pool_workers_parked_exits_are_counted_in_the_parent(
        self, waypoint_runners
    ):
        runner = waypoint_runners["px4"]
        scenarios = [
            FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S)]),
            FaultScenario([FaultSpec(BATTERY, AFTER_ARMING_S, 5.0)]),
        ]
        backend = parse_backend_spec("pool:2")
        try:
            with observed(Observability()) as obs:
                backend.run_scenarios(runner, scenarios)
        finally:
            backend.close()
        assert obs.metrics.snapshot()["counters"].get("run.parked") == 2.0

    def test_runs_that_do_not_park_count_nothing(self, waypoint_runners):
        with observed(Observability()) as obs:
            waypoint_runners["px4"].run(FaultScenario([FaultSpec(GPS, 0.5)]))
        assert "run.parked" not in obs.metrics.snapshot()["counters"]
