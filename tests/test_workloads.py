"""Unit tests for the workload framework (against a fake harness)."""

import math

import pytest

from repro.mavlink.gcs import TelemetrySnapshot
from repro.mavlink.messages import MavCommand
from repro.sim.environment import GeoLocation
from repro.workloads.builtin import (
    AutoWorkload,
    PositionHoldBoxWorkload,
    WaypointFenceWorkload,
    default_workloads,
)
from repro.workloads.framework import (
    Target,
    WorkloadFailure,
    WorkloadOutcome,
    WorkloadTimeout,
)


class FakeGcs:
    """Records GCS calls without a real link."""

    def __init__(self):
        self.calls = []
        self.mission_upload_complete = False
        self.mission_upload_failed = False
        self.mission_upload_failure_reason = ""

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            if name == "begin_mission_upload":
                self.mission_upload_complete = True

        return record


class FakeHarness:
    """Minimal stand-in for the simulation harness."""

    def __init__(self):
        self.dt = 0.02
        self.time = 0.0
        self.telemetry = TelemetrySnapshot()
        self.gcs = FakeGcs()
        self.home = GeoLocation()
        self.auto_mode_name = "AUTO"
        self.guided_mode_name = "GUIDED"
        self.position_hold_mode_name = "POSHOLD"
        self.land_mode_name = "LAND"
        self.steps_taken = 0
        self.guided_targets = []
        #: Optional callback run after every step (simulates the world).
        self.on_step = None

    def step(self, count: int = 1):
        for _ in range(count):
            self.time += self.dt
            self.steps_taken += 1
            if self.on_step is not None:
                self.on_step(self)

    def should_abort(self):
        return False

    def set_guided_target(self, north, east, altitude):
        self.guided_targets.append((north, east, altitude))


class SimplePassingWorkload(Target):
    def test(self):
        self.wait_time(100)
        self.pass_test()


class FailingWorkload(Target):
    def test(self):
        self.fail_test("deliberate failure")


class ForgetfulWorkload(Target):
    def test(self):
        self.wait_time(20)


class TestTargetLifecycle:
    def test_run_requires_binding(self):
        with pytest.raises(RuntimeError):
            SimplePassingWorkload().run()

    def test_passing_workload(self):
        workload = SimplePassingWorkload()
        workload.bind(FakeHarness())
        result = workload.run()
        assert result.outcome == WorkloadOutcome.PASSED
        assert result.passed

    def test_failure_is_reported(self):
        workload = FailingWorkload()
        workload.bind(FakeHarness())
        result = workload.run()
        assert result.outcome == WorkloadOutcome.FAILED
        assert "deliberate" in result.reason

    def test_missing_pass_test_counts_as_failure(self):
        workload = ForgetfulWorkload()
        workload.bind(FakeHarness())
        result = workload.run()
        assert result.outcome == WorkloadOutcome.FAILED


class TestWaitPrimitives:
    def test_wait_time_advances_simulation(self):
        harness = FakeHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.wait_time(1000)
        assert harness.time == pytest.approx(1.0, abs=0.05)

    def test_wait_until_timeout_raises(self):
        harness = FakeHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        with pytest.raises(WorkloadTimeout):
            workload.wait_until(lambda: False, timeout_s=0.5, description="never")

    def test_wait_altitude_uses_telemetry(self):
        harness = FakeHarness()

        def climb(h):
            h.telemetry.relative_altitude += 0.05

        harness.on_step = climb
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.wait_altitude(5.0, tolerance=0.5, timeout_s=30.0)
        assert harness.telemetry.relative_altitude >= 4.5

    def test_arm_system_completely_re_requests(self):
        harness = FakeHarness()
        attempts = []

        def arm_later(h):
            arm_calls = [c for c in h.gcs.calls if c[0] == "arm"]
            attempts.append(len(arm_calls))
            if len(arm_calls) >= 2 and h.time > 2.0:
                h.telemetry.armed = True

        harness.on_step = arm_later
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.arm_system_completely(timeout_s=20.0)
        assert harness.telemetry.armed
        assert len([c for c in harness.gcs.calls if c[0] == "arm"]) >= 2


class ParkedHarness(FakeHarness):
    """A fake harness whose vehicle is always parked (disarmed at rest,
    no fault pending); it arms on the first arm request."""

    def __init__(self):
        super().__init__()
        self.parked_polls = 0
        self.on_step = self._arm_on_request

    @staticmethod
    def _arm_on_request(harness):
        if any(call[0] == "arm" for call in harness.gcs.calls):
            harness.telemetry.armed = True

    def parked(self):
        self.parked_polls += 1
        return True


class TestParkedExit:
    def test_waits_before_the_arming_handshake_never_park(self):
        harness = ParkedHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        with pytest.raises(WorkloadTimeout):
            workload.wait_until(lambda: False, timeout_s=0.5, description="never")
        assert harness.parked_polls == 0

    def test_a_wait_after_arming_ends_on_a_parked_fleet(self):
        harness = ParkedHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.arm_system_completely(timeout_s=5.0)
        harness.telemetry.armed = False  # e.g. a fail-safe DISARM
        start = harness.time
        with pytest.raises(WorkloadFailure, match="disarmed on the ground while waiting for never"):
            workload.wait_until(lambda: False, timeout_s=30.0, description="never")
        assert harness.time == start

    def test_armed_telemetry_skips_the_harness_check(self):
        harness = ParkedHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.arm_system_completely(timeout_s=5.0)
        with pytest.raises(WorkloadTimeout):
            workload.wait_until(lambda: False, timeout_s=0.5, description="never")
        assert harness.parked_polls == 0

    def test_a_true_predicate_returns_normally(self):
        harness = ParkedHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.arm_system_completely(timeout_s=5.0)
        harness.telemetry.armed = False
        workload.wait_disarmed(timeout_s=5.0)
        assert harness.parked_polls == 0

    def test_the_arm_wait_stays_exempt_on_a_second_arming(self):
        harness = ParkedHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload.arm_system_completely(timeout_s=5.0)
        harness.telemetry.armed = False
        harness.gcs.calls.clear()
        workload.arm_system_completely(timeout_s=5.0)
        assert harness.telemetry.armed
        assert harness.parked_polls == 0

    def test_harnesses_without_the_predicate_never_park(self):
        harness = FakeHarness()
        workload = SimplePassingWorkload()
        workload.bind(harness)
        workload._arming_done = True
        with pytest.raises(WorkloadTimeout):
            workload.wait_until(lambda: False, timeout_s=0.5, description="never")


class TestMissionBuilders:
    def setup_method(self):
        self.harness = FakeHarness()
        self.workload = SimplePassingWorkload()
        self.workload.bind(self.harness)

    def test_takeoff_and_land_fragments(self):
        takeoff = self.workload.takeoff_mission(20.0, 40.0, -83.0, 270.0)
        land = self.workload.land_mission()
        assert takeoff[0].command == MavCommand.NAV_TAKEOFF
        assert takeoff[0].altitude == 20.0
        assert land[0].command == MavCommand.NAV_LAND

    def test_waypoint_mission_converts_offsets(self):
        items = self.workload.waypoint_mission([(10.0, 0.0), (10.0, 10.0)], altitude=15.0)
        assert len(items) == 2
        assert all(item.command == MavCommand.NAV_WAYPOINT for item in items)
        home = self.harness.home
        north, east = home.local_offset_to(
            GeoLocation(items[0].latitude, items[0].longitude, home.altitude_msl_m)
        )
        assert north == pytest.approx(10.0, abs=0.1)
        assert east == pytest.approx(0.0, abs=0.1)

    def test_rtl_fragment(self):
        assert self.workload.rtl_mission()[0].command == MavCommand.NAV_RETURN_TO_LAUNCH

    def test_goto_sets_guided_target(self):
        self.workload.goto(5.0, -3.0, 12.0)
        assert self.harness.guided_targets == [(5.0, -3.0, 12.0)]


class TestBuiltinWorkloads:
    def test_default_workloads_are_the_paper_pair(self):
        workloads = default_workloads()
        assert len(workloads) == 2
        assert isinstance(workloads[0], PositionHoldBoxWorkload)
        assert isinstance(workloads[1], WaypointFenceWorkload)

    def test_names_are_stable(self):
        assert AutoWorkload().display_name == "auto"
        assert WaypointFenceWorkload().display_name == "waypoint-fence"
        assert PositionHoldBoxWorkload().display_name == "position-hold-box"

    def test_parameters_are_configurable(self):
        workload = WaypointFenceWorkload(altitude=12.0, box_side=15.0)
        assert workload.altitude == 12.0
        assert workload.box_side == 15.0
