"""Unit tests for the firmware's building blocks."""

import math

import pytest

from repro.firmware.arming import ArmingController
from repro.firmware.effects import BugEffectEngine
from repro.firmware.estimator import EstimatorStatus, StateEstimate, StateEstimator
from repro.firmware.failsafe import FailsafeAction, FailsafeManager
from repro.firmware.mission_exec import MissionExecutor
from repro.firmware.modes import (
    ARDUPILOT_MODE_NAMES,
    FlightMode,
    OperatingModeLabel,
    PX4_MODE_NAMES,
    SAFE_MODES,
    UNTESTED_MODES,
    resolve_mode_name,
)
from repro.firmware.navigation import NavigationSetpoint, NavigationStack
from repro.firmware.params import FirmwareParameters
from repro.firmware.bugs import ARDUPILOT_LATENT_BUGS, BugRegistry
from repro.mavlink.messages import MavCommand
from repro.mavlink.mission import MissionPlan, mission_item
from repro.sensors.base import SensorId, SensorType
from repro.sensors.suite import iris_sensor_suite
from repro.sim.environment import GeoLocation
from repro.sim.state import AttitudeState, VehicleState
from repro.sim.vehicle import IRIS_QUADCOPTER


class TestModes:
    def test_mode_name_resolution_per_flavour(self):
        assert resolve_mode_name("AUTO", ARDUPILOT_MODE_NAMES) == FlightMode.AUTO
        assert resolve_mode_name("MISSION", PX4_MODE_NAMES) == FlightMode.AUTO
        assert resolve_mode_name("poshold", ARDUPILOT_MODE_NAMES) == FlightMode.POSHOLD
        assert resolve_mode_name("nonexistent", ARDUPILOT_MODE_NAMES) is None

    def test_safe_and_untested_mode_sets(self):
        assert FlightMode.RTL in SAFE_MODES and FlightMode.LAND in SAFE_MODES
        assert FlightMode.ACRO in UNTESTED_MODES

    def test_waypoint_labels(self):
        label = OperatingModeLabel.waypoint(3)
        assert label == "waypoint-3"
        assert OperatingModeLabel.is_waypoint(label)
        assert OperatingModeLabel.waypoint_index(label) == 3
        assert OperatingModeLabel.waypoint_index("land") is None
        with pytest.raises(ValueError):
            OperatingModeLabel.waypoint(0)

    def test_mode_categories_match_table4(self):
        assert OperatingModeLabel.mode_category("takeoff") == "takeoff"
        assert OperatingModeLabel.mode_category("waypoint-2") == "waypoint"
        assert OperatingModeLabel.mode_category("rtl") == "land"
        assert OperatingModeLabel.mode_category("land") == "land"
        assert OperatingModeLabel.mode_category("poshold") == "manual"


def fail_from(suite, sensor_id, start):
    """Fail ``sensor_id``'s reads from ``start`` on through the hook."""
    suite.instrument(lambda _, time: time >= start, {sensor_id})


class TestEstimator:
    def make_estimator(self):
        suite = iris_sensor_suite()
        return suite, StateEstimator(suite, FirmwareParameters())

    def run_estimator(self, suite, estimator, state, steps=50, dt=0.02, start=0.0):
        events = []
        for index in range(steps):
            time = start + index * dt
            readings = suite.read_all(state, time)
            _, new_events = estimator.update(readings, dt, time)
            events.extend(new_events)
        return events

    def test_tracks_static_state(self):
        suite, estimator = self.make_estimator()
        state = VehicleState(position=(2.0, -3.0, 12.0), attitude=AttitudeState(yaw=0.4))
        self.run_estimator(suite, estimator, state, steps=200)
        estimate = estimator.estimate
        assert estimate.altitude == pytest.approx(12.0, abs=1.0)
        assert estimate.north == pytest.approx(2.0, abs=1.5)
        assert estimate.east == pytest.approx(-3.0, abs=1.5)
        assert estimate.yaw == pytest.approx(0.4, abs=0.1)

    def test_reports_failure_events_with_roles(self):
        suite, estimator = self.make_estimator()
        state = VehicleState(position=(0.0, 0.0, 10.0))
        self.run_estimator(suite, estimator, state, steps=5)
        fail_from(suite, SensorId(SensorType.COMPASS, 0), 1.0)
        events = self.run_estimator(suite, estimator, state, steps=5, start=1.0)
        assert len(events) == 1
        assert events[0].sensor_id == SensorId(SensorType.COMPASS, 0)
        assert events[0].was_active_instance
        assert not events[0].type_exhausted

    def test_altitude_falls_back_to_gps_when_baro_fails(self):
        suite, estimator = self.make_estimator()
        state = VehicleState(position=(0.0, 0.0, 15.0))
        self.run_estimator(suite, estimator, state, steps=50)
        fail_from(suite, SensorId(SensorType.BAROMETER, 0), 2.0)
        self.run_estimator(suite, estimator, state, steps=50, start=2.0)
        assert estimator.status.altitude_source == "gps"
        assert estimator.estimate.altitude == pytest.approx(15.0, abs=3.0)

    def test_position_invalid_after_gps_loss(self):
        suite, estimator = self.make_estimator()
        state = VehicleState(position=(5.0, 5.0, 15.0))
        self.run_estimator(suite, estimator, state, steps=50)
        fail_from(suite, SensorId(SensorType.GPS, 0), 2.0)
        self.run_estimator(suite, estimator, state, steps=200, start=2.0)
        assert not estimator.status.position_valid
        assert SensorType.GPS in estimator.status.failed_types


class TestArming:
    def test_prearm_requires_healthy_sensors(self):
        arming = ArmingController(FirmwareParameters())
        healthy = EstimatorStatus(
            healthy_types=frozenset(SensorType), failed_types=frozenset()
        )
        assert arming.request_arm(healthy, 1.0).allowed
        assert arming.armed

    def test_prearm_refuses_without_gps(self):
        arming = ArmingController(FirmwareParameters())
        status = EstimatorStatus(
            healthy_types=frozenset(set(SensorType) - {SensorType.GPS}),
            failed_types=frozenset({SensorType.GPS}),
        )
        decision = arming.request_arm(status, 1.0)
        assert not decision.allowed
        assert "GPS" in decision.reason_text

    def test_disarm_refused_in_flight(self):
        arming = ArmingController(FirmwareParameters())
        healthy = EstimatorStatus(healthy_types=frozenset(SensorType))
        arming.request_arm(healthy, 1.0)
        assert not arming.request_disarm(airborne=True).allowed
        assert arming.request_disarm(airborne=False).allowed


class TestFailsafeManager:
    def make_event(self, sensor_type, exhausted=True, active=True, time=5.0):
        from repro.firmware.estimator import SensorFailureEvent

        return SensorFailureEvent(
            sensor_id=SensorId(sensor_type, 0),
            time=time,
            was_active_instance=active,
            type_exhausted=exhausted,
        )

    def healthy_status(self):
        return EstimatorStatus(healthy_types=frozenset(SensorType), position_valid=True)

    def test_backup_failure_continues(self):
        manager = FailsafeManager(FirmwareParameters())
        event = self.make_event(SensorType.GYROSCOPE, exhausted=False)
        decision = manager.handle_sensor_failure(
            event, self.healthy_status(), FlightMode.AUTO, airborne=True
        )
        assert decision.action == FailsafeAction.CONTINUE_DEGRADED

    def test_gps_loss_in_flight_lands(self):
        manager = FailsafeManager(FirmwareParameters())
        decision = manager.handle_sensor_failure(
            self.make_event(SensorType.GPS),
            self.healthy_status(),
            FlightMode.AUTO,
            airborne=True,
        )
        assert decision.action == FailsafeAction.LAND

    def test_failure_on_ground_disarms(self):
        manager = FailsafeManager(FirmwareParameters())
        decision = manager.handle_sensor_failure(
            self.make_event(SensorType.GPS),
            self.healthy_status(),
            FlightMode.PREFLIGHT,
            airborne=False,
        )
        assert decision.action == FailsafeAction.DISARM

    def test_baro_loss_with_gps_continues_degraded(self):
        manager = FailsafeManager(FirmwareParameters())
        decision = manager.handle_sensor_failure(
            self.make_event(SensorType.BAROMETER),
            self.healthy_status(),
            FlightMode.AUTO,
            airborne=True,
        )
        assert decision.action == FailsafeAction.CONTINUE_DEGRADED

    def test_battery_failsafe_rtl_with_position(self):
        manager = FailsafeManager(FirmwareParameters())
        decision = manager.check_battery(0.1, self.healthy_status(), 10.0)
        assert decision is not None and decision.action == FailsafeAction.RTL
        # Fires only once.
        assert manager.check_battery(0.05, self.healthy_status(), 11.0) is None

    def test_battery_failsafe_lands_without_position(self):
        manager = FailsafeManager(FirmwareParameters())
        status = EstimatorStatus(healthy_types=frozenset(SensorType), position_valid=False)
        decision = manager.check_battery(0.1, status, 10.0)
        assert decision.action == FailsafeAction.LAND

    def test_fence_failsafe_rtl_once(self):
        manager = FailsafeManager(FirmwareParameters())
        decision = manager.check_fence(True, 12.0)
        assert decision.action == FailsafeAction.RTL
        assert manager.check_fence(True, 13.0) is None


class TestNavigationStack:
    def make_stack(self):
        return NavigationStack(FirmwareParameters(), IRIS_QUADCOPTER)

    def test_climb_command_when_below_target(self):
        stack = self.make_stack()
        estimate = StateEstimate(altitude=5.0)
        command = stack.update(estimate, NavigationSetpoint(target_altitude=20.0))
        assert command.throttle > IRIS_QUADCOPTER.hover_throttle

    def test_descend_command_when_above_target(self):
        stack = self.make_stack()
        estimate = StateEstimate(altitude=30.0)
        command = stack.update(estimate, NavigationSetpoint(target_altitude=20.0))
        assert command.throttle < IRIS_QUADCOPTER.hover_throttle

    def test_pitch_toward_north_target(self):
        stack = self.make_stack()
        estimate = StateEstimate(north=0.0, east=0.0, yaw=0.0, altitude=20.0)
        command = stack.update(
            estimate, NavigationSetpoint(target_north=50.0, target_east=0.0, target_altitude=20.0)
        )
        assert command.pitch > 0.05
        assert abs(command.roll) < 0.05

    def test_tilt_respects_airframe_limit(self):
        stack = self.make_stack()
        estimate = StateEstimate(north=0.0, east=0.0, altitude=20.0)
        command = stack.update(
            estimate, NavigationSetpoint(target_north=500.0, target_east=500.0)
        )
        assert abs(command.pitch) <= IRIS_QUADCOPTER.max_tilt_rad
        assert abs(command.roll) <= IRIS_QUADCOPTER.max_tilt_rad

    def test_yaw_rate_toward_target_heading(self):
        stack = self.make_stack()
        estimate = StateEstimate(yaw=0.0)
        command = stack.update(estimate, NavigationSetpoint(target_yaw=1.0))
        assert command.yaw_rate > 0.0

    def test_direct_climb_rate_setpoint(self):
        stack = self.make_stack()
        estimate = StateEstimate(altitude=10.0, climb_rate=0.0)
        climb = stack.altitude.climb_rate_command(
            estimate, NavigationSetpoint(climb_rate=-10.0)
        )
        assert climb == pytest.approx(-IRIS_QUADCOPTER.max_descent_rate_ms)


class TestMissionExecutor:
    def make_executor(self):
        return MissionExecutor(FirmwareParameters(), GeoLocation())

    def test_takeoff_then_waypoint_then_complete(self):
        executor = self.make_executor()
        home = GeoLocation()
        target = home.offset(10.0, 0.0)
        plan = MissionPlan(
            items=[
                mission_item(0, MavCommand.NAV_TAKEOFF, altitude=10.0),
                mission_item(
                    1,
                    MavCommand.NAV_WAYPOINT,
                    latitude=target.latitude_deg,
                    longitude=target.longitude_deg,
                    altitude=10.0,
                ),
            ]
        )
        executor.load(plan)
        low = StateEstimate(altitude=0.0)
        step = executor.step(low)
        assert step.kind == "takeoff"
        at_altitude = StateEstimate(altitude=10.0)
        step = executor.step(at_altitude)
        assert step.kind == "waypoint"
        assert step.waypoint_index == 1
        assert step.target_north == pytest.approx(10.0, abs=0.1)
        at_waypoint = StateEstimate(north=10.0, east=0.0, altitude=10.0)
        step = executor.step(at_waypoint)
        assert step.kind == "complete"
        assert executor.complete
        assert executor.reached_items == [0, 1]

    def test_rtl_and_land_items_hand_over(self):
        executor = self.make_executor()
        plan = MissionPlan(
            items=[
                mission_item(0, MavCommand.NAV_RETURN_TO_LAUNCH),
                mission_item(1, MavCommand.NAV_LAND),
            ]
        )
        executor.load(plan)
        step = executor.step(StateEstimate(altitude=20.0))
        assert step.kind == "rtl"

    def test_no_plan_is_complete(self):
        executor = self.make_executor()
        assert executor.step(StateEstimate()).kind == "complete"
        assert not executor.has_plan


class TestBugEffectEngine:
    def test_freeze_and_offset_applied_to_copy_each_step(self):
        registry = BugRegistry(ARDUPILOT_LATENT_BUGS)
        descriptor = registry.descriptor("APM-16682")
        engine = BugEffectEngine()
        estimate = StateEstimate(north=1.0, east=2.0, altitude=2.0)
        engine.activate(descriptor, estimate, time=10.0)
        corrupted = engine.corrupt_estimate(estimate.copy())
        assert corrupted.altitude == pytest.approx(22.0)
        # Applying to a fresh copy again must not compound the offset.
        corrupted = engine.corrupt_estimate(estimate.copy())
        assert corrupted.altitude == pytest.approx(22.0)

    def test_activation_is_idempotent(self):
        registry = BugRegistry(ARDUPILOT_LATENT_BUGS)
        descriptor = registry.descriptor("APM-16020")
        assert descriptor.effect.freeze_horizontal
        engine = BugEffectEngine()
        engine.activate(descriptor, StateEstimate(north=4.0), 5.0)
        engine.activate(descriptor, StateEstimate(north=9.0), 6.0)
        # The second activation neither replaces nor stacks on the first.
        assert engine.corrupt_estimate(StateEstimate(north=0.0)).north == 4.0

    def test_forced_mode_after_delay(self):
        registry = BugRegistry(ARDUPILOT_LATENT_BUGS)
        descriptor = registry.descriptor("APM-16021")
        engine = BugEffectEngine()
        estimate = StateEstimate(altitude=18.0)
        engine.activate(descriptor, estimate, time=10.0)
        early = engine.overrides(estimate, airborne=True, time=11.0)
        assert early.forced_mode is None
        late = engine.overrides(estimate, airborne=True, time=16.0)
        assert late.forced_mode == FlightMode.LAND

    def test_throttle_cut_latches(self):
        registry = BugRegistry(ARDUPILOT_LATENT_BUGS)
        descriptor = registry.descriptor("APM-16953")
        engine = BugEffectEngine()
        low = StateEstimate(altitude=5.0)
        engine.activate(descriptor, low, time=10.0)
        first = engine.overrides(low, airborne=True, time=10.5)
        assert first.throttle_override == 0.0
        higher = StateEstimate(altitude=9.0)
        second = engine.overrides(higher, airborne=True, time=11.0)
        assert second.throttle_override == 0.0
