"""Unit tests for the firmware's building blocks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.firmware.arming import ArmingController
from repro.firmware.effects import BugEffectEngine, EffectOverrides
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
from repro.sim.physics import GRAVITY
from repro.sim.state import AttitudeState, VehicleState, wrap_angle
from repro.sim.vehicle import IRIS_QUADCOPTER, SOLO_QUADCOPTER


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


def reference_cascade(params, airframe, estimate, setpoint):
    """The three-controller cascade (position, altitude, yaw) the inline
    ``NavigationStack.update`` replaced, kept verbatim as its reference.
    Returns ``(roll, pitch, yaw_rate, throttle)``."""

    def clamp(value, low, high):
        return min(max(value, low), high)

    # Position: position -> velocity -> acceleration -> lean angles.
    speed_limit = (
        setpoint.speed_limit
        if setpoint.speed_limit is not None
        else airframe.max_horizontal_speed_ms
    )
    if setpoint.target_north is None or setpoint.target_east is None:
        vel_cmd_north, vel_cmd_east = 0.0, 0.0
    else:
        error_north = setpoint.target_north - estimate.north
        error_east = setpoint.target_east - estimate.east
        vel_cmd_north = params.position_p * error_north
        vel_cmd_east = params.position_p * error_east
        speed = math.hypot(vel_cmd_north, vel_cmd_east)
        if speed > speed_limit and speed > 0.0:
            scale = speed_limit / speed
            vel_cmd_north *= scale
            vel_cmd_east *= scale
    accel_north = params.velocity_p * (vel_cmd_north - estimate.vel_north)
    accel_east = params.velocity_p * (vel_cmd_east - estimate.vel_east)
    accel_limit = params.max_horizontal_accel_ms2
    accel_north = clamp(accel_north, -accel_limit, accel_limit)
    accel_east = clamp(accel_east, -accel_limit, accel_limit)
    yaw = estimate.yaw
    accel_forward = accel_north * math.cos(yaw) + accel_east * math.sin(yaw)
    accel_right = -accel_north * math.sin(yaw) + accel_east * math.cos(yaw)
    max_tilt = airframe.max_tilt_rad
    pitch = clamp(accel_forward / GRAVITY, -max_tilt, max_tilt)
    roll = clamp(accel_right / GRAVITY, -max_tilt, max_tilt)

    # Altitude: altitude -> climb rate -> throttle.
    if setpoint.climb_rate is not None:
        climb_cmd = clamp(
            setpoint.climb_rate, -airframe.max_descent_rate_ms, airframe.max_climb_rate_ms
        )
    elif setpoint.target_altitude is None:
        climb_cmd = 0.0
    else:
        error = setpoint.target_altitude - estimate.altitude
        climb_cmd = clamp(
            params.altitude_p * error,
            -airframe.max_descent_rate_ms,
            airframe.max_climb_rate_ms,
        )
    throttle = airframe.hover_throttle + params.climb_rate_p * (
        climb_cmd - estimate.climb_rate
    )
    throttle = clamp(throttle, 0.0, 1.0)

    # Yaw: heading hold / heading tracking.
    if setpoint.target_yaw is None:
        yaw_rate = 0.0
    else:
        error = wrap_angle(setpoint.target_yaw - estimate.yaw)
        yaw_rate = clamp(
            params.yaw_p * error, -airframe.max_yaw_rate_rads, airframe.max_yaw_rate_rads
        )
    return roll, pitch, yaw_rate, throttle


def bits(values):
    """Exact float identity, signed zeros included."""
    return tuple(float(value).hex() for value in values)


coordinate = st.floats(min_value=-2000.0, max_value=2000.0, allow_nan=False)
rate = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
angle = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)


def optional(strategy):
    return st.one_of(st.none(), strategy)


class TestNavigationStack:
    def make_stack(self):
        return NavigationStack(FirmwareParameters(), IRIS_QUADCOPTER)

    def test_climb_command_when_below_target(self):
        stack = self.make_stack()
        estimate = StateEstimate(altitude=5.0)
        _, _, _, throttle = stack.update(estimate, NavigationSetpoint(target_altitude=20.0))
        assert throttle > IRIS_QUADCOPTER.hover_throttle

    def test_descend_command_when_above_target(self):
        stack = self.make_stack()
        estimate = StateEstimate(altitude=30.0)
        _, _, _, throttle = stack.update(estimate, NavigationSetpoint(target_altitude=20.0))
        assert throttle < IRIS_QUADCOPTER.hover_throttle

    def test_pitch_toward_north_target(self):
        stack = self.make_stack()
        estimate = StateEstimate(north=0.0, east=0.0, yaw=0.0, altitude=20.0)
        roll, pitch, _, _ = stack.update(
            estimate, NavigationSetpoint(target_north=50.0, target_east=0.0, target_altitude=20.0)
        )
        assert pitch > 0.05
        assert abs(roll) < 0.05

    def test_tilt_respects_airframe_limit(self):
        stack = self.make_stack()
        estimate = StateEstimate(north=0.0, east=0.0, altitude=20.0)
        roll, pitch, _, _ = stack.update(
            estimate, NavigationSetpoint(target_north=500.0, target_east=500.0)
        )
        assert abs(pitch) <= IRIS_QUADCOPTER.max_tilt_rad
        assert abs(roll) <= IRIS_QUADCOPTER.max_tilt_rad

    def test_yaw_rate_toward_target_heading(self):
        stack = self.make_stack()
        estimate = StateEstimate(yaw=0.0)
        _, _, yaw_rate, _ = stack.update(estimate, NavigationSetpoint(target_yaw=1.0))
        assert yaw_rate > 0.0

    def test_direct_climb_rate_setpoint(self):
        """A direct climb rate beyond the airframe's descent limit is
        clamped to it before the throttle loop sees it."""
        stack = self.make_stack()
        params = FirmwareParameters()
        estimate = StateEstimate(altitude=10.0, climb_rate=0.0)
        _, _, _, throttle = stack.update(estimate, NavigationSetpoint(climb_rate=-10.0))
        clamped = IRIS_QUADCOPTER.hover_throttle + params.climb_rate_p * (
            -IRIS_QUADCOPTER.max_descent_rate_ms - 0.0
        )
        assert throttle == pytest.approx(clamped)
        assert throttle > IRIS_QUADCOPTER.hover_throttle + params.climb_rate_p * -10.0

    @settings(max_examples=400, deadline=None)
    @given(
        north=coordinate,
        east=coordinate,
        altitude=coordinate,
        vel_north=rate,
        vel_east=rate,
        climb_rate=rate,
        yaw=angle,
        target_north=optional(coordinate),
        target_east=optional(coordinate),
        target_altitude=optional(coordinate),
        setpoint_climb_rate=optional(st.floats(-12.0, 12.0)),
        target_yaw=optional(angle),
        speed_limit=optional(st.one_of(st.just(0.0), st.floats(0.0, 30.0))),
    )
    def test_cascade_matches_the_three_controller_reference(
        self,
        north,
        east,
        altitude,
        vel_north,
        vel_east,
        climb_rate,
        yaw,
        target_north,
        target_east,
        target_altitude,
        setpoint_climb_rate,
        target_yaw,
        speed_limit,
    ):
        params = FirmwareParameters()
        estimate = StateEstimate(
            north=north,
            east=east,
            altitude=altitude,
            vel_north=vel_north,
            vel_east=vel_east,
            climb_rate=climb_rate,
            yaw=yaw,
        )
        setpoint = NavigationSetpoint(
            target_north=target_north,
            target_east=target_east,
            target_altitude=target_altitude,
            climb_rate=setpoint_climb_rate,
            target_yaw=target_yaw,
            speed_limit=speed_limit,
        )
        for airframe in (IRIS_QUADCOPTER, SOLO_QUADCOPTER):
            stack = NavigationStack(params, airframe)
            assert bits(stack.update(estimate, setpoint)) == bits(
                reference_cascade(params, airframe, estimate, setpoint)
            )


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

    def test_no_active_effect_shares_one_read_only_override_set(self):
        engine = BugEffectEngine()
        estimate = StateEstimate(altitude=5.0)
        assert not engine.active
        first = engine.overrides(estimate, airborne=True, time=1.0)
        assert first is engine.overrides(estimate, airborne=False, time=2.0)
        assert first == EffectOverrides()
        with pytest.raises(AttributeError):
            first.throttle_override = 0.0
        engine.activate(BugRegistry(ARDUPILOT_LATENT_BUGS).descriptor("APM-16953"), estimate, 3.0)
        assert engine.active
        assert engine.overrides(estimate, airborne=True, time=4.0).throttle_override == 0.0
        assert EffectOverrides().throttle_override is None

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
