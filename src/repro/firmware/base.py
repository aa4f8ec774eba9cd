"""The control firmware: mode state machine tying every component together.

:class:`ControlFirmware` is the Python stand-in for ArduPilot / PX4.  One
instance is provisioned per test run (as in the paper).  Every control
period it:

1. processes MAVLink traffic from the ground-control station,
2. fuses the sensor readings into a state estimate (with fail-over),
3. routes new sensor failures through the fail-safe manager *and* the bug
   registry -- a matching bug replaces the correct handling with the
   mishandling encoded in its effect script,
4. runs the active flight mode's logic to produce a navigation setpoint,
5. runs the cascaded controllers and emits an actuator command, and
6. reports operating-mode transitions through the hinj interface.

The firmware never sees the simulator's ground-truth state; everything it
does is driven by its own (possibly corrupted) estimate, which is what
makes the bug manifestations honest.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.firmware.arming import ArmingController, ArmingDecision
from repro.firmware.bugs import BugRegistry
from repro.firmware.effects import BugEffectEngine, EffectOverrides
from repro.firmware.estimator import (
    Channels,
    SensorFailureEvent,
    StateEstimate,
    StateEstimator,
)
from repro.firmware.failsafe import FailsafeAction, FailsafeEvent, FailsafeManager
from repro.firmware.mission_exec import MissionExecutor, MissionStep
from repro.firmware.modes import (
    ARDUPILOT_MODE_NAMES,
    FlightMode,
    OperatingModeLabel,
    resolve_mode_name,
)
from repro.firmware.navigation import NavigationSetpoint, NavigationStack
from repro.firmware.params import FirmwareParameters
from repro.firmware.telemetry import FirmwareMavlinkHandler
from repro.hinj.instrumentation import HinjInterface
from repro.mavlink.link import MavLink
from repro.mavlink.mission import MissionPlan
from repro.sensors.base import SensorType
from repro.sensors.suite import SensorSuite
from repro.sim.environment import Environment, GeoLocation, default_environment
from repro.sim.physics import ActuatorCommand
from repro.sim.vehicle import IRIS_QUADCOPTER, AirframeParameters

#: The setpoint of a mode that commands nothing (pre-flight, landed).
_NO_SETPOINT = NavigationSetpoint()


class ControlFirmware:
    """A generic multicopter firmware; flavours specialise naming and bugs."""

    #: Flavour name ("ardupilot" or "px4" for the shipped flavours).
    name = "generic"
    #: Table mapping SET_MODE strings to flight modes for this flavour.
    mode_name_table: Dict[str, FlightMode] = ARDUPILOT_MODE_NAMES

    def __init__(
        self,
        suite: SensorSuite,
        airframe: AirframeParameters = IRIS_QUADCOPTER,
        params: Optional[FirmwareParameters] = None,
        environment: Optional[Environment] = None,
        link: Optional[MavLink] = None,
        hinj: Optional[HinjInterface] = None,
        bug_registry: Optional[BugRegistry] = None,
        dt: float = 0.02,
        initial_hold_point: Tuple[float, float] = (0.0, 0.0),
    ) -> None:
        self.suite = suite
        self.airframe = airframe
        self.params = params if params is not None else FirmwareParameters()
        self.environment = environment if environment is not None else default_environment()
        self.dt = dt

        self._estimator = StateEstimator(suite, self.params)
        self._battery_positions = suite.positions(SensorType.BATTERY)
        self._navigation = NavigationStack(self.params, airframe)
        self._failsafe = FailsafeManager(self.params)
        self._arming = ArmingController(self.params)
        self._mission = MissionExecutor(self.params, self.environment.home)
        # The current waypoint leg's step and its operating-mode label.
        self._leg_step: Optional[MissionStep] = None
        self._leg_label = ""
        self._effects = BugEffectEngine()
        self._bugs = bug_registry if bug_registry is not None else BugRegistry()
        self._hinj = hinj

        self._link = link
        self._mavlink = (
            FirmwareMavlinkHandler(self, link, self.params) if link is not None else None
        )

        self._flight_mode = FlightMode.PREFLIGHT
        self._operating_label = OperatingModeLabel.PREFLIGHT
        # When the current operating label was entered; hinj keeps the
        # full transition log.
        self._label_since = 0.0
        self._post_takeoff_mode = FlightMode.GUIDED
        self._takeoff_target_altitude: Optional[float] = None
        # Fleet members launch from offset pads; the hold point must start
        # at the pad or a guided takeoff would drag the vehicle toward the
        # shared home.  The default is the classic single-vehicle origin.
        self._hold_point: Tuple[float, float] = tuple(initial_hold_point)
        self._hold_altitude: float = 0.0
        self._guided_target: Optional[Tuple[float, float, float]] = None
        self._guided_speed_limit: Optional[float] = None
        # RTL runs "climb", then "return", then "descend".
        self._rtl_phase = "climb"
        self._landed_counter = 0
        self._elapsed_steps = 1
        self._process_alive = True
        self._pending_failsafe_mode: Optional[FlightMode] = None

        if self._hinj is not None:
            self._hinj.install(suite)
            self._hinj.update_mode(self._operating_label, 0.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def flight_mode(self) -> FlightMode:
        """The firmware's current internal flight mode."""
        return self._flight_mode

    @property
    def mode_display_name(self) -> str:
        """The flavour-specific display name of the current mode."""
        return self.mode_name_for(self._flight_mode)

    def mode_name_for(self, mode: FlightMode) -> str:
        """This flavour's SET_MODE string for ``mode``.

        The reverse lookup over :attr:`mode_name_table`; facades use it
        so every vehicle of a (possibly heterogeneous) fleet is
        commanded with its own flavour's mode names.
        """
        for name, value in self.mode_name_table.items():
            if value == mode:
                return name
        return mode.value.upper()

    @property
    def operating_mode_label(self) -> str:
        """The operating-mode label reported through hinj."""
        return self._operating_label

    @property
    def armed(self) -> bool:
        """True while motors are armed."""
        return self._arming.armed

    @property
    def estimate(self) -> StateEstimate:
        """The firmware's current state estimate."""
        return self._estimator.estimate

    @property
    def bug_registry(self) -> BugRegistry:
        """The bug registry for this firmware instance."""
        return self._bugs

    @property
    def failsafe_events(self) -> List[FailsafeEvent]:
        """Fail-safe decisions taken so far."""
        return self._failsafe.events

    @property
    def triggered_bug_ids(self) -> List[str]:
        """Bugs whose mishandling engaged during this run."""
        return self._bugs.triggered_bug_ids

    @property
    def process_alive(self) -> bool:
        """False once the firmware process has crashed."""
        return self._process_alive

    @property
    def home(self) -> GeoLocation:
        """The home (launch) location."""
        return self.environment.home

    @property
    def mission_current_seq(self) -> Optional[int]:
        """Sequence number of the mission item being executed, if any."""
        if not self._mission.has_plan:
            return None
        return self._mission.current_seq

    @property
    def mission_reached_items(self) -> List[int]:
        """Mission items completed so far."""
        return self._mission.reached_items

    # ------------------------------------------------------------------
    # Commands (called by the MAVLink handler or directly by tests)
    # ------------------------------------------------------------------
    def command_arm(self, time: float) -> ArmingDecision:
        """Arm the motors, subject to pre-arm checks."""
        decision = self._arming.request_arm(self._estimator.status, time)
        return decision

    def command_disarm(self) -> ArmingDecision:
        """Disarm the motors (refused while airborne)."""
        airborne = self.estimate.altitude > 0.5
        return self._arming.request_disarm(airborne)

    def command_takeoff(self, altitude: float, time: float) -> bool:
        """Guided takeoff to ``altitude`` metres above home."""
        if altitude <= 0.0 or not self._arming.armed:
            return False
        self._takeoff_target_altitude = altitude
        self._post_takeoff_mode = FlightMode.GUIDED
        self._guided_target = (self.estimate.north, self.estimate.east, altitude)
        self._set_flight_mode(FlightMode.TAKEOFF, time, "guided takeoff command")
        return True

    def command_rtl(self, time: float) -> None:
        """Switch to return-to-launch."""
        self._set_flight_mode(FlightMode.RTL, time, "RTL command")

    def command_land(self, time: float) -> None:
        """Switch to land."""
        self._set_flight_mode(FlightMode.LAND, time, "land command")

    def start_mission(self, time: float) -> bool:
        """Begin executing the uploaded mission (AUTO mode)."""
        if not self._mission.has_plan or not self._arming.armed:
            return False
        self._set_flight_mode(FlightMode.AUTO, time, "mission start")
        return True

    def set_mode_by_name(self, name: str, time: float) -> bool:
        """Handle a SET_MODE request using the flavour's mode table."""
        mode = resolve_mode_name(name, self.mode_name_table)
        if mode is None:
            return False
        if mode == FlightMode.AUTO and not self._mission.has_plan:
            return False
        # Stunt / race modes (UNTESTED_MODES) relax safety guarantees; they
        # are accepted like any other mode, but the workloads never request
        # them (Section IV-A of the paper).
        self._set_flight_mode(mode, time, f"pilot mode change to {name}")
        return True

    def load_mission(self, plan: MissionPlan) -> None:
        """Install an uploaded mission plan."""
        self._mission.load(plan)

    def set_guided_target(
        self,
        north: float,
        east: float,
        altitude: float,
        speed_limit: Optional[float] = None,
    ) -> None:
        """Set the guided-mode target (offsets from home, metres).

        ``speed_limit`` optionally caps the horizontal approach speed
        (m/s), like a DO_CHANGE_SPEED alongside the reposition; None
        keeps the airframe's full envelope.
        """
        self._guided_target = (north, east, altitude)
        self._guided_speed_limit = speed_limit

    # ------------------------------------------------------------------
    # Mode management
    # ------------------------------------------------------------------
    def _set_flight_mode(self, mode: FlightMode, time: float, reason: str) -> None:
        if mode == self._flight_mode:
            return
        self._flight_mode = mode
        estimate = self.estimate
        if mode in (FlightMode.LOITER, FlightMode.POSHOLD, FlightMode.ALT_HOLD, FlightMode.STABILIZE):
            self._hold_point = (estimate.north, estimate.east)
            self._hold_altitude = estimate.altitude
        if mode == FlightMode.LAND:
            self._hold_point = (estimate.north, estimate.east)
            self._landed_counter = 0
        if mode == FlightMode.RTL:
            self._rtl_phase = "climb"
        if self._mavlink is not None:
            self._mavlink.send_status_text("info", f"mode changed to {mode.value}: {reason}")

    def _set_operating_label(self, label: str, time: float) -> None:
        if label == self._operating_label:
            return
        self._operating_label = label
        self._label_since = time
        if self._hinj is not None:
            self._hinj.update_mode(label, time)

    # ------------------------------------------------------------------
    # The control period
    # ------------------------------------------------------------------
    def update(
        self,
        readings: List[Optional[Channels]],
        time: float,
        elapsed_steps: int = 1,
    ) -> ActuatorCommand:
        """Run one control period and return the actuator command.

        ``readings`` is this period's read pass over the suite
        (:meth:`SensorSuite.read_all`), in canonical order: ``None``
        where a read failed, the reading tuple of the first instance of
        each type that read (primary first), ``UNREAD`` elsewhere.
        ``elapsed_steps`` is the number of simulation micro-steps since
        the previous control period (1 under the reference stepper).
        The adaptive stepper fuses quiescent windows -- one control
        period covering several physics steps -- and reports the window
        length here so dead-reckoning stays time-consistent: the
        estimator integrates over the elapsed seconds and time-counted
        conditions (the landed-settle counter) advance by the elapsed
        steps.
        """
        if not self._process_alive:
            return ActuatorCommand(armed=False)

        if self._mavlink is not None:
            self._mavlink.process_incoming(time)

        self._elapsed_steps = elapsed_steps
        # ``dt * 1`` is exactly ``dt``, so reference-stepper arithmetic
        # is bit-for-bit unchanged.
        estimate, failure_events = self._estimator.update(
            readings, self.dt * elapsed_steps, time
        )
        airborne = estimate.altitude > 0.3 and self._arming.armed

        for event in failure_events:
            self._handle_sensor_failure(event, airborne, time)
        self._check_battery(readings, time)
        self._check_fence(estimate, time)

        # The buggy handlers corrupt the *control view* of the estimate
        # (what the navigation code believes), not the filter's internal
        # state -- a constant altitude-reference error stays constant.
        # With no effect active the view is the filter's estimate itself;
        # nothing below writes to it.
        effects = self._effects
        if effects.active:
            estimate = effects.corrupt_estimate(estimate.copy())
        overrides = effects.overrides(estimate, airborne, time)
        if self._pending_failsafe_mode is not None:
            self._set_flight_mode(self._pending_failsafe_mode, time, "failsafe")
            self._pending_failsafe_mode = None
        if overrides.forced_mode is not None:
            # A buggy handler's (wrong) fail-safe decision wins over the
            # correct one taken for a different, concurrently failed sensor.
            self._set_flight_mode(overrides.forced_mode, time, "fault-handling response")

        setpoint, label = self._mode_logic(estimate, overrides, time)
        roll, pitch, yaw_rate, throttle = self._navigation.update(estimate, setpoint)

        if overrides.block_takeoff and label in (
            OperatingModeLabel.TAKEOFF,
            OperatingModeLabel.PREFLIGHT,
        ):
            throttle = min(throttle, 0.3)
        if overrides.throttle_override is not None:
            throttle = overrides.throttle_override
        if not self._arming.armed:
            throttle = 0.0

        self._set_operating_label(label, time)
        if self._mavlink is not None:
            self._mavlink.send_telemetry(time)

        return ActuatorCommand(
            throttle=throttle,
            target_roll=roll,
            target_pitch=pitch,
            target_yaw_rate=yaw_rate,
            armed=self._arming.armed,
        )

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _handle_sensor_failure(
        self, event: SensorFailureEvent, airborne: bool, time: float
    ) -> None:
        sensor_type = event.sensor_id.sensor_type
        failed_types = frozenset(
            sensor_id.sensor_type for sensor_id in self.suite.failed_sensor_ids()
        )
        seconds_into_mode = time - self._label_since
        matches = self._bugs.match(
            sensor_type=sensor_type,
            mode_label=self._operating_label,
            altitude=self.estimate.altitude,
            failed_types=failed_types,
            was_active_instance=event.was_active_instance,
            seconds_into_mode=seconds_into_mode,
        )
        if matches:
            # The buggy handler runs instead of the correct fail-safe: this
            # is precisely the narrowly-tailored handling the paper blames.
            for descriptor in matches:
                self._effects.activate(descriptor, self.estimate, time)
                if self._mavlink is not None:
                    self._mavlink.send_status_text(
                        "warning", f"handling {sensor_type.value} failure"
                    )
            return

        decision = self._failsafe.handle_sensor_failure(
            event, self._estimator.status, self._flight_mode, airborne
        )
        self._apply_failsafe(decision)

    def _check_battery(self, readings: List[Optional[Channels]], time: float) -> None:
        for position in self._battery_positions:
            battery = readings[position]
            if battery is not None:
                break
        else:
            return
        (remaining,) = battery
        decision = self._failsafe.check_battery(remaining, self._estimator.status, time)
        if decision is not None:
            self._apply_failsafe(decision)

    def _check_fence(self, estimate: StateEstimate, time: float) -> None:
        if not self.params.fence_enabled or not self.environment.fences:
            return
        point = (estimate.north, estimate.east, estimate.altitude)
        breached = self.environment.breached_fence(point) is not None
        decision = self._failsafe.check_fence(breached, time)
        if decision is not None:
            self._apply_failsafe(decision)

    def _apply_failsafe(self, decision: FailsafeEvent) -> None:
        if decision.action == FailsafeAction.LAND:
            self._pending_failsafe_mode = FlightMode.LAND
        elif decision.action == FailsafeAction.RTL:
            self._pending_failsafe_mode = FlightMode.RTL
        elif decision.action == FailsafeAction.DISARM:
            # A critical sensor failed while the vehicle was still on the
            # ground: refuse to fly.  (Liveliness is deliberately
            # sacrificed; the invariant monitor excuses a disarmed vehicle
            # on the ground.)
            self._arming.force_disarm()
        if self._mavlink is not None:
            self._mavlink.send_status_text("critical", decision.describe())

    # ------------------------------------------------------------------
    # Flight-mode logic
    # ------------------------------------------------------------------
    def _mode_logic(
        self, estimate: StateEstimate, overrides: EffectOverrides, time: float
    ) -> Tuple[NavigationSetpoint, str]:
        mode = self._flight_mode
        if mode == FlightMode.PREFLIGHT:
            return _NO_SETPOINT, OperatingModeLabel.PREFLIGHT
        if mode == FlightMode.TAKEOFF:
            return self._takeoff_logic(estimate, overrides, time)
        if mode == FlightMode.AUTO:
            return self._auto_logic(estimate, overrides, time)
        if mode == FlightMode.GUIDED:
            return self._guided_logic(estimate)
        if mode in (FlightMode.LOITER, FlightMode.POSHOLD, FlightMode.ALT_HOLD, FlightMode.STABILIZE):
            label = (
                OperatingModeLabel.LOITER
                if mode == FlightMode.LOITER
                else OperatingModeLabel.POSHOLD
            )
            return (
                NavigationSetpoint(
                    target_north=self._hold_point[0],
                    target_east=self._hold_point[1],
                    target_altitude=self._hold_altitude,
                ),
                label,
            )
        if mode == FlightMode.LAND:
            return self._land_logic(estimate, time)
        if mode == FlightMode.RTL:
            return self._rtl_logic(estimate, time)
        # Stunt/race modes: hold attitude, pilot is trusted.
        return NavigationSetpoint(target_altitude=self._hold_altitude), OperatingModeLabel.POSHOLD

    def _takeoff_logic(
        self, estimate: StateEstimate, overrides: EffectOverrides, time: float
    ) -> Tuple[NavigationSetpoint, str]:
        target_altitude = self._takeoff_target_altitude or 0.0
        abort_altitude = overrides.abort_takeoff_at_altitude
        if abort_altitude is not None and estimate.altitude >= abort_altitude:
            # The buggy takeoff abort: hover where we are, never complete.
            return (
                NavigationSetpoint(
                    target_north=self._hold_point[0],
                    target_east=self._hold_point[1],
                    target_altitude=abort_altitude,
                ),
                OperatingModeLabel.TAKEOFF,
            )
        if estimate.altitude >= target_altitude - self.params.takeoff_altitude_tolerance_m:
            self._finish_takeoff(time)
            return self._mode_logic(estimate, overrides, time)
        return (
            NavigationSetpoint(
                target_north=self._hold_point[0],
                target_east=self._hold_point[1],
                climb_rate=self.params.takeoff_climb_rate_ms,
            ),
            OperatingModeLabel.TAKEOFF,
        )

    def _finish_takeoff(self, time: float) -> None:
        if self._mission.has_plan and self._post_takeoff_mode == FlightMode.AUTO:
            self._set_flight_mode(FlightMode.AUTO, time, "takeoff complete")
        else:
            self._hold_altitude = self._takeoff_target_altitude or self.estimate.altitude
            self._hold_point = (self.estimate.north, self.estimate.east)
            self._set_flight_mode(self._post_takeoff_mode, time, "takeoff complete")

    def _auto_logic(
        self, estimate: StateEstimate, overrides: EffectOverrides, time: float
    ) -> Tuple[NavigationSetpoint, str]:
        step = self._mission.step(estimate)
        if step.kind == "takeoff":
            self._takeoff_target_altitude = step.target_altitude
            self._post_takeoff_mode = FlightMode.AUTO
            self._hold_point = (estimate.north, estimate.east)
            return self._takeoff_step_in_auto(estimate, overrides, step)
        if step.kind == "waypoint":
            yaw_target = self._bearing_to(estimate, step.target_north, step.target_east)
            # The executor hands out one step per leg: label it once.
            if step is not self._leg_step:
                self._leg_step = step
                self._leg_label = OperatingModeLabel.waypoint(step.waypoint_index or 1)
            label = self._leg_label
            return (
                NavigationSetpoint(
                    target_north=step.target_north,
                    target_east=step.target_east,
                    target_altitude=step.target_altitude,
                    target_yaw=yaw_target,
                    speed_limit=self.params.waypoint_speed_ms,
                ),
                label,
            )
        if step.kind == "rtl":
            self._set_flight_mode(FlightMode.RTL, time, "mission RTL item")
            return self._rtl_logic(estimate, time)
        if step.kind == "land":
            self._set_flight_mode(FlightMode.LAND, time, "mission land item")
            return self._land_logic(estimate, time)
        # Mission complete: hold position.
        self._hold_point = (estimate.north, estimate.east)
        self._hold_altitude = estimate.altitude
        self._set_flight_mode(FlightMode.LOITER, time, "mission complete")
        return (
            NavigationSetpoint(
                target_north=self._hold_point[0],
                target_east=self._hold_point[1],
                target_altitude=self._hold_altitude,
            ),
            OperatingModeLabel.LOITER,
        )

    def _takeoff_step_in_auto(
        self, estimate: StateEstimate, overrides: EffectOverrides, step: MissionStep
    ) -> Tuple[NavigationSetpoint, str]:
        abort_altitude = overrides.abort_takeoff_at_altitude
        if abort_altitude is not None and estimate.altitude >= abort_altitude:
            return (
                NavigationSetpoint(
                    target_north=self._hold_point[0],
                    target_east=self._hold_point[1],
                    target_altitude=abort_altitude,
                ),
                OperatingModeLabel.TAKEOFF,
            )
        return (
            NavigationSetpoint(
                target_north=self._hold_point[0],
                target_east=self._hold_point[1],
                climb_rate=self.params.takeoff_climb_rate_ms,
            ),
            OperatingModeLabel.TAKEOFF,
        )

    def _guided_logic(self, estimate: StateEstimate) -> Tuple[NavigationSetpoint, str]:
        if self._guided_target is None:
            return (
                NavigationSetpoint(
                    target_north=estimate.north,
                    target_east=estimate.east,
                    target_altitude=estimate.altitude,
                ),
                OperatingModeLabel.GUIDED,
            )
        north, east, altitude = self._guided_target
        yaw_target = self._bearing_to(estimate, north, east)
        return (
            NavigationSetpoint(
                target_north=north,
                target_east=east,
                target_altitude=altitude,
                target_yaw=yaw_target,
                speed_limit=self._guided_speed_limit,
            ),
            OperatingModeLabel.GUIDED,
        )

    def _land_logic(self, estimate: StateEstimate, time: float) -> Tuple[NavigationSetpoint, str]:
        if estimate.altitude > self.params.land_final_altitude_m:
            descent = self.params.land_speed_high_ms
        else:
            descent = self.params.land_speed_final_ms
        setpoint = NavigationSetpoint(
            target_north=self._hold_point[0],
            target_east=self._hold_point[1],
            climb_rate=-descent,
        )
        if estimate.altitude < 0.3 and abs(estimate.climb_rate) < 0.3:
            # A fused control period covers elapsed_steps of settling.
            self._landed_counter += self._elapsed_steps
        else:
            self._landed_counter = 0
        if self._landed_counter * self.dt >= 1.0:
            self._arming.force_disarm()
            self._set_flight_mode(FlightMode.PREFLIGHT, time, "landed and disarmed")
            return _NO_SETPOINT, OperatingModeLabel.LANDED
        return setpoint, OperatingModeLabel.LAND

    def _rtl_logic(self, estimate: StateEstimate, time: float) -> Tuple[NavigationSetpoint, str]:
        rtl_altitude = max(self.params.rtl_altitude_m, estimate.altitude)
        if self._rtl_phase == "climb":
            if estimate.altitude >= rtl_altitude - 1.0:
                self._rtl_phase = "return"
            return (
                NavigationSetpoint(
                    target_north=estimate.north,
                    target_east=estimate.east,
                    target_altitude=rtl_altitude,
                ),
                OperatingModeLabel.RTL,
            )
        if self._rtl_phase == "return":
            distance_home = math.hypot(estimate.north, estimate.east)
            if distance_home <= self.params.waypoint_radius_m:
                self._rtl_phase = "descend"
                self._hold_point = (0.0, 0.0)
            yaw_target = self._bearing_to(estimate, 0.0, 0.0)
            return (
                NavigationSetpoint(
                    target_north=0.0,
                    target_east=0.0,
                    target_altitude=rtl_altitude,
                    target_yaw=yaw_target,
                    speed_limit=self.params.waypoint_speed_ms,
                ),
                OperatingModeLabel.RTL,
            )
        # The "descend" phase: descend over the launch point; hand over to
        # the land mode for the final approach (the "Return To Launch ->
        # Land" transition of Table II happens here).
        if estimate.altitude <= self.params.land_final_altitude_m:
            self._set_flight_mode(FlightMode.LAND, time, "RTL final approach")
            return self._land_logic(estimate, time)
        return (
            NavigationSetpoint(
                target_north=0.0,
                target_east=0.0,
                climb_rate=-self.params.land_speed_high_ms,
            ),
            OperatingModeLabel.RTL,
        )

    @staticmethod
    def _bearing_to(estimate: StateEstimate, north: Optional[float], east: Optional[float]) -> Optional[float]:
        if north is None or east is None:
            return None
        d_north = north - estimate.north
        d_east = east - estimate.east
        if math.hypot(d_north, d_east) < 3.0:
            return None
        return math.atan2(d_east, d_north)

