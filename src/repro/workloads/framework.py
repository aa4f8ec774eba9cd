"""The high-level workload framework (the paper's Figure 8 API).

Workloads subclass :class:`Target` and implement :meth:`Target.test`
using the framework's high-level calls.  The calls ultimately boil down
to the ``step()`` RPC of Figure 7: every wait loops over ``step()`` until
its condition holds or a timeout expires, so the simulation, fault
injection and invariant monitoring all advance in lock-step with the
workload.

The harness object a workload runs against is provided by Avis's test
runner (:mod:`repro.core.runner`); the framework only relies on the small
interface documented on :class:`Target`.

A run ends in one of five ways:

* **max sim time** -- the harness's ``max_sim_time_s`` budget runs out
  mid-workload (``BUDGET_EXHAUSTED``);
* **crash** -- the simulator records a collision, or a firmware process
  dies, and the harness aborts (``BUDGET_EXHAUSTED``);
* **online violation** -- the invariant monitor flags a trace sample
  while the run executes and the harness aborts (``BUDGET_EXHAUSTED``);
* **workload timeout** -- a wait's condition stays false for its whole
  timeout (``TIMEOUT``);
* **parked exit** -- a wait after the arming handshake finds every
  vehicle disarmed on the ground with no fault left to inject or
  recover (``FAILED``, "vehicle disarmed on the ground while waiting
  for ..."): nothing the run could still record would change its
  verdict, so it stops instead of waiting out the timeout.

Otherwise the workload finishes its body (``PASSED`` once it called
:meth:`Target.pass_test`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.mavlink.messages import MavCommand, MissionItem
from repro.mavlink.mission import MissionPlan, mission_item


class WorkloadError(Exception):
    """Base class for workload-level failures."""


class WorkloadTimeout(WorkloadError):
    """A wait condition did not become true within its timeout."""


class WorkloadFailure(WorkloadError):
    """The workload itself decided the test failed."""


class SimulationBudgetExhausted(WorkloadError):
    """The harness's maximum simulated time was reached mid-workload."""


class WorkloadOutcome(enum.Enum):
    """How a workload execution ended."""

    PASSED = "passed"
    FAILED = "failed"
    TIMEOUT = "timeout"
    BUDGET_EXHAUSTED = "budget-exhausted"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class WorkloadResult:
    """Result of one workload execution."""

    outcome: WorkloadOutcome
    reason: str = ""
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when the workload reported success."""
        return self.outcome == WorkloadOutcome.PASSED


class Target:
    """Base class for workloads (named after the paper's framework class).

    Subclasses implement :meth:`test`.  Before :meth:`run` is called the
    framework binds the workload to a *harness* that provides:

    ``step(count)``
        Advance the lock-step simulation by ``count`` time-steps.
    ``dt``
        The simulation time-step in seconds.
    ``time``
        Current simulation time in seconds.
    ``gcs``
        The :class:`~repro.mavlink.gcs.GroundControlStation`.
    ``telemetry``
        The GCS's latest :class:`~repro.mavlink.gcs.TelemetrySnapshot`.
    ``home``
        The :class:`~repro.sim.environment.GeoLocation` of the launch point.
    ``auto_mode_name`` / ``position_hold_mode_name`` / ``land_mode_name``
        The flavour-specific SET_MODE strings (this is how the framework
        hides the ArduPilot/PX4 naming quirks).
    ``should_abort()``
        True when the harness wants the workload to stop early (for
        example because the invariant monitor already found a violation).
    ``parked()`` (optional)
        True when every vehicle is disarmed on the ground and no fault
        is left to inject or recover.  Harnesses without it never end a
        wait early.
    """

    #: Name used in reports; defaults to the class name.
    name: str = ""
    #: Default timeout for wait conditions, in simulated seconds.
    default_timeout_s: float = 90.0

    def __init__(self) -> None:
        self._harness = None
        self._passed = False
        # Set once an arm helper's handshake returned: only then can a
        # disarmed vehicle on the ground mean the flight is over.
        self._arming_done = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, harness) -> None:
        """Attach the workload to a harness before running."""
        self._harness = harness
        # Adaptive-stepper harnesses plan macro-steps around statically
        # known event boundaries; hand them the workload's scheduled
        # checkpoint times (a no-op for every other harness).
        register = getattr(harness, "add_planned_events", None)
        if register is not None:
            register(self.scheduled_event_times())

    def scheduled_event_times(self) -> tuple:
        """Simulated times (seconds) at which this workload acts on a
        schedule rather than on observed state.

        The adaptive stepper refines to the reference cadence around
        these, exactly as it does around fault windows.  Workloads whose
        actions are purely state-driven (every built-in one) return an
        empty tuple.
        """
        return ()

    def run(self) -> WorkloadResult:
        """Execute the workload and translate exceptions into a result."""
        if self._harness is None:
            raise RuntimeError("workload must be bound to a harness before running")
        start = self._harness.time
        try:
            self.test()
        except WorkloadTimeout as error:
            return WorkloadResult(
                outcome=WorkloadOutcome.TIMEOUT,
                reason=str(error),
                duration_s=self._harness.time - start,
            )
        except SimulationBudgetExhausted as error:
            return WorkloadResult(
                outcome=WorkloadOutcome.BUDGET_EXHAUSTED,
                reason=str(error),
                duration_s=self._harness.time - start,
            )
        except WorkloadFailure as error:
            return WorkloadResult(
                outcome=WorkloadOutcome.FAILED,
                reason=str(error),
                duration_s=self._harness.time - start,
            )
        outcome = WorkloadOutcome.PASSED if self._passed else WorkloadOutcome.FAILED
        reason = "" if self._passed else "workload finished without calling pass_test()"
        return WorkloadResult(
            outcome=outcome, reason=reason, duration_s=self._harness.time - start
        )

    def test(self) -> None:
        """The workload body; subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def display_name(self) -> str:
        """The workload's report name."""
        return self.name or type(self).__name__

    @property
    def cur_lati(self) -> float:
        """Current latitude reported by the vehicle (Figure 8 API)."""
        telemetry = self._harness.telemetry
        if telemetry.latitude:
            return telemetry.latitude
        return self._harness.home.latitude_deg

    @property
    def cur_longi(self) -> float:
        """Current longitude reported by the vehicle (Figure 8 API)."""
        telemetry = self._harness.telemetry
        if telemetry.longitude:
            return telemetry.longitude
        return self._harness.home.longitude_deg

    @property
    def home_alti(self) -> float:
        """Home altitude above mean sea level (Figure 8 API)."""
        return self._harness.home.altitude_msl_m

    @property
    def current_altitude(self) -> float:
        """The vehicle's reported altitude above home."""
        return self._harness.telemetry.relative_altitude

    # ------------------------------------------------------------------
    # Stepping and waiting
    # ------------------------------------------------------------------
    def step(self, count: int = 1) -> None:
        """Advance the simulation by ``count`` time-steps."""
        self._harness.step(count)
        if self._harness.should_abort():
            raise SimulationBudgetExhausted("harness requested early abort")

    def wait_time(self, milliseconds: float) -> None:
        """Let the simulation run for ``milliseconds`` of simulated time."""
        steps = max(int(milliseconds / 1000.0 / self._harness.dt), 1)
        self.step(steps)

    def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout_s: Optional[float] = None,
        description: str = "condition",
    ) -> None:
        """Step the simulation until ``predicate()`` holds.

        Raises :class:`WorkloadTimeout` if the condition is still false
        after ``timeout_s`` simulated seconds.  After the arming
        handshake, raises :class:`WorkloadFailure` at the first poll
        where the condition is false, every vehicle's telemetry reports
        disarmed and the harness reports every vehicle parked (see
        :meth:`SimulationHarness.parked
        <repro.core.runner.SimulationHarness.parked>`): the run could
        only step a vehicle at rest until the timeout, and nothing it
        recorded would change the verdict.
        """
        self._wait(predicate, timeout_s, description, parked_exit=self._arming_done)

    def _wait(
        self,
        predicate: Callable[[], bool],
        timeout_s: Optional[float],
        description: str,
        parked_exit: bool,
    ) -> None:
        """:meth:`wait_until`, with the parked exit on or off."""
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        deadline = self._harness.time + timeout
        # Reference harnesses poll every step (stride 1, the classic
        # loop); an adaptive harness reports its fused-window stride so
        # waiting polls once per macro-step instead.
        stride = getattr(self._harness, "wait_stride", None)
        parked = getattr(self._harness, "parked", None) if parked_exit else None
        while not predicate():
            if self._harness.time >= deadline:
                raise WorkloadTimeout(
                    f"timed out after {timeout:.0f}s waiting for {description}"
                )
            # A flying vehicle reports armed, so this costs one telemetry
            # read per poll until the fleet is on the ground.
            if parked is not None and self._telemetry_disarmed() and parked():
                raise WorkloadFailure(
                    f"vehicle disarmed on the ground while waiting for {description}"
                )
            self.step(stride() if stride is not None else 1)

    def _telemetry_disarmed(self) -> bool:
        """True when the workload's telemetry reports every vehicle disarmed."""
        return not self._harness.telemetry.armed

    # ------------------------------------------------------------------
    # Mission construction (Figure 8 helpers)
    # ------------------------------------------------------------------
    def takeoff_mission(
        self, altitude: float, latitude: float, longitude: float, home_altitude: float
    ) -> List[MissionItem]:
        """A single-item mission fragment commanding a takeoff."""
        del home_altitude  # retained for Figure 8 signature compatibility
        return [
            mission_item(
                0, MavCommand.NAV_TAKEOFF, latitude=latitude, longitude=longitude, altitude=altitude
            )
        ]

    def land_mission(
        self, latitude: Optional[float] = None, longitude: Optional[float] = None
    ) -> List[MissionItem]:
        """A single-item mission fragment commanding a landing."""
        return [
            mission_item(
                0,
                MavCommand.NAV_LAND,
                latitude=latitude if latitude is not None else self.cur_lati,
                longitude=longitude if longitude is not None else self.cur_longi,
                altitude=0.0,
            )
        ]

    def waypoint_mission(
        self, waypoints: Sequence, altitude: float
    ) -> List[MissionItem]:
        """Mission items visiting ``waypoints`` (north, east offsets in metres)."""
        items: List[MissionItem] = []
        home = self._harness.home
        for north, east in waypoints:
            location = home.offset(north, east)
            items.append(
                mission_item(
                    0,
                    MavCommand.NAV_WAYPOINT,
                    latitude=location.latitude_deg,
                    longitude=location.longitude_deg,
                    altitude=altitude,
                )
            )
        return items

    def rtl_mission(self) -> List[MissionItem]:
        """A single-item mission fragment commanding return-to-launch."""
        return [mission_item(0, MavCommand.NAV_RETURN_TO_LAUNCH)]

    # ------------------------------------------------------------------
    # High-level vehicle operations
    # ------------------------------------------------------------------
    def upload_mission(self, items: Iterable[MissionItem], timeout_s: float = 20.0) -> None:
        """Upload a mission plan and wait for the vehicle to acknowledge it."""
        plan = MissionPlan(items=list(items))
        gcs = self._harness.gcs
        gcs.begin_mission_upload(plan)
        self.wait_until(
            lambda: gcs.mission_upload_complete or gcs.mission_upload_failed,
            timeout_s=timeout_s,
            description="mission upload acknowledgement",
        )
        if gcs.mission_upload_failed:
            raise WorkloadFailure(
                f"mission upload rejected: {gcs.mission_upload_failure_reason}"
            )

    def arm_system_completely(self, timeout_s: float = 30.0) -> None:
        """Arm the vehicle, re-requesting until telemetry confirms it."""
        gcs = self._harness.gcs
        last_request = -10.0

        def armed() -> bool:
            nonlocal last_request
            if not self._harness.telemetry.armed and self._harness.time - last_request > 1.0:
                gcs.arm()
                last_request = self._harness.time
            return self._harness.telemetry.armed

        # The handshake's own wait never takes the parked exit: waiting
        # on the ground for the vehicle to arm is what it is for.
        self._wait(armed, timeout_s, "vehicle to arm", parked_exit=False)
        self._arming_done = True

    def enter_auto_mode(self) -> None:
        """Switch to the mission (AUTO) mode and start the mission."""
        gcs = self._harness.gcs
        gcs.set_mode(self._harness.auto_mode_name)
        gcs.start_mission()
        self.step(5)

    def enter_position_hold(self) -> None:
        """Switch to the flavour's position-hold mode."""
        self._harness.gcs.set_mode(self._harness.position_hold_mode_name)
        self.step(5)

    def enter_land_mode(self) -> None:
        """Switch to the land mode."""
        self._harness.gcs.set_mode(self._harness.land_mode_name)
        self.step(5)

    def command_takeoff(self, altitude: float) -> None:
        """Issue a guided takeoff command."""
        self._harness.gcs.command_takeoff(altitude)
        self.step(5)

    def goto(self, north: float, east: float, altitude: float) -> None:
        """Send a guided-mode target (offsets from home, metres)."""
        self._harness.set_guided_target(north, east, altitude)
        self.step(5)

    def wait_altitude(
        self, altitude: float, tolerance: float = 1.0, timeout_s: Optional[float] = None
    ) -> None:
        """Wait until the reported altitude is within ``tolerance`` of ``altitude``."""
        self.wait_until(
            lambda: abs(self._harness.telemetry.relative_altitude - altitude) <= tolerance,
            timeout_s=timeout_s,
            description=f"altitude {altitude:.1f} m",
        )

    def wait_position(
        self,
        north: float,
        east: float,
        radius: float = 3.0,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Wait until the vehicle is within ``radius`` metres of a point."""

        def reached() -> bool:
            home = self._harness.home
            telemetry = self._harness.telemetry
            d_north, d_east = home.local_offset_to(
                type(home)(
                    latitude_deg=telemetry.latitude or home.latitude_deg,
                    longitude_deg=telemetry.longitude or home.longitude_deg,
                    altitude_msl_m=home.altitude_msl_m,
                )
            )
            return math.hypot(d_north - north, d_east - east) <= radius

        self.wait_until(
            reached, timeout_s=timeout_s, description=f"position ({north:.0f}, {east:.0f})"
        )

    def wait_mission_item_reached(
        self, seq: int, timeout_s: Optional[float] = None
    ) -> None:
        """Wait until mission item ``seq`` is reported reached."""
        self.wait_until(
            lambda: seq in self._harness.telemetry.reached_items,
            timeout_s=timeout_s,
            description=f"mission item {seq}",
        )

    def wait_disarmed(self, timeout_s: Optional[float] = None) -> None:
        """Wait until the vehicle reports it has disarmed (landed)."""
        self.wait_until(
            lambda: not self._harness.telemetry.armed,
            timeout_s=timeout_s,
            description="vehicle to disarm after landing",
        )

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def pass_test(self) -> None:
        """Mark the workload as passed (Figure 8's final call)."""
        self._passed = True

    def fail_test(self, reason: str) -> None:
        """Mark the workload as failed."""
        raise WorkloadFailure(reason)
