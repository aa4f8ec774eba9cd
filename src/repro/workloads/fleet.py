"""Fleet workloads: missions flown by several vehicles at once.

The classic workloads (:mod:`repro.workloads.builtin`) drive exactly one
vehicle through the Figure 8 API.  :class:`FleetTarget` extends the same
framework to a fleet: the harness provides one ground-control station
per vehicle (see :meth:`repro.core.runner.SimulationHarness.vehicle`),
and the base class adds fleet-wide arm / takeoff / land helpers so
workload bodies read like their single-vehicle counterparts.

Three built-in fleet workloads ship with the engine:

* :class:`ConvoyFollowWorkload` -- a lead vehicle flies a corridor out
  and back while a follower tracks it *over the traffic channel*: the
  follower's only view of the lead is the position/velocity beacons the
  lead broadcasts (:mod:`repro.mavlink.traffic`), consumed with latency.
  A stale or lost view of the lead on the return leg -- exactly what the
  coordination fault family injects -- leaves the follower holding in
  the corridor while the lead flies back through it, the canonical
  loss-of-separation hazard of beacon-coordinated fleets.
* :class:`CrossingPathsWorkload` -- two vehicles fly crossing legs that
  are deconflicted by altitude; mishandled altitude-sensor failures
  erode the vertical separation at the crossing point.
* :class:`MultiPadTakeoffLandWorkload` -- every vehicle takes off from
  its own pad simultaneously, hovers, and lands.  A fail-safe return on
  any vehicle flies it to the shared home -- directly above pad 0.

All three pass fault-free (they are profile-able, which the separation
invariant's calibration requires) and keep a healthy margin above the
calibrated minimum-separation threshold on golden runs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.workloads.framework import Target, WorkloadFailure, WorkloadTimeout


class FleetTarget(Target):
    """Base class for workloads that drive more than one vehicle.

    Subclasses declare how many vehicles they need via ``fleet_size``
    (checked against the harness at run time) and reach individual
    vehicles through :meth:`vehicle`.  The single-vehicle helpers
    inherited from :class:`Target` keep operating on vehicle 0, the
    lead.
    """

    #: Number of vehicles the workload needs; the run configuration's
    #: ``fleet_size`` must be at least this.
    fleet_size: int = 2

    # ------------------------------------------------------------------
    # Fleet introspection
    # ------------------------------------------------------------------
    def vehicle(self, index: int):
        """The harness facade for fleet member ``index``."""
        return self._harness.vehicle(index)

    @property
    def fleet(self) -> List:
        """Handles for the vehicles this workload drives."""
        return [self.vehicle(index) for index in range(self.fleet_size)]

    def vehicle_altitude(self, index: int) -> float:
        """Reported altitude of fleet member ``index``."""
        return self.vehicle(index).telemetry.relative_altitude

    def vehicle_position(self, index: int) -> tuple:
        """Reported (north, east) offset of fleet member ``index``."""
        handle = self.vehicle(index)
        telemetry = handle.telemetry
        home = self._harness.home
        if not telemetry.latitude and not telemetry.longitude:
            return handle.pad_offset
        return home.local_offset_to(
            type(home)(
                latitude_deg=telemetry.latitude or home.latitude_deg,
                longitude_deg=telemetry.longitude or home.longitude_deg,
                altitude_msl_m=home.altitude_msl_m,
            )
        )

    def _telemetry_disarmed(self) -> bool:
        """True when every fleet member's telemetry reports disarmed."""
        return not any(
            self.vehicle(index).telemetry.armed for index in range(self.fleet_size)
        )

    def check_fleet(self) -> None:
        """Fail fast when the harness hosts fewer vehicles than needed."""
        available = getattr(self._harness, "fleet_size", 1)
        if available < self.fleet_size:
            raise WorkloadFailure(
                f"{self.display_name} needs a fleet of {self.fleet_size}, "
                f"harness provides {available}"
            )

    # ------------------------------------------------------------------
    # Fleet-wide operations
    # ------------------------------------------------------------------
    def arm_fleet(self, timeout_s: float = 30.0) -> None:
        """Arm every vehicle, re-requesting until telemetry confirms."""
        last_request = [-10.0] * self.fleet_size

        def all_armed() -> bool:
            armed = True
            for index in range(self.fleet_size):
                handle = self.vehicle(index)
                if handle.telemetry.armed:
                    continue
                armed = False
                if self._harness.time - last_request[index] > 1.0:
                    handle.gcs.arm()
                    last_request[index] = self._harness.time
            return armed

        self._wait(all_armed, timeout_s, "fleet to arm", parked_exit=False)
        self._arming_done = True

    def takeoff_fleet(
        self,
        altitudes: Sequence[float],
        tolerance: float = 1.5,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Command a simultaneous guided takeoff, one altitude per vehicle."""
        if len(altitudes) != self.fleet_size:
            raise ValueError("one takeoff altitude per vehicle required")
        for index, altitude in enumerate(altitudes):
            self.vehicle(index).gcs.command_takeoff(altitude)
        self.step(5)
        self.wait_until(
            lambda: all(
                abs(self.vehicle_altitude(index) - altitudes[index]) <= tolerance
                for index in range(self.fleet_size)
            ),
            timeout_s=timeout_s,
            description="fleet takeoff altitudes",
        )

    def goto_vehicle(
        self,
        index: int,
        north: float,
        east: float,
        altitude: float,
        speed_limit: Optional[float] = None,
    ) -> None:
        """Send one vehicle a guided target (offsets from home, metres)."""
        self.vehicle(index).set_guided_target(
            north, east, altitude, speed_limit=speed_limit
        )

    def wait_vehicle_position(
        self,
        index: int,
        north: float,
        east: float,
        radius: float = 3.0,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Wait until one vehicle is within ``radius`` metres of a point."""

        def reached() -> bool:
            d_north, d_east = self.vehicle_position(index)
            return math.hypot(d_north - north, d_east - east) <= radius

        self.wait_until(
            reached,
            timeout_s=timeout_s,
            description=f"vehicle {index} at ({north:.0f}, {east:.0f})",
        )

    def land_fleet(self, timeout_s: Optional[float] = None) -> None:
        """Switch every vehicle to land and wait until all have disarmed.

        Each vehicle is commanded with its *own* flavour's SET_MODE
        string: a heterogeneous fleet's PX4 wing does not understand the
        ArduPilot lead's mode names.
        """
        for index in range(self.fleet_size):
            handle = self.vehicle(index)
            handle.gcs.set_mode(handle.land_mode_name)
        self.step(5)
        self.wait_until(
            lambda: all(
                not self.vehicle(index).telemetry.armed
                for index in range(self.fleet_size)
            ),
            timeout_s=timeout_s,
            description="fleet to land and disarm",
        )


class ConvoyFollowWorkload(FleetTarget):
    """A two-vehicle convoy flying a northbound corridor out and back.

    The lead launches from pad 0, the follower from pad 1.  After a
    simultaneous takeoff the follower slots in ``gap_m`` metres south of
    the lead on the corridor centreline and *tracks the lead over the
    traffic channel*: its target is re-derived every few steps from the
    lead's most recent position beacon -- the follower never reads the
    lead's state, telemetry, or flight plan.  The pair advances in
    ``leg_step_m`` increments to ``leg_m`` metres north, turns around,
    and returns to the pads, where both land.

    The return leg is the hazard the coordination faults weaponise: the
    lead flies *toward* the follower's slot, and only the beacon stream
    keeps the follower retreating ahead of it.  A frozen or dropped-out
    view of the lead (``beacon_timeout_s`` decides when the follower
    declares its picture stale and holds) leaves the follower parked in
    the corridor while the lead closes head-on.  The convoy altitude is
    deliberately above the firmware's RTL return altitude, so a
    mid-corridor fail-safe return likewise comes back at convoy
    altitude, through the follower's slot.

    ``return_speed_ms`` (None keeps the outbound cruise speed, the
    classic profile) lets the lead fly the return legs faster -- the
    empty-run-home profile real convoys fly.  A fast return sharpens
    the *recovery-window* hazard of intermittent dropouts: a follower
    whose beacon picture recovers mid-return rushes back north to
    re-acquire its slot exactly while the lead bears down on it at
    return speed.
    """

    name = "convoy-follow"
    fleet_size = 2

    #: Class-level default for the return-leg speed.  Deliberately *not*
    #: an instance attribute unless overridden: the cache's workload
    #: fingerprint renders every public instance attribute, so a default
    #: convoy must expose exactly the attribute set it always had --
    #: existing convoy cache entries and grid streams stay valid.
    return_speed_ms: Optional[float] = None

    def __init__(
        self,
        altitude: float = 16.0,
        leg_m: float = 40.0,
        gap_m: float = 10.0,
        leg_step_m: float = 10.0,
        init_wait_ms: float = 2000.0,
        beacon_timeout_s: float = 1.5,
        follow_update_steps: int = 5,
        convoy_speed_ms: float = 3.0,
        checkpoint_pause_ms: float = 1200.0,
        return_speed_ms: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.altitude = altitude
        self.leg_m = leg_m
        self.gap_m = gap_m
        self.leg_step_m = leg_step_m
        self.init_wait_ms = init_wait_ms
        self.beacon_timeout_s = beacon_timeout_s
        self.follow_update_steps = max(1, follow_update_steps)
        self.convoy_speed_ms = convoy_speed_ms
        self.checkpoint_pause_ms = checkpoint_pause_ms
        if return_speed_ms is not None:
            self.return_speed_ms = return_speed_ms

    # ------------------------------------------------------------------
    # Beacon-driven following
    # ------------------------------------------------------------------
    def _follow_lead(self) -> None:
        """One follower control decision from the latest lead beacon.

        No beacon yet, or a beacon older than ``beacon_timeout_s``,
        means the follower has no trustworthy picture of the lead: it
        holds its last commanded slot (the firmware keeps flying toward
        the last guided target and hovers there).
        """
        beacon = self.vehicle(1).traffic_view(0)
        if beacon is None:
            return
        age = beacon.age_at(self._harness.time)
        if age > self.beacon_timeout_s:
            return
        # Dead-reckon the lead forward by the beacon's age -- the same
        # extrapolation real traffic receivers apply to ADS-B velocity.
        # A frozen beacon carries zero velocity, so a stale ghost is
        # (correctly) tracked as stationary.
        north = beacon.position[0] + beacon.velocity[0] * age
        east = beacon.position[1] + beacon.velocity[1] * age
        self.goto_vehicle(1, north - self.gap_m, east, self.altitude)

    def _command_lead(
        self, north: float, east: float = 0.0, speed: Optional[float] = None
    ) -> None:
        """Command the lead to a corridor point (cruise speed default)."""
        self.goto_vehicle(
            0,
            north,
            east,
            self.altitude,
            speed_limit=speed if speed is not None else self.convoy_speed_ms,
        )

    def _advance_lead(
        self,
        north: float,
        east: float = 0.0,
        radius: float = 3.0,
        speed: Optional[float] = None,
    ) -> None:
        """Command the lead to a corridor point and step until it arrives,
        re-deriving the follower's slot from the beacon stream throughout."""
        self._command_lead(north, east, speed=speed)
        deadline = self._harness.time + self.default_timeout_s
        while True:
            d_north, d_east = self.vehicle_position(0)
            if math.hypot(d_north - north, d_east - east) <= radius:
                return
            if self._harness.time >= deadline:
                raise WorkloadTimeout(
                    f"timed out after {self.default_timeout_s:.0f}s waiting "
                    f"for the lead at ({north:.0f}, {east:.0f})"
                )
            self.step(self.follow_update_steps)
            self._follow_lead()

    def _checkpoint_pause(self) -> None:
        """Hold the lead at a corridor checkpoint for a beat.

        The lead drops into its position-hold mode and back to guided --
        an operating-mode transition pair at every checkpoint, which is
        what anchors SABRE's transition queue (and its separation
        weights) to the corridor geometry instead of only takeoff and
        landing.  The follower keeps tracking beacons throughout.
        """
        if self.checkpoint_pause_ms <= 0.0:
            return
        lead = self.vehicle(0)
        lead.gcs.set_mode(lead.position_hold_mode_name)
        pause_steps = max(
            int(self.checkpoint_pause_ms / 1000.0 / self._harness.dt), 1
        )
        for _ in range(0, pause_steps, self.follow_update_steps):
            self.step(self.follow_update_steps)
            self._follow_lead()
        lead.gcs.set_mode(lead.guided_mode_name)
        self.step(self.follow_update_steps)
        self._follow_lead()

    def test(self) -> None:
        self.check_fleet()
        self.wait_time(self.init_wait_ms)
        self.arm_fleet()
        self.takeoff_fleet([self.altitude, self.altitude])

        # Form up: the lead holds over pad 0 while the follower acquires
        # the beacon stream and slots in behind it on the centreline.
        deadline = self._harness.time + self.default_timeout_s
        while True:
            d_north, d_east = self.vehicle_position(1)
            if math.hypot(d_north + self.gap_m, d_east) <= 3.0:
                break
            if self._harness.time >= deadline:
                raise WorkloadTimeout("follower never acquired its convoy slot")
            self.step(self.follow_update_steps)
            self._follow_lead()

        # Outbound leg, turn-around, return leg: the follower's motion
        # is derived from beacons the whole way, and the lead pauses at
        # every checkpoint (a mode-transition pair per checkpoint).
        distance = self.leg_step_m
        while distance <= self.leg_m:
            self._advance_lead(distance)
            self._checkpoint_pause()
            distance += self.leg_step_m
        distance = self.leg_m - self.leg_step_m
        while distance >= 0.0:
            self._advance_lead(distance, speed=self.return_speed_ms)
            self._checkpoint_pause()
            distance -= self.leg_step_m

        self.land_fleet()
        self.pass_test()


class CrossingPathsWorkload(FleetTarget):
    """Two vehicles fly crossing legs deconflicted by altitude.

    Vehicle 0 flies its leg low, vehicle 1 flies high; their ground
    tracks cross mid-leg, so the whole vertical margin
    (``high_altitude - low_altitude``) is what keeps them separated at
    the crossing point.  Sensor failures that corrupt the altitude
    estimate (or trigger a descending fail-safe mid-leg) spend that
    margin.
    """

    name = "crossing-paths"
    fleet_size = 2

    def __init__(
        self,
        low_altitude: float = 10.0,
        high_altitude: float = 16.0,
        leg_m: float = 30.0,
        init_wait_ms: float = 2000.0,
    ) -> None:
        super().__init__()
        self.low_altitude = low_altitude
        self.high_altitude = high_altitude
        self.leg_m = leg_m
        self.init_wait_ms = init_wait_ms

    def test(self) -> None:
        self.check_fleet()
        self.wait_time(self.init_wait_ms)
        pad_east = self.vehicle(1).pad_offset[1]
        self.arm_fleet()
        self.takeoff_fleet([self.low_altitude, self.high_altitude])

        # Crossing ground tracks: vehicle 0 from pad 0 to the far corner
        # above pad 1's column, vehicle 1 the mirror image.
        self.goto_vehicle(0, self.leg_m, pad_east, self.low_altitude)
        self.goto_vehicle(1, self.leg_m, 0.0, self.high_altitude)
        self.wait_vehicle_position(0, self.leg_m, pad_east, radius=3.0)
        self.wait_vehicle_position(1, self.leg_m, 0.0, radius=3.0)

        self.land_fleet()
        self.pass_test()


class MultiPadTakeoffLandWorkload(FleetTarget):
    """Simultaneous takeoff, hover and landing from a row of pads.

    Exercises the densest phase of fleet operation: every vehicle in the
    air at once, separated only by the pad spacing.  Any fail-safe
    return flies the affected vehicle to the shared home point --
    directly above pad 0 and through the hovering formation.
    """

    name = "multi-pad"
    fleet_size = 3

    def __init__(
        self,
        altitude: float = 12.0,
        hover_ms: float = 3000.0,
        init_wait_ms: float = 2000.0,
        fleet_size: Optional[int] = None,
    ) -> None:
        super().__init__()
        if fleet_size is not None:
            if fleet_size < 2:
                raise ValueError("a multi-pad fleet needs at least 2 vehicles")
            self.fleet_size = fleet_size
        self.altitude = altitude
        self.hover_ms = hover_ms
        self.init_wait_ms = init_wait_ms

    def test(self) -> None:
        self.check_fleet()
        self.wait_time(self.init_wait_ms)
        self.arm_fleet()
        self.takeoff_fleet([self.altitude] * self.fleet_size)
        self.wait_time(self.hover_ms)
        self.land_fleet()
        self.pass_test()


def default_fleet_workloads() -> List[FleetTarget]:
    """The three built-in fleet workloads with their default geometry."""
    return [
        ConvoyFollowWorkload(),
        CrossingPathsWorkload(),
        MultiPadTakeoffLandWorkload(),
    ]
