"""The firmware's fused state estimator.

ArduPilot and PX4 both run an extended Kalman filter fusing IMU, GPS,
compass and barometer data (Figure 2 of the paper).  The reproduction
uses complementary filters -- the same fusion structure (inertial
propagation corrected by absolute measurements) with far less machinery
-- because what Avis exercises is not estimation accuracy but the
estimator's *fail-over behaviour*: which source is trusted for each
quantity, what happens when the active instance of a type fails, and how
the rest of the firmware reacts to degraded estimates.

Fail-over rules (mirroring the stock firmware behaviour):

* gyroscope / accelerometer / compass: the primary instance is used; when
  it fails the first healthy backup takes over transparently.
* barometer: primary altitude source; when every barometer has failed the
  estimator falls back to GPS altitude and flags the altitude as degraded.
* GPS: sole horizontal-position source; when it fails the estimator dead
  reckons on the accelerometer and declares the position invalid after a
  configurable timeout.
* battery: not fused; its health is tracked for the fail-safe manager.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.firmware.params import FirmwareParameters
from repro.sensors.base import SensorId, SensorRole, SensorType
from repro.sensors.suite import SensorSuite
from repro.sim.physics import GRAVITY
from repro.sim.state import wrap_angle


@dataclass(frozen=True)
class EstimatorStatus:
    """Health summary of the estimator's input sources."""

    healthy_types: FrozenSet[SensorType] = frozenset()
    failed_types: FrozenSet[SensorType] = frozenset()
    altitude_source: str = "barometer"
    position_valid: bool = True
    heading_valid: bool = True

    def is_healthy(self, sensor_type: SensorType) -> bool:
        """True when at least one instance of ``sensor_type`` still works."""
        return sensor_type in self.healthy_types


@dataclass
class StateEstimate:
    """The estimator's current belief about the vehicle state."""

    time: float = 0.0
    north: float = 0.0
    east: float = 0.0
    altitude: float = 0.0
    vel_north: float = 0.0
    vel_east: float = 0.0
    climb_rate: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0
    status: EstimatorStatus = field(default_factory=EstimatorStatus)

    def horizontal_distance_to(self, north: float, east: float) -> float:
        """Horizontal distance from the estimate to a target point."""
        return math.hypot(self.north - north, self.east - east)

    def copy(self) -> "StateEstimate":
        """Return an independent copy of the estimate (the frozen status
        is shared)."""
        clone = object.__new__(StateEstimate)
        clone.__dict__.update(self.__dict__)
        return clone


@dataclass(frozen=True)
class SensorFailureEvent:
    """An instance failure noticed by the estimator this update."""

    sensor_id: SensorId
    time: float
    #: True when the failed instance was the one the estimator was
    #: actively using (primary, or a backup that had already taken over).
    was_active_instance: bool
    #: True when no healthy instance of the type remains.
    type_exhausted: bool


#: One instance's reading, laid out as its driver's ``CHANNELS`` (see
#: ``SensorSuite.read_all``).
Channels = Tuple[float, ...]

#: The sensor types the filters fuse, in selection order; the estimator
#: tracks which instance of each it is actively using.
_FUSED_TYPES = (
    SensorType.GYROSCOPE,
    SensorType.ACCELEROMETER,
    SensorType.COMPASS,
    SensorType.GPS,
    SensorType.BAROMETER,
)


class StateEstimator:
    """Complementary-filter state estimator with explicit fail-over.

    Readings arrive as one :meth:`SensorSuite.read_all` pass in the
    suite's canonical order; every per-type lookup is a precomputed
    tuple of positions (primary first), so the per-tick path neither
    sorts nor hashes sensor ids.  The instance selected per type -- the
    first whose entry is not ``None`` -- is the one the pass measured,
    and its reading is a tuple read by position, as its driver's
    ``CHANNELS`` lay it out.
    """

    # Correction gains per update (tuned for 50 Hz; scale with dt).
    ALTITUDE_GAIN = 3.0          # 1/s pull of altitude toward measurement
    CLIMB_GAIN = 1.5             # 1/s pull of climb rate toward measurement
    POSITION_GAIN = 2.5
    VELOCITY_GAIN = 2.0
    HEADING_GAIN = 2.0
    ATTITUDE_DECAY = 0.5

    def __init__(self, suite: SensorSuite, params: FirmwareParameters) -> None:
        self._suite = suite
        self._params = params
        self._estimate = StateEstimate()
        self._gps_last_seen = 0.0

        self._sensor_ids: List[SensorId] = suite.sensor_ids
        # Primary-first positions of each fused type.
        self._fused: Tuple[Tuple[int, ...], ...] = tuple(
            suite.positions(sensor_type) for sensor_type in _FUSED_TYPES
        )
        self._gps_positions = suite.positions(SensorType.GPS)
        # Position of the instance in use per fused type (None once the
        # type is exhausted, and before the first update).
        self._active: Sequence[Optional[int]] = (None,) * len(_FUSED_TYPES)
        # The instances in use while every read succeeds: each primary.
        self._primaries = tuple(
            positions[0] if positions else None for positions in self._fused
        )
        # Reads the primaries' samples in one call (``None`` for a fused
        # type the suite lacks).
        primaries = self._primaries
        self._read_primaries: Callable = (
            itemgetter(*primaries)
            if None not in primaries
            else lambda samples: [
                None if position is None else samples[position] for position in primaries
            ]
        )
        self._known_failed: List[bool] = [False] * len(self._sensor_ids)
        # Which reads failed on the last tick with a failed read, while
        # every tick since has had the same pattern (None otherwise): the
        # selection in ``_active`` and the known failures are then current.
        self._missing: Optional[List[bool]] = None
        # Which instances failed at the last status computation, whether
        # any did, and whether every GPS instance did.
        self._failed: Optional[List[bool]] = None
        self._any_failed = True
        self._gps_failed = False
        self._no_failures: List[bool] = [False] * len(self._sensor_ids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def estimate(self) -> StateEstimate:
        """The current state estimate."""
        return self._estimate

    @property
    def status(self) -> EstimatorStatus:
        """The current source-health summary."""
        return self._estimate.status

    def active_instance(self, sensor_type: SensorType) -> Optional[SensorId]:
        """The instance currently trusted for ``sensor_type`` (if any)."""
        if sensor_type not in _FUSED_TYPES:
            return None
        position = self._active[_FUSED_TYPES.index(sensor_type)]
        return None if position is None else self._sensor_ids[position]

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def update(
        self, samples: List[Optional[Channels]], dt: float, time: float
    ) -> tuple:
        """Fuse one read pass of the suite (:meth:`SensorSuite.read_all`).

        Returns ``(estimate, failure_events)`` where ``failure_events``
        lists the instance failures newly observed during this update --
        the firmware's fail-safe manager (and through it the bug registry)
        consumes them.
        """
        if None in samples:
            missing = [values is None for values in samples]
            if missing == self._missing:
                # The pattern of a latched fault: the same selection, and
                # no position newly failed.
                missing = self._missing
                failure_events = ()
            else:
                failure_events = self._detect_failures(samples, time)
                # The first instance of each type that read, primary first.
                self._active = tuple(
                    next((position for position in positions if samples[position] is not None), None)
                    for positions in self._fused
                )
                self._missing = missing
            gyro, accel, compass, gps, baro = [
                None if position is None else samples[position] for position in self._active
            ]
        else:
            missing = self._missing = None
            failure_events = ()
            self._active = self._primaries
            gyro, accel, compass, gps, baro = self._read_primaries(samples)

        self._update_attitude(gyro, accel, dt)
        self._update_heading(gyro, compass, dt)
        self._update_vertical(accel, baro, gps, dt)
        self._update_horizontal(accel, gps, dt, time)
        if missing is not None:
            self._update_status(missing, time)
        elif self._any_failed:
            self._update_status(self._no_failures, time)
        self._estimate.time = time
        return self._estimate, failure_events

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _detect_failures(self, samples: List[Optional[Channels]], time: float) -> list:
        """Find instance failures that appeared in this batch of readings,
        in canonical order."""
        events = []
        for position, values in enumerate(samples):
            if values is not None or self._known_failed[position]:
                continue
            self._known_failed[position] = True
            sensor_id = self._sensor_ids[position]
            previously_active = self.active_instance(sensor_id.sensor_type)
            if previously_active is None:
                # First update (or an unfused type): the primary is by
                # definition the active one.
                was_active = self._suite.role_of(sensor_id) == SensorRole.PRIMARY
            else:
                was_active = previously_active == sensor_id
            type_exhausted = all(
                samples[other] is None
                for other in self._suite.positions(sensor_id.sensor_type)
            )
            events.append(
                SensorFailureEvent(
                    sensor_id=sensor_id,
                    time=time,
                    was_active_instance=was_active,
                    type_exhausted=type_exhausted,
                )
            )
        return events

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def _update_attitude(
        self,
        gyro: Optional[Channels],
        accel: Optional[Channels],
        dt: float,
    ) -> None:
        est = self._estimate
        if gyro is not None:
            roll_rate, pitch_rate, _ = gyro
            est.roll += roll_rate * dt
            est.pitch += pitch_rate * dt
        # Without an accelerometer the tilt estimate slowly decays to level,
        # which is what a gyro-only estimate with leak does.
        decay = self.ATTITUDE_DECAY * dt
        if accel is not None:
            # Gravity direction gives an absolute tilt reference.
            ax, ay, az = accel
            az = max(az, 1.0)
            pitch_meas = math.atan2(-ax, az)
            roll_meas = math.atan2(ay, az)
            est.roll += (roll_meas - est.roll) * decay
            est.pitch += (pitch_meas - est.pitch) * decay
        else:
            est.roll -= est.roll * decay
            est.pitch -= est.pitch * decay

    def _update_heading(
        self,
        gyro: Optional[Channels],
        compass: Optional[Channels],
        dt: float,
    ) -> None:
        est = self._estimate
        if gyro is not None:
            est.yaw = wrap_angle(est.yaw + gyro[2] * dt)  # yaw_rate
        if compass is not None:
            error = wrap_angle(compass[0] - est.yaw)  # heading
            est.yaw = wrap_angle(est.yaw + error * self.HEADING_GAIN * dt)

    def _vertical_acceleration(self, accel: Optional[Channels]) -> float:
        """World-frame vertical acceleration derived from the accelerometer."""
        if accel is None:
            return 0.0
        est = self._estimate
        accel_x, accel_y, accel_z = accel
        specific_up = (
            accel_z * math.cos(est.roll) * math.cos(est.pitch)
            + accel_x * math.sin(est.pitch)
            - accel_y * math.sin(est.roll)
        )
        return specific_up - GRAVITY

    def _update_vertical(
        self,
        accel: Optional[Channels],
        baro: Optional[Channels],
        gps: Optional[Channels],
        dt: float,
    ) -> None:
        est = self._estimate
        est.climb_rate += self._vertical_acceleration(accel) * dt
        est.altitude += est.climb_rate * dt

        if baro is not None:
            measurement: Optional[float] = baro[0]  # altitude
        elif gps is not None:
            measurement = gps[2]  # altitude
        else:
            measurement = None

        if measurement is not None:
            innovation = measurement - est.altitude
            est.altitude += innovation * self.ALTITUDE_GAIN * dt
            est.climb_rate += innovation * self.CLIMB_GAIN * dt

    def _update_horizontal(
        self,
        accel: Optional[Channels],
        gps: Optional[Channels],
        dt: float,
        time: float,
    ) -> None:
        est = self._estimate
        # Inertial propagation: tilt produces horizontal acceleration
        # (none without an accelerometer).
        if accel is not None:
            accel_forward = GRAVITY * math.tan(est.pitch)
            accel_right = GRAVITY * math.tan(est.roll)
            cos_yaw = math.cos(est.yaw)
            sin_yaw = math.sin(est.yaw)
            accel_north = accel_forward * cos_yaw - accel_right * sin_yaw
            accel_east = accel_forward * sin_yaw + accel_right * cos_yaw
        else:
            accel_north = accel_east = 0.0
        est.vel_north += accel_north * dt
        est.vel_east += accel_east * dt
        est.north += est.vel_north * dt
        est.east += est.vel_east * dt

        if gps is not None:
            self._gps_last_seen = time
            north, east, _, vel_north, vel_east = gps
            pos_gain = self.POSITION_GAIN * dt
            vel_gain = self.VELOCITY_GAIN * dt
            est.north += (north - est.north) * pos_gain
            est.east += (east - est.east) * pos_gain
            est.vel_north += (vel_north - est.vel_north) * vel_gain
            est.vel_east += (vel_east - est.vel_east) * vel_gain

    def _update_status(self, failed: List[bool], time: float) -> None:
        """Recompute the status when the set of failed instances changed,
        or while GPS is out (``position_valid`` depends on the time).

        ``failed`` is this tick's pattern of failed reads.  :meth:`update`
        skips the call while every read succeeds and none failed at the
        last computation: then neither can have changed.
        """
        status = self._estimate.status
        if failed != self._failed:
            self._failed = failed
            self._any_failed = True in failed
            self._gps_failed = bool(self._gps_positions) and all(
                failed[position] for position in self._gps_positions
            )
            types = self._suite.sensor_types
            healthy = frozenset(
                sensor_type
                for sensor_type in types
                if not all(failed[position] for position in self._suite.positions(sensor_type))
            )
            failed_types = frozenset(set(types) - set(healthy))
        elif self._gps_failed:
            healthy, failed_types = status.healthy_types, status.failed_types
        else:
            return
        gps_failed = self._gps_failed
        baro_failed = SensorType.BAROMETER in failed_types
        altitude_source = "barometer"
        if baro_failed:
            altitude_source = "gps" if not gps_failed else "inertial"
        position_valid = True
        if gps_failed and (time - self._gps_last_seen) > self._params.gps_timeout_s:
            position_valid = False
        heading_valid = SensorType.COMPASS in healthy or SensorType.GYROSCOPE in healthy
        self._estimate.status = EstimatorStatus(
            healthy_types=healthy,
            failed_types=failed_types,
            altitude_source=altitude_source,
            position_valid=position_valid,
            heading_valid=heading_valid,
        )
