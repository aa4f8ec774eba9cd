"""The cascaded navigation controller.

The structure mirrors a real multicopter position controller:

    position error -> velocity command -> acceleration command -> lean
    angles, and altitude error -> climb-rate command -> throttle.

Gains live in :class:`~repro.firmware.params.FirmwareParameters`; limits
come from the airframe.  The cascade consumes the *estimated* state,
never the simulator's ground truth -- which is exactly why corrupted
estimates (frozen positions, wrong altitude references) produce the
fly-aways and crashes the paper reports.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from repro.firmware.estimator import StateEstimate
from repro.firmware.params import FirmwareParameters
from repro.sim.physics import GRAVITY
from repro.sim.state import wrap_angle
from repro.sim.vehicle import AirframeParameters


class NavigationSetpoint(NamedTuple):
    """What the current flight mode wants the vehicle to do."""

    target_north: Optional[float] = None
    target_east: Optional[float] = None
    target_altitude: Optional[float] = None
    #: Direct climb-rate command; overrides the altitude target when set
    #: (used by LAND and by takeoff's constant-rate climb).
    climb_rate: Optional[float] = None
    target_yaw: Optional[float] = None
    #: Horizontal speed limit for this leg (defaults to the airframe's).
    speed_limit: Optional[float] = None


class NavigationStack:
    """Position, altitude and yaw cascades behind one update call.

    Gains and limits are read once here: parameters and airframes are
    frozen, so they cannot change during a run.
    """

    def __init__(self, params: FirmwareParameters, airframe: AirframeParameters) -> None:
        self._position_p = params.position_p
        self._velocity_p = params.velocity_p
        self._accel_limit = params.max_horizontal_accel_ms2
        self._altitude_p = params.altitude_p
        self._climb_rate_p = params.climb_rate_p
        self._yaw_p = params.yaw_p
        self._max_speed = airframe.max_horizontal_speed_ms
        self._max_tilt = airframe.max_tilt_rad
        self._max_climb = airframe.max_climb_rate_ms
        self._max_descent = airframe.max_descent_rate_ms
        self._max_yaw_rate = airframe.max_yaw_rate_rads
        self._hover_throttle = airframe.hover_throttle

    def update(
        self, estimate: StateEstimate, setpoint: NavigationSetpoint
    ) -> Tuple[float, float, float, float]:
        """Run the cascade for one control period.

        Returns the commanded ``(roll, pitch, yaw_rate, throttle)``: lean
        angles in radians, yaw rate in rad/s, throttle as a 0..1 fraction.
        Every bound is applied as ``min(max(value, low), high)``.
        """
        (
            target_north,
            target_east,
            target_altitude,
            climb_rate,
            target_yaw,
            speed_limit,
        ) = setpoint

        # Horizontal: position -> velocity -> acceleration -> lean angles.
        # `is not None`, not truthiness: an explicit limit of 0.0 means
        # "hold position", not "fly at the airframe maximum".
        if speed_limit is None:
            speed_limit = self._max_speed
        if target_north is None or target_east is None:
            vel_cmd_north, vel_cmd_east = 0.0, 0.0
        else:
            position_p = self._position_p
            vel_cmd_north = position_p * (target_north - estimate.north)
            vel_cmd_east = position_p * (target_east - estimate.east)
            speed = math.hypot(vel_cmd_north, vel_cmd_east)
            if speed > speed_limit and speed > 0.0:
                scale = speed_limit / speed
                vel_cmd_north *= scale
                vel_cmd_east *= scale
        accel_limit = self._accel_limit
        accel_north = self._velocity_p * (vel_cmd_north - estimate.vel_north)
        accel_east = self._velocity_p * (vel_cmd_east - estimate.vel_east)
        if accel_north < -accel_limit:
            accel_north = -accel_limit
        if accel_north > accel_limit:
            accel_north = accel_limit
        if accel_east < -accel_limit:
            accel_east = -accel_limit
        if accel_east > accel_limit:
            accel_east = accel_limit
        # Decompose the world-frame acceleration into body-frame lean
        # angles using the *estimated* heading.
        cos_yaw = math.cos(estimate.yaw)
        sin_yaw = math.sin(estimate.yaw)
        accel_forward = accel_north * cos_yaw + accel_east * sin_yaw
        accel_right = -accel_north * sin_yaw + accel_east * cos_yaw
        max_tilt = self._max_tilt
        pitch = accel_forward / GRAVITY
        if pitch < -max_tilt:
            pitch = -max_tilt
        if pitch > max_tilt:
            pitch = max_tilt
        roll = accel_right / GRAVITY
        if roll < -max_tilt:
            roll = -max_tilt
        if roll > max_tilt:
            roll = max_tilt

        # Vertical: altitude -> climb rate -> throttle.
        if climb_rate is None and target_altitude is None:
            climb_cmd = 0.0
        else:
            if climb_rate is not None:
                climb_cmd = climb_rate
            else:
                climb_cmd = self._altitude_p * (target_altitude - estimate.altitude)
            if climb_cmd < -self._max_descent:
                climb_cmd = -self._max_descent
            if climb_cmd > self._max_climb:
                climb_cmd = self._max_climb
        throttle = self._hover_throttle + self._climb_rate_p * (
            climb_cmd - estimate.climb_rate
        )
        if throttle < 0.0:
            throttle = 0.0
        if throttle > 1.0:
            throttle = 1.0

        # Heading hold / heading tracking.
        if target_yaw is None:
            yaw_rate = 0.0
        else:
            yaw_rate = self._yaw_p * wrap_angle(target_yaw - estimate.yaw)
            if yaw_rate < -self._max_yaw_rate:
                yaw_rate = -self._max_yaw_rate
            if yaw_rate > self._max_yaw_rate:
                yaw_rate = self._max_yaw_rate
        return roll, pitch, yaw_rate, throttle
