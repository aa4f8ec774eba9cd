"""Inertial measurement unit drivers: gyroscope and accelerometer.

The Iris carries two IMUs; each IMU contributes one gyroscope instance
and one accelerometer instance.  Both are modelled with small Gaussian
noise and a constant bias drawn deterministically from the instance's
seed, which is enough for the estimator's fusion and fail-over logic to
be meaningfully exercised.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.sensors.base import SensorDriver, SensorType
from repro.sim.physics import GRAVITY
from repro.sim.state import VehicleState


class Gyroscope(SensorDriver):
    """Measures body angular rates in rad/s."""

    sensor_type = SensorType.GYROSCOPE
    CHANNELS = ("roll_rate", "pitch_rate", "yaw_rate")
    DRAWS = 3

    #: Standard deviation of the rate noise (rad/s).
    NOISE_SIGMA = 0.002

    def _init_constants(self, rng) -> None:
        # Constant per-instance bias, a fraction of a degree per second.
        self._bias = tuple(rng.uniform(-0.003, 0.003) for _ in range(3))

    def _measure(self, state: VehicleState, at: int) -> Tuple[float, float, float]:
        roll_rate, pitch_rate, yaw_rate = state.angular_rate
        bias_roll, bias_pitch, bias_yaw = self._bias
        z = self._deviates
        sigma = self.NOISE_SIGMA
        return (
            roll_rate + bias_roll + (0.0 + z[at] * sigma),
            pitch_rate + bias_pitch + (0.0 + z[at + 1] * sigma),
            yaw_rate + bias_yaw + (0.0 + z[at + 2] * sigma),
        )


class Accelerometer(SensorDriver):
    """Measures specific force in the body frame, in m/s^2.

    The reading includes the reaction to gravity (a vehicle at rest reads
    approximately +1 g on the up axis), matching what real firmware has to
    subtract before integrating motion.
    """

    sensor_type = SensorType.ACCELEROMETER
    CHANNELS = ("accel_x", "accel_y", "accel_z")
    DRAWS = 3

    #: Standard deviation of the acceleration noise (m/s^2).
    NOISE_SIGMA = 0.05

    def _init_constants(self, rng) -> None:
        self._bias = tuple(rng.uniform(-0.05, 0.05) for _ in range(3))

    def _measure(self, state: VehicleState, at: int) -> Tuple[float, float, float]:
        accel_north, accel_east, accel_up = state.acceleration
        roll, pitch, yaw = state.attitude.as_tuple()

        # Rotate the inertial-frame acceleration (plus gravity reaction)
        # into the body frame using a small-angle-friendly exact rotation
        # about yaw then pitch/roll.  For the purposes of the estimator the
        # dominant terms are what matter.
        specific_up = accel_up + GRAVITY
        cos_yaw, sin_yaw = math.cos(yaw), math.sin(yaw)
        cos_pitch, sin_pitch = math.cos(pitch), math.sin(pitch)
        cos_roll, sin_roll = math.cos(roll), math.sin(roll)
        forward = accel_north * cos_yaw + accel_east * sin_yaw
        right = -accel_north * sin_yaw + accel_east * cos_yaw
        body_x = forward * cos_pitch - specific_up * sin_pitch
        body_y = right * cos_roll + specific_up * sin_roll
        body_z = (
            specific_up * cos_pitch * cos_roll
            + forward * sin_pitch
            - right * sin_roll
        )
        bias_x, bias_y, bias_z = self._bias
        z = self._deviates
        sigma = self.NOISE_SIGMA
        return (
            body_x + bias_x + (0.0 + z[at] * sigma),
            body_y + bias_y + (0.0 + z[at + 1] * sigma),
            body_z + bias_z + (0.0 + z[at + 2] * sigma),
        )
