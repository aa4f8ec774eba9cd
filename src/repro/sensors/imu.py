"""Inertial measurement unit drivers: gyroscope and accelerometer.

The Iris carries two IMUs; each IMU contributes one gyroscope instance
and one accelerometer instance.  Both are modelled with small Gaussian
noise and a constant bias drawn deterministically from the instance's
seed, which is enough for the estimator's fusion and fail-over logic to
be meaningfully exercised.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.sensors.base import SensorDriver, SensorType
from repro.sim.physics import GRAVITY
from repro.sim.state import VehicleState


class Gyroscope(SensorDriver):
    """Measures body angular rates in rad/s."""

    sensor_type = SensorType.GYROSCOPE

    #: Standard deviation of the rate noise (rad/s).
    NOISE_SIGMA = 0.002

    def __init__(self, instance: int = 0, role=None, noise_seed: int = 0) -> None:
        if role is None:
            from repro.sensors.base import SensorRole

            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        super().__init__(instance=instance, role=role, noise_seed=noise_seed)
        # Constant per-instance bias, a fraction of a degree per second.
        self._bias = tuple(self._rng.uniform(-0.003, 0.003) for _ in range(3))

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        roll_rate, pitch_rate, yaw_rate = state.angular_rate
        bias = self._bias
        sigma = self.NOISE_SIGMA
        z_roll, z_pitch, z_yaw = self._normals(3)
        return {
            "roll_rate": roll_rate + bias[0] + (0.0 + z_roll * sigma),
            "pitch_rate": pitch_rate + bias[1] + (0.0 + z_pitch * sigma),
            "yaw_rate": yaw_rate + bias[2] + (0.0 + z_yaw * sigma),
        }


class Accelerometer(SensorDriver):
    """Measures specific force in the body frame, in m/s^2.

    The reading includes the reaction to gravity (a vehicle at rest reads
    approximately +1 g on the up axis), matching what real firmware has to
    subtract before integrating motion.
    """

    sensor_type = SensorType.ACCELEROMETER

    #: Standard deviation of the acceleration noise (m/s^2).
    NOISE_SIGMA = 0.05

    def __init__(self, instance: int = 0, role=None, noise_seed: int = 0) -> None:
        if role is None:
            from repro.sensors.base import SensorRole

            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        super().__init__(instance=instance, role=role, noise_seed=noise_seed)
        self._bias = tuple(self._rng.uniform(-0.05, 0.05) for _ in range(3))

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        accel_north, accel_east, accel_up = state.acceleration
        roll, pitch, yaw = state.attitude.as_tuple()

        # Rotate the inertial-frame acceleration (plus gravity reaction)
        # into the body frame using a small-angle-friendly exact rotation
        # about yaw then pitch/roll.  For the purposes of the estimator the
        # dominant terms are what matter.
        specific_up = accel_up + GRAVITY
        forward = accel_north * math.cos(yaw) + accel_east * math.sin(yaw)
        right = -accel_north * math.sin(yaw) + accel_east * math.cos(yaw)
        body_x = forward * math.cos(pitch) - specific_up * math.sin(pitch)
        body_y = right * math.cos(roll) + specific_up * math.sin(roll)
        body_z = (
            specific_up * math.cos(pitch) * math.cos(roll)
            + forward * math.sin(pitch)
            - right * math.sin(roll)
        )
        bias = self._bias
        sigma = self.NOISE_SIGMA
        z_x, z_y, z_z = self._normals(3)
        return {
            "accel_x": body_x + bias[0] + (0.0 + z_x * sigma),
            "accel_y": body_y + bias[1] + (0.0 + z_y * sigma),
            "accel_z": body_z + bias[2] + (0.0 + z_z * sigma),
        }
