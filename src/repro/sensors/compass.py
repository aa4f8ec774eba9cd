"""Magnetometer (compass) driver.

Reports the vehicle's magnetic heading.  The Iris carries two compasses:
an external primary and an internal backup with more interference noise.
"""

from __future__ import annotations

from typing import Dict

from repro.sensors.base import SensorDriver, SensorRole, SensorType
from repro.sim.state import VehicleState, wrap_angle


class Compass(SensorDriver):
    """Measures magnetic heading in radians (clockwise from north)."""

    sensor_type = SensorType.COMPASS

    #: Heading noise for the external (primary) compass, radians.
    PRIMARY_SIGMA = 0.01
    #: Heading noise for internal (backup) compasses, radians.
    BACKUP_SIGMA = 0.03

    def __init__(self, instance: int = 0, role=None, noise_seed: int = 0) -> None:
        if role is None:
            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        super().__init__(instance=instance, role=role, noise_seed=noise_seed)
        self._sigma = self.PRIMARY_SIGMA if role == SensorRole.PRIMARY else self.BACKUP_SIGMA
        # Small constant declination-style offset per instance.
        self._offset = self._rng.uniform(-0.01, 0.01)

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        (z_heading,) = self._normals(1)
        heading = wrap_angle(
            state.heading + self._offset + (0.0 + z_heading * self._sigma)
        )
        return {"heading": heading}
