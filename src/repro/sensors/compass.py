"""Magnetometer (compass) driver.

Reports the vehicle's magnetic heading.  The Iris carries two compasses:
an external primary and an internal backup with more interference noise.
"""

from __future__ import annotations

from typing import Tuple

from repro.sensors.base import SensorDriver, SensorRole, SensorType
from repro.sim.state import VehicleState, wrap_angle


class Compass(SensorDriver):
    """Measures magnetic heading in radians (clockwise from north)."""

    sensor_type = SensorType.COMPASS
    CHANNELS = ("heading",)
    DRAWS = 1

    #: Heading noise for the external (primary) compass, radians.
    PRIMARY_SIGMA = 0.01
    #: Heading noise for internal (backup) compasses, radians.
    BACKUP_SIGMA = 0.03

    def _init_constants(self, rng) -> None:
        self._sigma = (
            self.PRIMARY_SIGMA if self.role == SensorRole.PRIMARY else self.BACKUP_SIGMA
        )
        # Small constant declination-style offset per instance.
        self._offset = rng.uniform(-0.01, 0.01)

    def _measure(self, state: VehicleState, at: int) -> Tuple[float]:
        heading = wrap_angle(
            state.heading + self._offset + (0.0 + self._deviates[at] * self._sigma)
        )
        return (heading,)
