"""Barometric altimeter driver.

The barometer is the firmware's primary altitude reference.  It is
modelled as true altitude plus slow drift and small noise.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.sensors.base import SensorDriver, SensorType
from repro.sim.state import VehicleState


class Barometer(SensorDriver):
    """Measures barometric altitude (metres above home)."""

    sensor_type = SensorType.BAROMETER
    CHANNELS = ("altitude",)
    DRAWS = 1

    #: Altitude noise (metres, 1 sigma) -- much tighter than GPS altitude.
    ALTITUDE_SIGMA = 0.08
    #: Peak-to-peak amplitude of the slow drift term (metres).
    DRIFT_AMPLITUDE = 0.15
    #: Period of the drift term (seconds).
    DRIFT_PERIOD = 120.0

    def _init_constants(self, rng) -> None:
        self._drift_phase = rng.uniform(0.0, 2.0 * math.pi)

    def _measure(self, state: VehicleState, at: int) -> Tuple[float]:
        drift = self.DRIFT_AMPLITUDE * math.sin(
            2.0 * math.pi * state.time / self.DRIFT_PERIOD + self._drift_phase
        )
        noise = 0.0 + self._deviates[at] * self.ALTITUDE_SIGMA
        return (state.altitude + drift + noise,)
