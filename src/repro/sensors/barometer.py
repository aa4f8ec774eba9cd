"""Barometric altimeter driver.

The barometer is the firmware's primary altitude reference.  It is
modelled as true altitude plus slow drift and small noise; pressure is
also reported so the driver's interface matches what a real baro exposes.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.sensors.base import SensorDriver, SensorRole, SensorType
from repro.sim.state import VehicleState

#: Sea-level standard pressure in hPa.
SEA_LEVEL_PRESSURE_HPA = 1013.25
#: Approximate pressure lapse: hPa lost per metre of altitude near sea level.
PRESSURE_LAPSE_HPA_PER_M = 0.12


class Barometer(SensorDriver):
    """Measures barometric altitude (metres above home) and pressure."""

    sensor_type = SensorType.BAROMETER

    #: Altitude noise (metres, 1 sigma) -- much tighter than GPS altitude.
    ALTITUDE_SIGMA = 0.08
    #: Peak-to-peak amplitude of the slow drift term (metres).
    DRIFT_AMPLITUDE = 0.15
    #: Period of the drift term (seconds).
    DRIFT_PERIOD = 120.0

    def __init__(self, instance: int = 0, role=None, noise_seed: int = 0) -> None:
        if role is None:
            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        super().__init__(instance=instance, role=role, noise_seed=noise_seed)
        self._drift_phase = self._rng.uniform(0.0, 2.0 * math.pi)

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        drift = self.DRIFT_AMPLITUDE * math.sin(
            2.0 * math.pi * state.time / self.DRIFT_PERIOD + self._drift_phase
        )
        (z_alt,) = self._normals(1)
        altitude = state.altitude + drift + (0.0 + z_alt * self.ALTITUDE_SIGMA)
        pressure = SEA_LEVEL_PRESSURE_HPA - PRESSURE_LAPSE_HPA_PER_M * altitude
        return {"altitude": altitude, "pressure_hpa": pressure}
