"""Battery monitor driver.

Reports battery voltage and remaining capacity.  The battery monitor
matters for the reproduction because the re-inserted bug PX4-13291
(Table V of the paper) is only triggered by a *joint* GPS + battery
failure: the GPS failure removes the local position estimate, then the
battery fail-safe fires and the vehicle flies away.
"""

from __future__ import annotations

from typing import Dict

from repro.sensors.base import SensorDriver, SensorRole, SensorType
from repro.sim.state import VehicleState


class BatteryMonitor(SensorDriver):
    """Measures pack voltage, current draw, and remaining capacity."""

    sensor_type = SensorType.BATTERY

    #: Fully charged 4S pack voltage.
    FULL_VOLTAGE = 16.8
    #: Voltage considered empty.
    EMPTY_VOLTAGE = 13.2
    #: Nominal flight time at hover, in seconds, for capacity modelling.
    NOMINAL_ENDURANCE_S = 1200.0

    def __init__(self, instance: int = 0, role=None, noise_seed: int = 0) -> None:
        if role is None:
            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        super().__init__(instance=instance, role=role, noise_seed=noise_seed)

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        # Discharge model: linear with armed time; the workloads in the
        # paper last a couple of minutes so the pack stays healthy unless
        # a battery fault is injected.
        used_fraction = min(state.time / self.NOMINAL_ENDURANCE_S, 1.0)
        remaining = 1.0 - used_fraction
        z_voltage, z_current = self._normals(2)
        voltage = (
            self.EMPTY_VOLTAGE
            + (self.FULL_VOLTAGE - self.EMPTY_VOLTAGE) * remaining
            + (0.0 + z_voltage * 0.02)
        )
        current = 15.0 if state.armed and not state.on_ground else 0.5
        return {
            "voltage": voltage,
            "current": current + (0.0 + z_current * 0.1),
            "remaining": remaining,
        }
