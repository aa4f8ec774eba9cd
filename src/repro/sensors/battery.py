"""Battery monitor driver.

Reports the pack's remaining capacity.  The battery monitor matters for
the reproduction because the re-inserted bug PX4-13291 (Table V of the
paper) is only triggered by a *joint* GPS + battery failure: the GPS
failure removes the local position estimate, then the battery fail-safe
fires and the vehicle flies away.
"""

from __future__ import annotations

from typing import Tuple

from repro.sensors.base import SensorDriver, SensorType
from repro.sim.state import VehicleState


class BatteryMonitor(SensorDriver):
    """Measures the remaining capacity, as a fraction of a full pack."""

    sensor_type = SensorType.BATTERY
    CHANNELS = ("remaining",)
    #: The voltage and current draws of the channels the firmware never
    #: read; the remaining capacity is noise-free.
    DRAWS = 2

    #: Nominal flight time at hover, in seconds, for capacity modelling.
    NOMINAL_ENDURANCE_S = 1200.0

    def _measure(self, state: VehicleState, at: int) -> Tuple[float]:
        # Discharge model: linear with armed time; the workloads in the
        # paper last a couple of minutes so the pack stays healthy unless
        # a battery fault is injected.
        used_fraction = min(state.time / self.NOMINAL_ENDURANCE_S, 1.0)
        return (1.0 - used_fraction,)
