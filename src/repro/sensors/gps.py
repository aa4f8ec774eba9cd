"""GPS receiver driver.

Horizontal position from GPS is accurate to a metre or two; *vertical*
position is considerably worse.  That asymmetry is the physical root of
the Figure 1 bug in the paper: at normal altitudes GPS altitude is good
enough for simple manoeuvres, but near the ground its resolution is too
coarse to guide major altitude adjustments.  The driver therefore applies
a noticeably larger noise and quantisation step to the altitude channel.
"""

from __future__ import annotations

from typing import Tuple

from repro.sensors.base import SensorDriver, SensorType
from repro.sim.state import VehicleState


class GpsReceiver(SensorDriver):
    """Provides horizontal position, GPS altitude, and horizontal velocity."""

    sensor_type = SensorType.GPS
    CHANNELS = ("north", "east", "altitude", "vel_north", "vel_east")
    #: Altitude first, then north, east, north and east velocity; the
    #: sixth is the vertical-velocity draw of a channel the firmware
    #: never read.
    DRAWS = 6

    #: Horizontal position noise (metres, 1 sigma).
    HORIZONTAL_SIGMA = 0.4
    #: Vertical position noise (metres, 1 sigma) -- markedly worse.
    VERTICAL_SIGMA = 1.8
    #: Altitude quantisation step (metres); GPS altitude resolution is
    #: coarse, which is what makes low-altitude GPS-only flight unsafe.
    VERTICAL_RESOLUTION = 1.0
    #: Velocity noise (m/s, 1 sigma).
    VELOCITY_SIGMA = 0.1

    def _measure(
        self, state: VehicleState, at: int
    ) -> Tuple[float, float, float, float, float]:
        north, east, up = state.position
        vel_north, vel_east, _ = state.velocity
        z = self._deviates
        noisy_alt = up + (0.0 + z[at] * self.VERTICAL_SIGMA)
        resolution = self.VERTICAL_RESOLUTION
        horizontal = self.HORIZONTAL_SIGMA
        velocity = self.VELOCITY_SIGMA
        return (
            north + (0.0 + z[at + 1] * horizontal),
            east + (0.0 + z[at + 2] * horizontal),
            round(noisy_alt / resolution) * resolution,
            vel_north + (0.0 + z[at + 3] * velocity),
            vel_east + (0.0 + z[at + 4] * velocity),
        )
