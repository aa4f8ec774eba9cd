"""GPS receiver driver.

Horizontal position from GPS is accurate to a metre or two; *vertical*
position is considerably worse.  That asymmetry is the physical root of
the Figure 1 bug in the paper: at normal altitudes GPS altitude is good
enough for simple manoeuvres, but near the ground its resolution is too
coarse to guide major altitude adjustments.  The driver therefore applies
a noticeably larger noise and quantisation step to the altitude channel.
"""

from __future__ import annotations

from typing import Dict

from repro.sensors.base import SensorDriver, SensorRole, SensorType
from repro.sim.state import VehicleState


class GpsReceiver(SensorDriver):
    """Provides horizontal position, GPS altitude, and velocity."""

    sensor_type = SensorType.GPS

    #: Horizontal position noise (metres, 1 sigma).
    HORIZONTAL_SIGMA = 0.4
    #: Vertical position noise (metres, 1 sigma) -- markedly worse.
    VERTICAL_SIGMA = 1.8
    #: Altitude quantisation step (metres); GPS altitude resolution is
    #: coarse, which is what makes low-altitude GPS-only flight unsafe.
    VERTICAL_RESOLUTION = 1.0
    #: Velocity noise (m/s, 1 sigma).
    VELOCITY_SIGMA = 0.1

    def __init__(self, instance: int = 0, role=None, noise_seed: int = 0) -> None:
        if role is None:
            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        super().__init__(instance=instance, role=role, noise_seed=noise_seed)

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        north, east, up = state.position
        vel_north, vel_east, vel_up = state.velocity
        # One draw per noisy channel; the RNG stream fixes the order,
        # altitude first.
        z_alt, z_north, z_east, z_vn, z_ve, z_vu = self._normals(6)
        noisy_alt = up + (0.0 + z_alt * self.VERTICAL_SIGMA)
        quantised_alt = round(noisy_alt / self.VERTICAL_RESOLUTION) * self.VERTICAL_RESOLUTION
        horizontal = self.HORIZONTAL_SIGMA
        velocity = self.VELOCITY_SIGMA
        return {
            "north": north + (0.0 + z_north * horizontal),
            "east": east + (0.0 + z_east * horizontal),
            "altitude": quantised_alt,
            "vel_north": vel_north + (0.0 + z_vn * velocity),
            "vel_east": vel_east + (0.0 + z_ve * velocity),
            "vel_up": vel_up + (0.0 + z_vu * velocity),
            "satellites": 14.0,
            "hdop": 0.8,
        }
