"""The firmware/physics contract: actuator commands and physical constants.

:class:`ActuatorCommand` is what a firmware hands the simulator each
control period; :data:`GRAVITY` and :data:`HARD_IMPACT_SPEED` are shared
by the integrator (:mod:`repro.sim.fleet_physics`), the collision
detector, the sensor models and the firmware's estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

GRAVITY = 9.80665

#: Landings faster than this vertical speed are treated as hard impacts by
#: the collision detector.  ArduCopter's LAND_SPEED default is 0.5 m/s;
#: a 2.0 m/s threshold leaves margin for a sloppy-but-safe touchdown.
HARD_IMPACT_SPEED = 2.0


@dataclass
class ActuatorCommand:
    """The firmware's output for one control period.

    The firmware commands a collective throttle (0..1 fraction of maximum
    thrust), a desired attitude, and a yaw rate.  A real mixer converts
    these to individual rotor speeds; the physics model consumes them
    directly, which preserves the input/output contract of the firmware
    without simulating individual motors.  The integrator clamps every
    channel to the airframe's limits as it reads it.
    """

    throttle: float = 0.0
    target_roll: float = 0.0
    target_pitch: float = 0.0
    target_yaw_rate: float = 0.0
    armed: bool = False
