"""Airframe parameter sets for the simulated vehicles.

Every experiment in the paper uses the 3DR Iris quadcopter, the reference
airframe for both ArduPilot and PX4 SITL.  The parameters below are a
reasonable public approximation of the Iris (mass ~1.5 kg, ~0.25 m arms,
four rotors) and are deliberately kept simple: the reproduction needs the
firmware's fault-handling behaviour, not an aerodynamic-grade model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AirframeParameters:
    """Physical parameters of a multicopter airframe.

    Attributes
    ----------
    name:
        Human readable airframe name.
    mass_kg:
        Vehicle mass including battery.
    arm_length_m:
        Distance from the centre of mass to each rotor.
    max_thrust_n:
        Combined maximum thrust of all rotors, in newtons.
    max_tilt_rad:
        Maximum commanded lean angle the firmware will request.
    drag_coefficient:
        Linear drag coefficient applied to translational velocity.
    max_climb_rate_ms:
        Firmware-limited maximum climb rate.
    max_descent_rate_ms:
        Firmware-limited maximum descent rate (positive number).
    max_horizontal_speed_ms:
        Firmware-limited maximum ground speed.
    max_yaw_rate_rads:
        Maximum yaw rate.
    rotor_count:
        Number of rotors (4 for the Iris).
    hover_throttle:
        Fraction of maximum thrust needed to hover (mass * g / max thrust).
    """

    name: str
    mass_kg: float
    arm_length_m: float
    max_thrust_n: float
    max_tilt_rad: float
    drag_coefficient: float
    max_climb_rate_ms: float
    max_descent_rate_ms: float
    max_horizontal_speed_ms: float
    max_yaw_rate_rads: float
    rotor_count: int = 4

    def __post_init__(self) -> None:
        if self.mass_kg <= 0.0:
            raise ValueError("mass_kg must be positive")
        if self.max_thrust_n <= self.mass_kg * 9.80665:
            raise ValueError(
                "max_thrust_n must exceed the vehicle's weight or it cannot hover"
            )
        if self.rotor_count < 3:
            raise ValueError("a multicopter needs at least 3 rotors")

    @property
    def weight_n(self) -> float:
        """Weight of the airframe in newtons."""
        return self.mass_kg * 9.80665

    @property
    def hover_throttle(self) -> float:
        """Throttle fraction (0..1) that balances gravity."""
        return self.weight_n / self.max_thrust_n


IRIS_QUADCOPTER = AirframeParameters(
    name="3DR Iris",
    mass_kg=1.5,
    arm_length_m=0.25,
    max_thrust_n=30.0,
    max_tilt_rad=0.61,          # ~35 degrees, ArduCopter ANGLE_MAX default
    drag_coefficient=0.35,
    max_climb_rate_ms=2.5,      # ArduCopter PILOT_SPEED_UP default (250 cm/s)
    max_descent_rate_ms=3.5,
    max_horizontal_speed_ms=10.0,
    max_yaw_rate_rads=2.0,
    rotor_count=4,
)
"""The 3DR Iris quadcopter used in every experiment in the paper."""


SOLO_QUADCOPTER = AirframeParameters(
    name="3DR Solo",
    mass_kg=1.8,
    arm_length_m=0.21,
    max_thrust_n=36.0,
    max_tilt_rad=0.61,
    drag_coefficient=0.40,
    max_climb_rate_ms=3.0,
    max_descent_rate_ms=3.5,
    max_horizontal_speed_ms=12.0,
    max_yaw_rate_rads=2.5,
    rotor_count=4,
)
"""A second airframe, used only by tests that exercise parameterisation."""
