"""Firmware parameter sets.

Real autopilots are configured through hundreds of parameters; the
subset modelled here is what the reproduction's behaviour actually
depends on: speed limits, landing speeds, fail-safe enables, arming
checks, and the RTL return altitude.  Defaults follow ArduCopter's
stock values where a direct analogue exists.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FirmwareParameters:
    """Tunable firmware parameters shared by both flavours."""

    # Navigation speeds.
    waypoint_speed_ms: float = 8.0
    takeoff_climb_rate_ms: float = 2.5
    #: Descent rate used while the estimated altitude is above
    #: ``land_final_altitude_m``.
    land_speed_high_ms: float = 3.0
    #: Final-approach descent rate (ArduCopter LAND_SPEED is 0.5 m/s).
    land_speed_final_ms: float = 0.6
    #: Altitude below which the final-approach descent rate applies.
    land_final_altitude_m: float = 8.0
    #: Return-to-launch altitude (ArduCopter RTL_ALT is 15 m).
    rtl_altitude_m: float = 15.0

    # Acceptance radii.
    waypoint_radius_m: float = 2.0
    takeoff_altitude_tolerance_m: float = 0.75

    # Controller gains.
    position_p: float = 0.7
    velocity_p: float = 1.2
    altitude_p: float = 1.0
    climb_rate_p: float = 0.12
    yaw_p: float = 1.8
    max_horizontal_accel_ms2: float = 4.0

    # Fail-safe configuration.
    gps_failsafe_enabled: bool = True
    battery_failsafe_enabled: bool = True
    fence_enabled: bool = True
    #: Battery fraction below which the battery fail-safe engages.
    battery_failsafe_level: float = 0.2
    #: Seconds of missing GPS before the position estimate is declared invalid.
    gps_timeout_s: float = 2.0

    # Arming checks.
    require_gps_for_arming: bool = True
    require_compass_for_arming: bool = True
    require_baro_for_arming: bool = True

    # Telemetry.
    heartbeat_interval_s: float = 0.2
    telemetry_interval_s: float = 0.1


ARDUPILOT_DEFAULT_PARAMETERS = FirmwareParameters()
"""ArduCopter-flavoured defaults."""

PX4_DEFAULT_PARAMETERS = FirmwareParameters(
    waypoint_speed_ms=9.0,
    takeoff_climb_rate_ms=2.0,
    land_speed_high_ms=2.5,
    land_speed_final_ms=0.7,
    rtl_altitude_m=20.0,
    waypoint_radius_m=2.5,
)
"""PX4-flavoured defaults (slightly different speeds and RTL altitude)."""
