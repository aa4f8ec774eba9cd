"""Physical state of the simulated vehicle.

The invariant monitor in the paper represents the vehicle state as the
tuple ``(P, alpha, M)`` -- position, acceleration, and operating mode.
The simulator tracks a richer state (velocity, attitude, angular rates)
because the firmware's estimator and controllers need it, but the
:class:`VehicleState` snapshot exposes exactly what the monitor consumes.

Coordinate convention: a local Cartesian frame anchored at the home
location.  ``x`` points north, ``y`` points east, and ``z`` points *up*
(altitude above home, in metres).  Yaw is measured clockwise from north
in radians, matching compass headings.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

Vector3 = Tuple[float, float, float]


def vector_sub(a: Vector3, b: Vector3) -> Vector3:
    """Return the component-wise difference ``a - b``."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vector_norm(a: Vector3) -> float:
    """Return the Euclidean norm of a 3-vector."""
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def euclidean_distance(a: Vector3, b: Vector3) -> float:
    """Euclidean distance between two points.

    This is the ``d_e`` used throughout Section IV-C of the paper for both
    position and acceleration distances.
    """
    return vector_norm(vector_sub(a, b))


_PI = math.pi
_TWO_PI = 2.0 * math.pi
_fmod = math.fmod


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval ``(-pi, pi]``."""
    wrapped = _fmod(angle + _PI, _TWO_PI)
    if wrapped <= 0.0:
        wrapped += _TWO_PI
    return wrapped - _PI


class AttitudeState(NamedTuple):
    """Orientation of the vehicle expressed as Euler angles (radians)."""

    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def as_tuple(self) -> Vector3:
        """Return ``(roll, pitch, yaw)`` as a plain tuple."""
        return (self.roll, self.pitch, self.yaw)


class VehicleState(NamedTuple):
    """Snapshot of the simulated vehicle's physical state at one time-step.

    Snapshots are immutable named tuples, built once per vehicle per
    physics step by one positional constructor call; a copy with one
    field changed is ``state._replace(time=...)``.

    Attributes
    ----------
    time:
        Simulation time in seconds since the start of the run.
    position:
        ``(north, east, up)`` metres relative to home.
    velocity:
        ``(north, east, up)`` metres per second.
    acceleration:
        ``(north, east, up)`` metres per second squared, *excluding* gravity
        (i.e. the specific force the accelerometer would sense minus the
        static 1 g offset -- what the invariant monitor compares).
    attitude:
        Euler angles of the airframe.
    angular_rate:
        Body rotation rates ``(roll_rate, pitch_rate, yaw_rate)`` in rad/s.
    on_ground:
        Whether the vehicle is resting on (or has impacted) the ground.
    armed:
        Whether motors are armed.  The simulator mirrors the firmware's
        arming state so collision analysis can distinguish a parked vehicle
        from a crashed one.
    """

    time: float = 0.0
    position: Vector3 = (0.0, 0.0, 0.0)
    velocity: Vector3 = (0.0, 0.0, 0.0)
    acceleration: Vector3 = (0.0, 0.0, 0.0)
    attitude: AttitudeState = AttitudeState()
    angular_rate: Vector3 = (0.0, 0.0, 0.0)
    on_ground: bool = True
    armed: bool = False

    @property
    def altitude(self) -> float:
        """Altitude above the home position in metres."""
        return self.position[2]

    @property
    def ground_speed(self) -> float:
        """Horizontal speed in metres per second."""
        return math.hypot(self.velocity[0], self.velocity[1])

    @property
    def climb_rate(self) -> float:
        """Vertical speed in metres per second (positive is up)."""
        return self.velocity[2]

    @property
    def heading(self) -> float:
        """Yaw angle in radians, clockwise from north."""
        return self.attitude.yaw

    def horizontal_distance_to(self, point: Vector3) -> float:
        """Horizontal (north/east plane) distance to ``point`` in metres."""
        return math.hypot(self.position[0] - point[0], self.position[1] - point[1])
