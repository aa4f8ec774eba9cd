"""Quadcopter dynamics for a whole fleet, integrated at a fixed time-step.

The model is a deliberately simple but honest multicopter:

* Attitude follows commanded attitude through a first-order lag (the
  real vehicle's attitude loop runs far faster than the position loop, so
  from the perspective of the navigation code a rate-limited first-order
  response is an adequate abstraction).
* Thrust acts along the body z-axis; tilting the body produces
  horizontal acceleration, exactly the mechanism the firmware's position
  controller relies on.
* Linear drag opposes velocity relative to the wind.
* Ground contact clamps the vehicle at terrain height and records the
  impact speed so the collision detector can distinguish a landing from
  a crash.

What matters for the reproduction is that mishandled sensor failures
produce the same *observable* consequences as in the paper: overshoot,
fly-away, loss of position hold, and high-speed ground impact.

:class:`FleetPhysics` is the only integrator.  It keeps every fleet
member's state in flat per-component arrays (``position_north[v]``,
``velocity_east[v]``, ...) and advances all of them in one
:meth:`~FleetPhysics.step_all` call; a single vehicle is a fleet of
one.  Each vehicle's arithmetic runs in a fixed order (attitude lag,
body-z thrust decomposition, linear drag, Euler integration, ground
clamp), and trajectories, impact speeds and timestamps are pinned to
recorded digests by ``tests/test_fast_core.py``.  Air-to-ground
transitions of the latest step are exposed as :class:`Touchdown`
records, from which the simulator derives ground-impact collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sim.environment import Environment
from repro.sim.physics import GRAVITY, ActuatorCommand
from repro.sim.state import AttitudeState, VehicleState, Vector3, wrap_angle
from repro.sim.vehicle import AirframeParameters


@dataclass(frozen=True)
class Touchdown:
    """One air-to-ground transition of one fleet member.

    ``time`` is the post-step timestamp (the same value the state
    snapshot of that micro-step carries), ``speed`` the downward
    velocity at contact, and ``position`` the terrain-clamped contact
    point -- the fields of a ground-impact collision event.
    """

    time: float
    vehicle: int
    speed: float
    position: Tuple[float, float, float]


class FleetPhysics:
    """Fixed-step integrator advancing every fleet member in one call."""

    def __init__(
        self,
        airframes: Sequence[AirframeParameters],
        environment: Environment,
        dt: float = 0.01,
        attitude_time_constant: float = 0.15,
    ) -> None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if not airframes:
            raise ValueError("a fleet needs at least one airframe")
        self.environment = environment
        self.dt = dt
        self.attitude_time_constant = attitude_time_constant
        self._airframes: List[AirframeParameters] = list(airframes)
        n = len(self._airframes)
        self._n = n

        # Per-airframe parameter arrays.
        self._mass = [frame.mass_kg for frame in self._airframes]
        self._drag = [frame.drag_coefficient for frame in self._airframes]
        self._max_thrust = [frame.max_thrust_n for frame in self._airframes]
        self._max_tilt = [frame.max_tilt_rad for frame in self._airframes]
        self._max_yaw_rate = [frame.max_yaw_rate_rads for frame in self._airframes]

        # Flat per-component state arrays (index = fleet member).
        start_height = environment.terrain_height(0.0, 0.0)
        self._time = 0.0
        self._pos_n = [0.0] * n
        self._pos_e = [0.0] * n
        self._pos_u = [start_height] * n
        self._vel_n = [0.0] * n
        self._vel_e = [0.0] * n
        self._vel_u = [0.0] * n
        self._acc_n = [0.0] * n
        self._acc_e = [0.0] * n
        self._acc_u = [0.0] * n
        self._att_roll = [0.0] * n
        self._att_pitch = [0.0] * n
        self._att_yaw = [0.0] * n
        self._rate_roll = [0.0] * n
        self._rate_pitch = [0.0] * n
        self._rate_yaw = [0.0] * n
        self._on_ground = [True] * n
        self._armed = [False] * n
        self._last_impact = [0.0] * n

        #: Touchdowns of the most recent step, one slot per vehicle.
        self._step_touchdowns: List[Optional[Touchdown]] = [None] * n

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def fleet_size(self) -> int:
        """Number of vehicles advanced per step."""
        return self._n

    @property
    def time(self) -> float:
        """Current simulation time in seconds (shared by the fleet)."""
        return self._time

    def last_impact_speed(self, vehicle: int = 0) -> float:
        """Vertical speed (m/s) recorded at a vehicle's last ground contact."""
        return self._last_impact[vehicle]

    def snapshot(self, vehicle: int = 0) -> VehicleState:
        """Immutable state snapshot of one fleet member."""
        v = vehicle
        return VehicleState(
            self._time,
            (self._pos_n[v], self._pos_e[v], self._pos_u[v]),
            (self._vel_n[v], self._vel_e[v], self._vel_u[v]),
            (self._acc_n[v], self._acc_e[v], self._acc_u[v]),
            AttitudeState(self._att_roll[v], self._att_pitch[v], self._att_yaw[v]),
            (self._rate_roll[v], self._rate_pitch[v], self._rate_yaw[v]),
            self._on_ground[v],
            self._armed[v],
        )

    def snapshots(self) -> List[VehicleState]:
        """State snapshots of every fleet member, in index order."""
        return [self.snapshot(vehicle) for vehicle in range(self._n)]

    def step_touchdown(self, vehicle: int) -> Optional[Touchdown]:
        """The touchdown a vehicle made on the most recent step."""
        return self._step_touchdowns[vehicle]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_all(self, commands: Sequence[ActuatorCommand]) -> List[VehicleState]:
        """Advance every vehicle by one time-step, one command per vehicle.

        Returns a new list of the post-step snapshots, in index order.
        """
        if len(commands) != self._n:
            raise ValueError(f"expected {self._n} command(s), got {len(commands)}")
        # The wind field is a pure function of time shared by the fleet:
        # one evaluation serves every vehicle (all see the pre-step time).
        wind_north, wind_east = self.environment.wind.velocity_at(self._time)
        time_after = self._time + self.dt
        states = self._integrate(commands, wind_north, wind_east, time_after)
        self._time = time_after
        return states

    def teleport(
        self, vehicle: int, position: Vector3, velocity: Vector3 = (0.0, 0.0, 0.0)
    ) -> None:
        """Place one vehicle at ``position`` (launch pads, unit tests)."""
        self._pos_n[vehicle], self._pos_e[vehicle], self._pos_u[vehicle] = position
        self._vel_n[vehicle], self._vel_e[vehicle], self._vel_u[vehicle] = velocity
        self._on_ground[vehicle] = self.environment.is_below_ground(tuple(position))

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def _integrate(
        self,
        commands: Sequence[ActuatorCommand],
        wind_north: float,
        wind_east: float,
        time_after: float,
    ) -> List[VehicleState]:
        """Clamp, attitude lag, thrust, drag, Euler update and ground
        clamp, one vehicle at a time; returns the post-step snapshots.

        Each vehicle's state is read into locals once and written back
        once.  Every command channel is clamped to the airframe's limits
        as it is read (a disarmed command's attitude and throttle are
        never used, so they are not clamped).
        """
        dt = self.dt
        alpha = min(dt / self.attitude_time_constant, 1.0)
        cos = math.cos
        sin = math.sin
        terrain_height = self.environment.terrain_height
        on_ground_of = self._on_ground
        states = []
        for v in range(self._n):
            command = commands[v]
            armed = command.armed
            on_ground = on_ground_of[v]

            # First-order attitude lag (disarmed motors relax to level).
            prev_roll = self._att_roll[v]
            prev_pitch = self._att_pitch[v]
            prev_yaw = self._att_yaw[v]
            if armed:
                tilt = self._max_tilt[v]
                target_roll = min(max(command.target_roll, -tilt), tilt)
                target_pitch = min(max(command.target_pitch, -tilt), tilt)
                thrust = min(max(command.throttle, 0.0), 1.0) * self._max_thrust[v]
            else:
                target_roll = 0.0
                target_pitch = 0.0
                thrust = 0.0
            roll = prev_roll + (target_roll - prev_roll) * alpha
            pitch = prev_pitch + (target_pitch - prev_pitch) * alpha
            yaw = prev_yaw
            if armed and not on_ground:
                yaw_rate_limit = self._max_yaw_rate[v]
                yaw_rate = min(max(command.target_yaw_rate, -yaw_rate_limit), yaw_rate_limit)
                yaw = wrap_angle(prev_yaw + yaw_rate * dt)
            rate_roll = (roll - prev_roll) / dt
            rate_pitch = (pitch - prev_pitch) / dt
            rate_yaw = (yaw - prev_yaw) / dt

            # Body-z thrust decomposed into the local frame.  Positive
            # pitch tilts the nose down producing +north acceleration;
            # positive roll produces +east acceleration (after rotating
            # through yaw).
            vertical_thrust = thrust * cos(roll) * cos(pitch)
            forward = thrust * sin(pitch)
            right = thrust * sin(roll)
            thrust_north = forward * cos(yaw) - right * sin(yaw)
            thrust_east = forward * sin(yaw) + right * cos(yaw)

            drag = self._drag[v]
            mass = self._mass[v]
            vel_n = self._vel_n[v]
            vel_e = self._vel_e[v]
            vel_u = self._vel_u[v]
            accel_north = (thrust_north - drag * (vel_n - wind_north)) / mass
            accel_east = (thrust_east - drag * (vel_e - wind_east)) / mass
            accel_up = (vertical_thrust - drag * vel_u) / mass - GRAVITY

            if on_ground and accel_up <= 0.0:
                # Resting on the ground: normal force cancels gravity.
                accel_up = 0.0
                accel_north = 0.0
                accel_east = 0.0
                vel_n = 0.0
                vel_e = 0.0
                vel_u = 0.0

            vel_n += accel_north * dt
            pos_n = self._pos_n[v] + vel_n * dt
            vel_e += accel_east * dt
            pos_e = self._pos_e[v] + vel_e * dt
            vel_u += accel_up * dt
            pos_u = self._pos_u[v] + vel_u * dt

            # Ground contact: clamp to terrain, record impacts and
            # touchdowns.
            touchdown = None
            terrain = terrain_height(pos_n, pos_e)
            if pos_u <= terrain:
                impact_speed = max(-vel_u, 0.0)
                if not on_ground:
                    self._last_impact[v] = impact_speed
                    touchdown = Touchdown(
                        time=time_after,
                        vehicle=v,
                        speed=impact_speed,
                        position=(pos_n, pos_e, terrain),
                    )
                pos_u = terrain
                vel_u = 0.0
                on_ground = True
            elif pos_u > terrain + 0.02:
                on_ground = False
            self._step_touchdowns[v] = touchdown

            self._armed[v] = armed
            self._att_roll[v] = roll
            self._att_pitch[v] = pitch
            self._att_yaw[v] = yaw
            self._rate_roll[v] = rate_roll
            self._rate_pitch[v] = rate_pitch
            self._rate_yaw[v] = rate_yaw
            self._acc_n[v] = accel_north
            self._acc_e[v] = accel_east
            self._acc_u[v] = accel_up
            self._vel_n[v] = vel_n
            self._vel_e[v] = vel_e
            self._vel_u[v] = vel_u
            self._pos_n[v] = pos_n
            self._pos_e[v] = pos_e
            self._pos_u[v] = pos_u
            on_ground_of[v] = on_ground
            states.append(
                VehicleState(
                    time_after,
                    (pos_n, pos_e, pos_u),
                    (vel_n, vel_e, vel_u),
                    (accel_north, accel_east, accel_up),
                    AttitudeState(roll, pitch, yaw),
                    (rate_roll, rate_pitch, rate_yaw),
                    on_ground,
                    armed,
                )
            )
        return states
