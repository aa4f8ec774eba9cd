"""Unit tests for the quadcopter physics model, and its step checked bit for
bit against the copy-per-vehicle integrator it replaced."""

import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.sim.environment import Environment, Wind
from repro.sim.fleet_physics import FleetPhysics, Touchdown
from repro.sim.physics import GRAVITY, HARD_IMPACT_SPEED, ActuatorCommand
from repro.sim.state import VehicleState, wrap_angle
from repro.sim.vehicle import IRIS_QUADCOPTER, SOLO_QUADCOPTER, AirframeParameters


def make_physics(dt: float = 0.02, environment: Environment = None) -> FleetPhysics:
    return FleetPhysics(
        airframes=[IRIS_QUADCOPTER],
        environment=environment if environment is not None else Environment(),
        dt=dt,
    )


def step(physics: FleetPhysics, command: ActuatorCommand) -> VehicleState:
    """Advance the single vehicle one step and return its new state."""
    return physics.step_all([command])[0]


class TestAirframeParameters:
    def test_hover_throttle_below_one(self):
        assert 0.0 < IRIS_QUADCOPTER.hover_throttle < 1.0

    def test_thrust_to_weight_above_one(self):
        assert IRIS_QUADCOPTER.max_thrust_n > IRIS_QUADCOPTER.weight_n

    def test_rejects_underpowered_airframe(self):
        with pytest.raises(ValueError):
            AirframeParameters(
                name="brick",
                mass_kg=2.0,
                arm_length_m=0.2,
                max_thrust_n=10.0,
                max_tilt_rad=0.5,
                drag_coefficient=0.3,
                max_climb_rate_ms=2.0,
                max_descent_rate_ms=2.0,
                max_horizontal_speed_ms=10.0,
                max_yaw_rate_rads=2.0,
            )

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            AirframeParameters(
                name="ghost",
                mass_kg=0.0,
                arm_length_m=0.2,
                max_thrust_n=10.0,
                max_tilt_rad=0.5,
                drag_coefficient=0.3,
                max_climb_rate_ms=2.0,
                max_descent_rate_ms=2.0,
                max_horizontal_speed_ms=10.0,
                max_yaw_rate_rads=2.0,
            )


class TestGroundBehaviour:
    def test_starts_on_ground(self):
        physics = make_physics()
        assert physics.snapshot().on_ground is True

    def test_disarmed_vehicle_stays_put(self):
        physics = make_physics()
        for _ in range(100):
            state = step(physics, ActuatorCommand(armed=False))
        assert state.position == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)

    def test_low_throttle_does_not_lift_off(self):
        physics = make_physics()
        for _ in range(200):
            state = step(physics, ActuatorCommand(throttle=0.2, armed=True))
        assert state.on_ground is True


class TestFlightDynamics:
    def test_full_throttle_climbs(self):
        physics = make_physics()
        for _ in range(200):
            state = step(physics, ActuatorCommand(throttle=1.0, armed=True))
        assert state.altitude > 5.0
        assert state.climb_rate > 0.0

    def test_hover_throttle_lets_climb_rate_decay(self):
        physics = make_physics()
        # Climb first, then hold hover throttle: the climb rate must decay
        # toward zero (drag is the only vertical damping at hover).
        for _ in range(150):
            step(physics, ActuatorCommand(throttle=0.9, armed=True))
        climb_rate_after_climb = physics.snapshot().climb_rate
        hover = IRIS_QUADCOPTER.hover_throttle
        for _ in range(400):
            state = step(physics, ActuatorCommand(throttle=hover, armed=True))
        assert abs(state.climb_rate) < climb_rate_after_climb * 0.3
        assert not state.on_ground

    def test_pitch_produces_forward_motion(self):
        physics = make_physics()
        for _ in range(100):
            step(physics, ActuatorCommand(throttle=0.9, armed=True))
        for _ in range(200):
            state = step(
                physics,
                ActuatorCommand(throttle=0.6, target_pitch=0.2, armed=True)
            )
        assert state.position[0] > 2.0

    def test_throttle_cut_causes_freefall_and_impact(self):
        physics = make_physics()
        for _ in range(300):
            step(physics, ActuatorCommand(throttle=1.0, armed=True))
        assert physics.snapshot().altitude > 10.0
        for _ in range(600):
            state = step(physics, ActuatorCommand(throttle=0.0, armed=True))
            if state.on_ground:
                break
        assert state.on_ground is True
        assert physics.last_impact_speed(0) > 2.0

    def test_drag_limits_terminal_speed(self):
        physics = make_physics()
        for _ in range(100):
            step(physics, ActuatorCommand(throttle=0.9, armed=True))
        for _ in range(1500):
            state = step(
                physics,
                ActuatorCommand(throttle=0.8, target_pitch=0.4, armed=True)
            )
        # Drag must bound the speed to something finite and plausible.
        assert state.ground_speed < 40.0


class TestCommandClamping:
    def test_clamps_throttle_and_tilt(self):
        physics = make_physics()
        command = ActuatorCommand(throttle=2.0, target_roll=3.0, target_pitch=-3.0, armed=True)
        state = step(physics, command)
        # A clamped full-throttle, full-tilt command: the attitude lag
        # moves one alpha of the way toward the tilt limit.
        alpha = min(physics.dt / physics.attitude_time_constant, 1.0)
        limit = IRIS_QUADCOPTER.max_tilt_rad
        assert state.attitude.roll == (limit - 0.0) * alpha
        assert state.attitude.pitch == (-limit - 0.0) * alpha
        roll, pitch = state.attitude.roll, state.attitude.pitch
        thrust = IRIS_QUADCOPTER.max_thrust_n
        expected_up = (
            thrust * math.cos(roll) * math.cos(pitch)
            - IRIS_QUADCOPTER.drag_coefficient * 0.0
        ) / IRIS_QUADCOPTER.mass_kg - GRAVITY
        assert state.acceleration[2] == expected_up

    def test_clamps_negative_throttle_to_zero_thrust(self):
        physics = make_physics()
        for _ in range(100):
            step(physics, ActuatorCommand(throttle=1.0, armed=True))
        before = physics.snapshot()
        state = step(physics, ActuatorCommand(throttle=-5.0, armed=True))
        expected_up = (
            0.0 - IRIS_QUADCOPTER.drag_coefficient * before.velocity[2]
        ) / IRIS_QUADCOPTER.mass_kg - GRAVITY
        assert state.acceleration[2] == expected_up

    def test_clamps_yaw_rate(self):
        physics = make_physics()
        for _ in range(100):
            step(physics, ActuatorCommand(throttle=1.0, armed=True))
        assert not physics.snapshot().on_ground
        yaw = physics.snapshot().attitude.yaw
        limit = IRIS_QUADCOPTER.max_yaw_rate_rads
        state = step(physics, ActuatorCommand(throttle=1.0, target_yaw_rate=100.0, armed=True))
        assert state.attitude.yaw == wrap_angle(yaw + limit * physics.dt)
        yaw = state.attitude.yaw
        state = step(physics, ActuatorCommand(throttle=1.0, target_yaw_rate=-100.0, armed=True))
        assert state.attitude.yaw == wrap_angle(yaw + -limit * physics.dt)


class TestWindEffects:
    def test_wind_pushes_hovering_vehicle(self):
        windy = Environment(wind=Wind(north_ms=6.0))
        physics = make_physics(environment=windy)
        for _ in range(150):
            step(physics, ActuatorCommand(throttle=0.9, armed=True))
        for _ in range(400):
            state = step(
                physics,
                ActuatorCommand(throttle=IRIS_QUADCOPTER.hover_throttle, armed=True)
            )
        assert state.position[0] > 1.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            make_physics(dt=0.0)


# ----------------------------------------------------------------------
# Bit identity of the step against the copy-per-vehicle reference
# ----------------------------------------------------------------------
def reference_wrap_angle(angle):
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def reference_clamped(command, airframe):
    """The per-vehicle clamped command copy the integrator once consumed."""
    tilt = airframe.max_tilt_rad
    return ActuatorCommand(
        throttle=min(max(command.throttle, 0.0), 1.0),
        target_roll=min(max(command.target_roll, -tilt), tilt),
        target_pitch=min(max(command.target_pitch, -tilt), tilt),
        target_yaw_rate=min(
            max(command.target_yaw_rate, -airframe.max_yaw_rate_rads),
            airframe.max_yaw_rate_rads,
        ),
        armed=command.armed,
    )


class ReferenceFleetPhysics(FleetPhysics):
    """The step as it was before the clamp went inline: a clamped copy of
    every command, then the array-indexing integrator and ground clamp."""

    def step_all(self, commands):
        clamped = [
            reference_clamped(command, self._airframes[vehicle])
            for vehicle, command in enumerate(commands)
        ]
        wind_north, wind_east = self.environment.wind.velocity_at(self._time)
        self._integrate(clamped, wind_north, wind_east)
        self._ground_contact()
        self._time += self.dt
        return self.snapshots()

    def _integrate(self, clamped, wind_north, wind_east):
        dt = self.dt
        alpha = min(dt / self.attitude_time_constant, 1.0)
        for v in range(self._n):
            command = clamped[v]
            armed = command.armed
            self._armed[v] = armed

            if not armed:
                target_roll = 0.0
                target_pitch = 0.0
            else:
                target_roll = command.target_roll
                target_pitch = command.target_pitch
            prev_roll = self._att_roll[v]
            prev_pitch = self._att_pitch[v]
            prev_yaw = self._att_yaw[v]
            self._att_roll[v] += (target_roll - self._att_roll[v]) * alpha
            self._att_pitch[v] += (target_pitch - self._att_pitch[v]) * alpha
            if armed and not self._on_ground[v]:
                self._att_yaw[v] = reference_wrap_angle(
                    self._att_yaw[v] + command.target_yaw_rate * dt
                )
            self._rate_roll[v] = (self._att_roll[v] - prev_roll) / dt
            self._rate_pitch[v] = (self._att_pitch[v] - prev_pitch) / dt
            self._rate_yaw[v] = (self._att_yaw[v] - prev_yaw) / dt

            thrust = command.throttle * self._max_thrust[v] if armed else 0.0
            roll = self._att_roll[v]
            pitch = self._att_pitch[v]
            yaw = self._att_yaw[v]
            vertical_thrust = thrust * math.cos(roll) * math.cos(pitch)
            forward = thrust * math.sin(pitch)
            right = thrust * math.sin(roll)
            thrust_north = forward * math.cos(yaw) - right * math.sin(yaw)
            thrust_east = forward * math.sin(yaw) + right * math.cos(yaw)

            drag = self._drag[v]
            mass = self._mass[v]
            accel_north = (
                thrust_north - drag * (self._vel_n[v] - wind_north)
            ) / mass
            accel_east = (thrust_east - drag * (self._vel_e[v] - wind_east)) / mass
            accel_up = (vertical_thrust - drag * self._vel_u[v]) / mass - GRAVITY

            if self._on_ground[v] and accel_up <= 0.0:
                accel_up = 0.0
                accel_north = 0.0
                accel_east = 0.0
                self._vel_n[v] = 0.0
                self._vel_e[v] = 0.0
                self._vel_u[v] = 0.0

            self._acc_n[v] = accel_north
            self._acc_e[v] = accel_east
            self._acc_u[v] = accel_up
            self._vel_n[v] += accel_north * dt
            self._pos_n[v] += self._vel_n[v] * dt
            self._vel_e[v] += accel_east * dt
            self._pos_e[v] += self._vel_e[v] * dt
            self._vel_u[v] += accel_up * dt
            self._pos_u[v] += self._vel_u[v] * dt

    def _ground_contact(self):
        time_after = self._time + self.dt
        for v in range(self._n):
            self._step_touchdowns[v] = None
            terrain = self.environment.terrain_height(self._pos_n[v], self._pos_e[v])
            if self._pos_u[v] <= terrain:
                impact_speed = max(-self._vel_u[v], 0.0)
                if not self._on_ground[v]:
                    self._last_impact[v] = impact_speed
                    self._step_touchdowns[v] = Touchdown(
                        time=time_after,
                        vehicle=v,
                        speed=impact_speed,
                        position=(self._pos_n[v], self._pos_e[v], terrain),
                    )
                self._pos_u[v] = terrain
                self._vel_u[v] = 0.0
                self._on_ground[v] = True
            elif self._pos_u[v] > terrain + 0.02:
                self._on_ground[v] = False


def state_bits(state):
    """Every field of a snapshot, floats by ``float.hex`` (signed zeros
    included)."""
    return (
        state.time.hex(),
        tuple(value.hex() for value in state.position),
        tuple(value.hex() for value in state.velocity),
        tuple(value.hex() for value in state.acceleration),
        tuple(value.hex() for value in state.attitude.as_tuple()),
        tuple(value.hex() for value in state.angular_rate),
        state.on_ground,
        state.armed,
    )


def touchdown_bits(touchdown):
    if touchdown is None:
        return None
    return (
        touchdown.time.hex(),
        touchdown.vehicle,
        touchdown.speed.hex(),
        tuple(value.hex() for value in touchdown.position),
    )


def fly_both(airframes, wind, dt, tape):
    """Fly ``tape`` (a list of per-vehicle command lists) through the
    integrator and the reference in lock-step, asserting after every step
    that they agree bit for bit; return whether the reference recorded a
    hard touchdown."""
    fleets = [
        cls(airframes=airframes, environment=Environment(wind=wind), dt=dt)
        for cls in (FleetPhysics, ReferenceFleetPhysics)
    ]
    for physics in fleets:
        for vehicle in range(1, len(airframes)):
            physics.teleport(vehicle, (0.0, vehicle * 8.0, 0.0))
    hard = False
    for step, commands in enumerate(tape):
        lines = []
        for physics in fleets:
            states = physics.step_all(commands)
            touchdowns = [physics.step_touchdown(v) for v in range(len(airframes))]
            lines.append(
                (
                    [state_bits(state) for state in states],
                    [touchdown_bits(touchdown) for touchdown in touchdowns],
                    [physics.last_impact_speed(v).hex() for v in range(len(airframes))],
                    physics.time.hex(),
                )
            )
        assert lines[0] == lines[1], f"step {step}"
        hard = hard or any(
            touchdown is not None and touchdown.speed >= HARD_IMPACT_SPEED
            for touchdown in touchdowns
        )
    return hard


#: Scripted prefixes: rest on the pad, a lift-off and hover, and a climb
#: then a throttle cut into a hard touchdown.  Each is (seconds, throttle).
PREFIXES = {
    "rest": [(0.5, 0.0)],
    "liftoff": [(1.5, 0.9), (1.0, 0.6)],
    "crash": [(1.5, 1.0), (5.0, 0.0)],
}


def prefix_tape(prefix, dt, fleet_size):
    return [
        [ActuatorCommand(throttle=throttle, armed=True)] * fleet_size
        for seconds, throttle in PREFIXES[prefix]
        for _ in range(round(seconds / dt))
    ]

unbounded_command = st.builds(
    ActuatorCommand,
    throttle=st.floats(-1.0, 2.5, allow_nan=False),
    target_roll=st.floats(-3.0, 3.0, allow_nan=False),
    target_pitch=st.floats(-3.0, 3.0, allow_nan=False),
    target_yaw_rate=st.floats(-20.0, 20.0, allow_nan=False),
    armed=st.booleans(),
)


class TestStepMatchesReference:
    def test_scripted_crash_lands_hard(self):
        tape = prefix_tape("crash", 0.02, 2)
        assert fly_both([IRIS_QUADCOPTER, SOLO_QUADCOPTER], Wind(), 0.02, tape)

    # A failing tape is reported as drawn, unshrunk: shrinking tapes of
    # hundreds of steps takes minutes, and the message names the step.
    @settings(
        max_examples=150,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(
        airframes=st.lists(
            st.sampled_from([IRIS_QUADCOPTER, SOLO_QUADCOPTER]), min_size=1, max_size=3
        ),
        prefix=st.sampled_from(sorted(PREFIXES)),
        segments=st.lists(
            st.tuples(st.integers(1, 40), st.lists(unbounded_command, min_size=3, max_size=3)),
            min_size=1,
            max_size=6,
        ),
        wind=st.builds(
            Wind,
            north_ms=st.floats(-8.0, 8.0, allow_nan=False),
            east_ms=st.floats(-8.0, 8.0, allow_nan=False),
            gust_amplitude_ms=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
            gust_period_s=st.floats(0.5, 10.0),
        ),
        dt=st.sampled_from([0.01, 0.02, 0.2]),
    )
    def test_step_matches_reference_bit_for_bit(self, airframes, prefix, segments, wind, dt):
        n = len(airframes)
        tape = prefix_tape(prefix, dt, n)
        for steps, commands in segments:
            tape += [commands[:n]] * steps
        fly_both(airframes, wind, dt, tape)
