"""Unit tests for the quadcopter physics model (a fleet of one)."""

import pytest

from repro.sim.environment import Environment, Wind
from repro.sim.fleet_physics import FleetPhysics
from repro.sim.physics import ActuatorCommand
from repro.sim.state import VehicleState
from repro.sim.vehicle import IRIS_QUADCOPTER, AirframeParameters


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
        command = ActuatorCommand(throttle=2.0, target_roll=3.0, target_pitch=-3.0)
        clamped = command.clamped(IRIS_QUADCOPTER)
        assert clamped.throttle == 1.0
        assert clamped.target_roll == IRIS_QUADCOPTER.max_tilt_rad
        assert clamped.target_pitch == -IRIS_QUADCOPTER.max_tilt_rad

    def test_clamps_yaw_rate(self):
        command = ActuatorCommand(target_yaw_rate=100.0)
        clamped = command.clamped(IRIS_QUADCOPTER)
        assert clamped.target_yaw_rate == IRIS_QUADCOPTER.max_yaw_rate_rads


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
