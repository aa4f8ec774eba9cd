"""Unit tests for the lock-step simulator."""

import pytest

from repro.sim.environment import Environment, FenceRegion, Obstacle
from repro.sim.physics import ActuatorCommand
from repro.sim.simulator import SimulationClock, Simulator


class TestSimulationClock:
    def test_advance(self):
        clock = SimulationClock(dt=0.02)
        assert clock.time == 0.0
        clock.advance()
        clock.advance()
        assert clock.ticks == 2
        assert clock.time == pytest.approx(0.04)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            SimulationClock(dt=-1.0)


class TestSimulatorStepping:
    def test_time_advances_per_step(self):
        simulator = Simulator(dt=0.02)
        simulator.step(ActuatorCommand(armed=False))
        simulator.step(ActuatorCommand(armed=False))
        assert simulator.time == pytest.approx(0.04)

    def test_step_returns_the_new_state(self):
        # Callers read the state a step returns; there is no listener.
        simulator = Simulator(dt=0.02)
        state = simulator.step(ActuatorCommand(armed=False))
        assert state is simulator.state
        assert state.time == pytest.approx(0.02)


class TestCollisionDetection:
    def test_hard_ground_impact_is_recorded(self):
        simulator = Simulator(dt=0.02)
        for _ in range(300):
            simulator.step(ActuatorCommand(throttle=1.0, armed=True))
        assert simulator.state.altitude > 10.0
        for _ in range(800):
            simulator.step(ActuatorCommand(throttle=0.0, armed=True))
            if simulator.has_crashed:
                break
        assert simulator.has_crashed
        assert simulator.collisions[0].impact_speed >= 2.0
        assert simulator.collisions[0].with_ground

    def test_soft_landing_is_not_a_collision(self):
        simulator = Simulator(dt=0.02)
        hover = simulator.airframe.hover_throttle
        for _ in range(100):
            simulator.step(ActuatorCommand(throttle=0.6, armed=True))
        # Descend gently by holding slightly below hover (terminal descent
        # of roughly 1.3 m/s, below the hard-impact threshold).
        for _ in range(3000):
            simulator.step(ActuatorCommand(throttle=hover * 0.97, armed=True))
            if simulator.state.on_ground:
                break
        assert simulator.state.on_ground
        assert not simulator.has_crashed

    def test_obstacle_collision_recorded(self):
        tower = Obstacle("tower", 3.0, 0.0, 2.0, 2.0, 200.0)
        simulator = Simulator(environment=Environment(obstacles=(tower,)), dt=0.02)
        for _ in range(100):
            simulator.step(ActuatorCommand(throttle=1.0, armed=True))
        for _ in range(600):
            simulator.step(
                ActuatorCommand(throttle=0.65, target_pitch=0.3, armed=True)
            )
            if simulator.has_crashed:
                break
        assert simulator.has_crashed
        assert any(event.obstacle == "tower" for event in simulator.collisions)


class TestFenceBreach:
    def test_breach_recorded_once_per_entry(self):
        fence = FenceRegion("nofly", 1.0, 100.0, -100.0, 100.0)
        simulator = Simulator(environment=Environment(fences=(fence,)), dt=0.02)
        for _ in range(150):
            simulator.step(ActuatorCommand(throttle=1.0, armed=True))
        for _ in range(400):
            simulator.step(
                ActuatorCommand(throttle=0.65, target_pitch=0.3, armed=True)
            )
        assert len(simulator.fence_breaches) == 1
        assert simulator.fence_breaches[0].fence == "nofly"
