"""Flight simulator substrate.

The paper runs ArduPilot / PX4 against Gazebo in lock-step: at every
simulation time-step the simulator produces the vehicle's physical state,
sensor models synthesise readings from it, the firmware computes actuator
outputs, and the simulator integrates the dynamics forward.  This package
provides the Python equivalent of that loop:

* :mod:`repro.sim.state` -- the vehicle's physical state (position,
  velocity, acceleration, attitude, rates) expressed in a local NED-like
  frame with *up-positive* altitude for readability.
* :mod:`repro.sim.physics` -- the actuator command the firmware emits and
  the physical constants shared across the stack.
* :mod:`repro.sim.fleet_physics` -- the quadcopter dynamics: one
  integrator advancing every fleet member (a single vehicle is a fleet
  of one) with a fixed step, including ground contact and a simple drag
  model.
* :mod:`repro.sim.planner` -- the adaptive stepper's quiescence planner.
* :mod:`repro.sim.vehicle` -- airframe parameter sets; the default is the
  3DR Iris quadcopter used for every experiment in the paper.
* :mod:`repro.sim.environment` -- the physical world: ground plane,
  obstacles, geo-fences, wind, and home location.
* :mod:`repro.sim.simulator` -- the lock-step stepper that ties physics,
  environment, and collision detection together and exposes the
  ``step()`` interface Avis drives (Figure 7 of the paper).
"""

from repro.sim.environment import Environment, FenceRegion, Obstacle, Wind
from repro.sim.fleet_physics import FleetPhysics, Touchdown
from repro.sim.planner import StepPlanner
from repro.sim.simulator import CollisionEvent, SimulationClock, Simulator
from repro.sim.state import AttitudeState, VehicleState
from repro.sim.vehicle import IRIS_QUADCOPTER, AirframeParameters

__all__ = [
    "AirframeParameters",
    "AttitudeState",
    "CollisionEvent",
    "Environment",
    "FenceRegion",
    "FleetPhysics",
    "IRIS_QUADCOPTER",
    "Obstacle",
    "SimulationClock",
    "Simulator",
    "StepPlanner",
    "Touchdown",
    "VehicleState",
    "Wind",
]
