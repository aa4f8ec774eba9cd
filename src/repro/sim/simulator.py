"""Lock-step simulator: the substrate equivalent of SITL + Gazebo.

Figure 7 of the paper shows one time-step of the Avis process: the
workload calls ``step()``, the simulator advances time, sensors are
simulated, faults are injected, the firmware produces actuator outputs,
and the vehicle state is updated.  :class:`Simulator` owns steps 2, 3
(via the sensor suite it feeds), 5 and 6 of that loop and records the
events the invariant monitor consumes (collisions, fence breaches,
firmware process death).

The simulator hosts a *fleet* of one or more vehicles sharing a single
environment and clock.  The classic single-vehicle interface
(:meth:`step`, :attr:`state`, the event logs) is untouched and, for
fleet size 1, behaviourally identical to the pre-fleet simulator; fleet
runs use :meth:`step_fleet` / :attr:`states` and additionally produce
inter-vehicle :class:`ProximityEvent` records plus a running minimum
pairwise separation used to calibrate the separation invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.recorder import FlightEvent
from repro.sim.environment import Environment, FenceRegion, Obstacle, default_environment
from repro.sim.fleet_physics import FleetPhysics
from repro.sim.physics import HARD_IMPACT_SPEED, ActuatorCommand
from repro.sim.state import VehicleState
from repro.sim.vehicle import IRIS_QUADCOPTER, AirframeParameters

#: Default east spacing between fleet launch pads, in metres.
DEFAULT_PAD_SPACING_M = 8.0


@dataclass(frozen=True)
class CollisionEvent:
    """A physical collision detected by the simulator.

    The paper's safety invariant flags a collision when the vehicle
    "rapidly (de)accelerates but has the same position as another
    simulated object, e.g. the ground".  We record both the obstacle (or
    ground) involved and the impact speed so reports can describe the
    severity of the event.  ``vehicle`` identifies the fleet member
    involved (always 0 for classic single-vehicle runs).
    """

    time: float
    position: tuple
    impact_speed: float
    obstacle: Optional[str] = None
    vehicle: int = 0

    @property
    def with_ground(self) -> bool:
        """True when the collision was with the ground plane."""
        return self.obstacle is None

    def describe(self) -> str:
        """Human-readable one-line description for reports."""
        target = self.obstacle if self.obstacle else "ground"
        prefix = f"vehicle {self.vehicle} " if self.vehicle else ""
        return (
            f"{prefix}collision with {target} at t={self.time:.2f}s, "
            f"impact speed {self.impact_speed:.2f} m/s"
        )


@dataclass(frozen=True)
class FenceBreachEvent:
    """A vehicle entered a keep-out fence region."""

    time: float
    position: tuple
    fence: str
    vehicle: int = 0


@dataclass(frozen=True)
class ProximityEvent:
    """Two airborne fleet members came dangerously close.

    One event is recorded per conflict *entry*: the pair must separate
    beyond the threshold again before a new event can be recorded, the
    same one-event-per-entry policy the fence breach log uses.
    """

    time: float
    vehicle_a: int
    vehicle_b: int
    distance_m: float
    position_a: tuple
    position_b: tuple

    def describe(self) -> str:
        """Human-readable one-line description for reports."""
        return (
            f"vehicles {self.vehicle_a} and {self.vehicle_b} within "
            f"{self.distance_m:.2f} m at t={self.time:.2f}s"
        )


@dataclass
class SimulationClock:
    """Fixed-step simulation clock shared by every component.

    The paper advances simulated time by a fixed unit per ``step()``
    call; keeping the clock in one object lets the firmware, sensors and
    monitor agree on "now" without asking the physics engine.
    """

    dt: float = 0.01
    _ticks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def time(self) -> float:
        """Current simulation time in seconds."""
        return self._ticks * self.dt

    @property
    def ticks(self) -> int:
        """Number of elapsed time-steps."""
        return self._ticks

    def advance(self) -> float:
        """Advance the clock by one step and return the new time."""
        self._ticks += 1
        return self.time


class Simulator:
    """Owns the physical world and the dynamics of a fleet of vehicles.

    The simulator exposes exactly the interface the rest of the stack
    needs:

    * :meth:`step` / :meth:`step_fleet` -- integrate one time-step given
      the firmware actuator command(s) and return the new state(s).
    * :attr:`state` / :attr:`states` -- the latest state snapshot(s)
      (step 3 of Figure 7 reads sensor values from them).
    * :attr:`collisions` / :attr:`fence_breaches` /
      :attr:`proximity_events` -- the event log the invariant monitor
      inspects.
    """

    def __init__(
        self,
        airframe: AirframeParameters = IRIS_QUADCOPTER,
        environment: Optional[Environment] = None,
        dt: float = 0.01,
        fleet_size: int = 1,
        pad_spacing_m: float = DEFAULT_PAD_SPACING_M,
        proximity_threshold_m: float = 0.0,
        airframes: Optional[Sequence[AirframeParameters]] = None,
    ) -> None:
        if fleet_size < 1:
            raise ValueError("a simulation needs at least one vehicle")
        if airframes is not None:
            airframes = list(airframes)
            if len(airframes) != fleet_size:
                raise ValueError("one airframe per fleet member required")
            airframe = airframes[0]
        else:
            airframes = [airframe] * fleet_size
        self.airframe = airframe
        self.airframes: List[AirframeParameters] = airframes
        self.environment = environment if environment is not None else default_environment()
        self.clock = SimulationClock(dt=dt)
        self.fleet_size = fleet_size
        self.pad_spacing_m = pad_spacing_m
        self.proximity_threshold_m = proximity_threshold_m

        self._fleet = FleetPhysics(
            airframes=airframes, environment=self.environment, dt=dt
        )
        for vehicle in range(1, fleet_size):
            north, east = self.pad_offset(vehicle)
            self._fleet.teleport(
                vehicle, (north, east, self.environment.terrain_height(north, east))
            )
        self._states: List[VehicleState] = self._fleet.snapshots()

        self._collisions: List[CollisionEvent] = []
        self._fence_breaches: List[FenceBreachEvent] = []
        self._proximity_events: List[ProximityEvent] = []
        self._last_fence: List[Optional[str]] = [None] * fleet_size
        self._pairs_in_conflict: Dict[Tuple[int, int], bool] = {}
        self._min_separation: Optional[float] = None

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> FleetPhysics:
        """The physics core advancing every fleet member."""
        return self._fleet

    @property
    def state(self) -> VehicleState:
        """The most recent state snapshot of vehicle 0."""
        return self._states[0]

    @property
    def states(self) -> List[VehicleState]:
        """The most recent state snapshot of every fleet member."""
        return list(self._states)

    def state_of(self, vehicle: int) -> VehicleState:
        """The most recent state snapshot of one fleet member."""
        return self._states[vehicle]

    def pad_offset(self, vehicle: int) -> Tuple[float, float]:
        """(north, east) launch-pad offset of a fleet member from home."""
        return (0.0, vehicle * self.pad_spacing_m)

    @property
    def dt(self) -> float:
        """Simulation time-step in seconds."""
        return self.clock.dt

    @property
    def time(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.time

    @property
    def collisions(self) -> List[CollisionEvent]:
        """Collisions recorded so far (ground impacts and obstacle hits)."""
        return list(self._collisions)

    @property
    def fence_breaches(self) -> List[FenceBreachEvent]:
        """Fence breach events recorded so far."""
        return list(self._fence_breaches)

    @property
    def proximity_events(self) -> List[ProximityEvent]:
        """Inter-vehicle proximity conflicts recorded so far."""
        return list(self._proximity_events)

    @property
    def proximity_event_count(self) -> int:
        """Number of proximity conflicts recorded so far (no copy)."""
        return len(self._proximity_events)

    @property
    def min_separation_m(self) -> Optional[float]:
        """Smallest airborne pairwise separation seen so far (fleet runs).

        ``None`` for single-vehicle simulations and for fleet runs where
        no two vehicles have been airborne together yet.  Fault-free
        profiling runs expose this to the invariant monitor, which
        calibrates the minimum-separation threshold from it.
        """
        return self._min_separation

    @property
    def has_crashed(self) -> bool:
        """True when at least one collision has been recorded."""
        return bool(self._collisions)

    def safety_events(self) -> List[FlightEvent]:
        """Flight-recorder events for every safety occurrence so far.

        Collisions, fence breaches and proximity conflicts as one
        time-ordered stream, for the per-run flight log.
        """
        events = []
        for collision in self._collisions:
            target = collision.obstacle if collision.obstacle else "ground"
            events.append(
                FlightEvent(
                    collision.time,
                    "safety.collision",
                    f"{target} at {collision.impact_speed:.2f} m/s",
                    vehicle=f"v{collision.vehicle}",
                )
            )
        for breach in self._fence_breaches:
            events.append(
                FlightEvent(
                    breach.time,
                    "safety.fence_breach",
                    breach.fence,
                    vehicle=f"v{breach.vehicle}",
                )
            )
        for conflict in self._proximity_events:
            events.append(
                FlightEvent(
                    conflict.time,
                    "proximity.conflict",
                    f"v{conflict.vehicle_a}/v{conflict.vehicle_b} "
                    f"within {conflict.distance_m:.2f} m",
                )
            )
        events.sort(key=lambda event: (event.time_s, event.kind))
        return events

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, command: ActuatorCommand) -> VehicleState:
        """Advance a single-vehicle world by one time-step under ``command``."""
        return self.step_fleet([command])[0]

    def step_fleet(self, commands: Sequence[ActuatorCommand]) -> List[VehicleState]:
        """Advance the whole fleet by one time-step, one command per vehicle."""
        if len(commands) != self.fleet_size:
            raise ValueError(
                f"expected {self.fleet_size} command(s), got {len(commands)}"
            )
        self._states = self._fleet.step_all(commands)
        self.clock.advance()

        for vehicle in range(self.fleet_size):
            touchdown = self._fleet.step_touchdown(vehicle)
            if touchdown is not None and touchdown.speed >= HARD_IMPACT_SPEED:
                self._collisions.append(
                    CollisionEvent(
                        time=touchdown.time,
                        position=touchdown.position,
                        impact_speed=touchdown.speed,
                        obstacle=None,
                        vehicle=vehicle,
                    )
                )
            self._detect_obstacle_collision(vehicle)
            self._detect_fence_breach(vehicle)
        if self.fleet_size > 1:
            self._track_separation()
        return list(self._states)

    def teleport_vehicle(
        self,
        vehicle: int,
        position: Tuple[float, float, float],
        velocity: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> None:
        """Place one fleet member (launch pads, unit tests)."""
        self._fleet.teleport(vehicle, position, velocity)
        self._states[vehicle] = self._fleet.snapshot(vehicle)

    def _detect_obstacle_collision(self, vehicle: int) -> None:
        """Record a collision when a vehicle penetrates an obstacle."""
        state = self._states[vehicle]
        obstacle = self.environment.colliding_obstacle(state.position)
        if obstacle is None:
            return
        speed = max(state.ground_speed, abs(state.climb_rate))
        self._collisions.append(
            CollisionEvent(
                time=state.time,
                position=state.position,
                impact_speed=speed,
                obstacle=obstacle.name,
                vehicle=vehicle,
            )
        )

    def _detect_fence_breach(self, vehicle: int) -> None:
        """Record a breach when a vehicle enters a keep-out region."""
        state = self._states[vehicle]
        if state.on_ground:
            return
        fence = self.environment.breached_fence(state.position)
        if fence is None:
            return
        if self._last_fence[vehicle] == fence.name:
            # Still inside the same fence; one event per entry is enough.
            return
        self._last_fence[vehicle] = fence.name
        self._fence_breaches.append(
            FenceBreachEvent(
                time=state.time,
                position=state.position,
                fence=fence.name,
                vehicle=vehicle,
            )
        )

    def _track_separation(self) -> None:
        """Track pairwise separation and record proximity conflicts.

        Only pairs with both members airborne count: vehicles parked on
        neighbouring launch pads are not a loss of separation, and a
        landed vehicle is no longer traffic.
        """
        threshold = self.proximity_threshold_m
        for a in range(self.fleet_size):
            state_a = self._states[a]
            if state_a.on_ground:
                continue
            for b in range(a + 1, self.fleet_size):
                state_b = self._states[b]
                if state_b.on_ground:
                    continue
                distance = math.dist(state_a.position, state_b.position)
                if self._min_separation is None or distance < self._min_separation:
                    self._min_separation = distance
                if threshold <= 0.0:
                    continue
                pair = (a, b)
                if distance < threshold:
                    if not self._pairs_in_conflict.get(pair, False):
                        self._pairs_in_conflict[pair] = True
                        self._proximity_events.append(
                            ProximityEvent(
                                time=state_a.time,
                                vehicle_a=a,
                                vehicle_b=b,
                                distance_m=distance,
                                position_a=state_a.position,
                                position_b=state_b.position,
                            )
                        )
                else:
                    self._pairs_in_conflict[pair] = False
