"""The test runner: one lock-step simulated flight per fault scenario.

This is the loop of Figure 7.  :class:`SimulationHarness` provisions a
fresh simulator, sensor suite, hinj interface, firmware and
ground-control station; the workload drives it through ``step()``; the
harness records the trace, mode transitions, collisions and fail-safe
events.  :class:`TestRunner` wraps the harness behind a single
``run(scenario)`` call used by the search strategies, profiling and bug
replay.

Fleet runs (``config.fleet_size > 1``) provision one firmware instance,
sensor suite, MAVLink link and ground-control station *per vehicle*, all
driven in lock-step against a shared simulator and clock.  Vehicle 0 is
the lead: the classic workload-facing attributes (``gcs``, ``telemetry``,
``home``) refer to it, and fleet workloads reach the other vehicles
through :meth:`SimulationHarness.vehicle`.  For fleet size 1 the harness
builds exactly the pre-fleet object graph, so every classic scenario,
trace and campaign is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import RunConfiguration, VehicleSpec
from repro.firmware.base import ControlFirmware
from repro.firmware.modes import FlightMode
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario
from repro.hinj.instrumentation import HinjInterface, ModeTransition
from repro.hinj.scheduler import (
    FaultScheduler,
    InjectionRecord,
    injection_flight_events,
)
from repro.mavlink.gcs import GroundControlStation, TelemetrySnapshot
from repro.mavlink.link import MavLink
from repro.mavlink.traffic import (
    TrafficBeacon,
    TrafficChannel,
    TrafficInjectionRecord,
    traffic_flight_events,
)
from repro.obs import runtime as obs_runtime
from repro.obs.recorder import FlightEvent, FlightLog
from repro.sensors.base import NoiseTables
from repro.sensors.suite import SensorSuite, iris_sensor_suite
from repro.sim.environment import GeoLocation
from repro.sim.planner import StepPlanner
from repro.sim.simulator import CollisionEvent, ProximityEvent, Simulator
from repro.sim.state import VehicleState
from repro.workloads.framework import Target, WorkloadResult

#: Noise-seed stride between fleet members: vehicle ``v`` uses
#: ``config.noise_seed + v * FLEET_NOISE_SEED_STRIDE`` so every vehicle
#: has an independent (but still deterministic) noise stream while
#: vehicle 0 keeps the classic seed exactly.
FLEET_NOISE_SEED_STRIDE = 1000003

#: The adaptive stepper drops to the reference cadence whenever two
#: airborne fleet members are within this margin of the separation
#: threshold, so proximity conflicts are timed at full resolution.
PROXIMITY_REFINE_MARGIN_M = 5.0


@dataclass(frozen=True)
class TraceSample:
    """One sample of the recorded run trace.

    The invariant monitor's state tuple ``(P, alpha, M)`` corresponds to
    ``position``, ``acceleration`` and ``mode_label``.  ``vehicle``
    identifies the fleet member the sample belongs to (0 for classic
    single-vehicle runs).
    """

    index: int
    time: float
    position: Tuple[float, float, float]
    acceleration: Tuple[float, float, float]
    velocity: Tuple[float, float, float]
    mode_label: str
    altitude: float
    on_ground: bool
    armed: bool
    vehicle: int = 0

    @staticmethod
    def from_state(
        index: int, state: VehicleState, mode_label: str, vehicle: int = 0
    ) -> "TraceSample":
        """Build a sample from a simulator state snapshot."""
        return TraceSample(
            index=index,
            time=state.time,
            position=state.position,
            acceleration=state.acceleration,
            velocity=state.velocity,
            mode_label=mode_label,
            altitude=state.altitude,
            on_ground=state.on_ground,
            armed=state.armed,
            vehicle=vehicle,
        )


@dataclass
class RunResult:
    """Everything recorded about one simulated test run.

    ``trace`` and ``mode_transitions`` always describe vehicle 0 (the
    only vehicle of a classic run, the lead of a fleet run); fleet runs
    additionally fill ``vehicle_traces`` / ``vehicle_mode_transitions``
    with the per-vehicle records (vehicle 0 included) plus the
    inter-vehicle ``proximity_events`` and the minimum pairwise
    separation observed.
    """

    scenario: FaultScenario
    firmware_name: str
    workload_name: str
    workload_result: Optional[WorkloadResult]
    trace: List[TraceSample]
    mode_transitions: List[ModeTransition]
    collisions: List[CollisionEvent]
    fence_breaches: List
    injections: List[InjectionRecord]
    failsafe_events: List
    triggered_bugs: List[str]
    firmware_process_alive: bool
    duration_s: float
    steps: int
    aborted_early: bool = False
    fleet_size: int = 1
    vehicle_traces: Dict[int, List[TraceSample]] = field(default_factory=dict)
    vehicle_mode_transitions: Dict[int, List[ModeTransition]] = field(
        default_factory=dict
    )
    proximity_events: List[ProximityEvent] = field(default_factory=list)
    min_separation_m: Optional[float] = None
    #: Per-vehicle firmware liveness (empty for classic runs, where
    #: ``firmware_process_alive`` already tells the whole story).
    vehicle_firmware_alive: Dict[int, bool] = field(default_factory=dict)
    #: Coordination faults the traffic channel actually applied (fleet
    #: runs with scheduled traffic faults only).
    traffic_injections: List[TrafficInjectionRecord] = field(default_factory=list)
    #: Per-vehicle firmware flavour names (empty for classic runs;
    #: heterogeneous fleets record each member's flavour here).
    vehicle_firmware_names: Dict[int, str] = field(default_factory=dict)
    #: Filled in by the invariant monitor.
    unsafe_conditions: List = field(default_factory=list)
    #: The per-run flight recorder log (only when an observability
    #: runtime is installed).  A plain ``None`` default -- not a
    #: ``default_factory`` -- so results pickled by older engines (cache
    #: directories) unpickle against the class attribute.
    flight_log: Optional[FlightLog] = None

    @property
    def is_golden(self) -> bool:
        """True for the fault-free profiling runs."""
        return self.scenario.is_empty

    @property
    def found_unsafe_condition(self) -> bool:
        """True when the invariant monitor reported at least one violation."""
        return bool(self.unsafe_conditions)

    @property
    def workload_passed(self) -> bool:
        """True when the workload reported success."""
        return self.workload_result is not None and self.workload_result.passed

    @property
    def transition_times(self) -> List[float]:
        """Times of the observed operating-mode transitions."""
        return [transition.time for transition in self.mode_transitions]

    def mode_label_at(self, time: float) -> str:
        """The operating-mode label in effect at ``time`` (vehicle 0)."""
        return self.vehicle_mode_label_at(0, time)

    def vehicle_mode_label_at(self, vehicle: int, time: float) -> str:
        """The operating-mode label of one fleet member at ``time``."""
        transitions = (
            self.mode_transitions
            if vehicle == 0
            else self.vehicle_mode_transitions.get(vehicle, [])
        )
        label = "preflight"
        for transition in transitions:
            if transition.time <= time:
                label = transition.label
            else:
                break
        return label

    def summary(self) -> str:
        """One-line summary for logs and reports."""
        outcome = self.workload_result.outcome.value if self.workload_result else "n/a"
        return (
            f"[{self.firmware_name}/{self.workload_name}] {self.scenario.describe()} -> "
            f"workload={outcome}, unsafe={len(self.unsafe_conditions)}, "
            f"bugs={','.join(self.triggered_bugs) or 'none'}"
        )


class _VehicleUnit:
    """One fleet member's private component set.

    Everything the paper provisions per test run -- sensor suite, fault
    scheduler, hinj interface, MAVLink link, ground-control station and
    firmware -- exists once per vehicle; only the simulator, environment
    and clock are shared across the fleet.
    """

    def __init__(
        self,
        vehicle: int,
        config: RunConfiguration,
        environment,
        scenario: FaultScenario,
        noise: Optional[NoiseTables],
        pad_offset: Tuple[float, float] = (0.0, 0.0),
    ) -> None:
        self.vehicle = vehicle
        self.spec: VehicleSpec = config.vehicle_spec(vehicle)
        noise_seed = config.noise_seed + vehicle * FLEET_NOISE_SEED_STRIDE
        self.suite: SensorSuite = iris_sensor_suite(noise_seed, noise)
        self.scheduler = FaultScheduler(scenario.vehicle_view(vehicle))
        self.hinj = HinjInterface(self.scheduler)
        self.link = MavLink()
        self.gcs = GroundControlStation(self.link)

        firmware_kwargs = dict(
            suite=self.suite,
            airframe=self.spec.airframe,
            environment=environment,
            link=self.link,
            hinj=self.hinj,
            dt=config.dt,
        )
        if vehicle > 0:
            # Vehicle 0 never receives the kwarg, so classic runs keep
            # working with firmware classes that predate fleet support.
            firmware_kwargs["initial_hold_point"] = pad_offset
        if self.spec.firmware_params is not None:
            firmware_kwargs["params"] = self.spec.firmware_params
        self.firmware: ControlFirmware = self.spec.firmware_class(**firmware_kwargs)
        for bug_id in config.reinserted_bugs:
            self.firmware.bug_registry.reinsert(bug_id)
        for bug_id in config.disabled_bugs:
            self.firmware.bug_registry.disable(bug_id)

    def namespaced_injections(self) -> List[InjectionRecord]:
        """The scheduler's injection log, re-namespaced to this vehicle."""
        records = self.scheduler.injections
        if self.vehicle == 0:
            return records
        return [
            replace(record, sensor_id=record.sensor_id.for_vehicle(self.vehicle))
            for record in records
        ]


class VehicleHandle:
    """The per-vehicle facade fleet workloads drive.

    Mirrors the vehicle-specific slice of the harness interface
    documented on :class:`repro.workloads.framework.Target`: the ground
    control station, telemetry, launch-pad offset and guided commands of
    one fleet member.
    """

    def __init__(self, harness: "SimulationHarness", vehicle: int) -> None:
        self._harness = harness
        self._vehicle = vehicle
        self._unit = harness._units[vehicle]

    @property
    def index(self) -> int:
        """This vehicle's fleet index."""
        return self._vehicle

    @property
    def gcs(self) -> GroundControlStation:
        """This vehicle's ground-control station."""
        return self._unit.gcs

    @property
    def telemetry(self) -> TelemetrySnapshot:
        """This vehicle's latest telemetry view."""
        return self._unit.gcs.telemetry

    @property
    def firmware(self) -> ControlFirmware:
        """This vehicle's firmware instance."""
        return self._unit.firmware

    @property
    def pad_offset(self) -> Tuple[float, float]:
        """(north, east) offset of this vehicle's launch pad from home."""
        return self._harness.simulator.pad_offset(self._vehicle)

    @property
    def state(self) -> VehicleState:
        """Ground-truth state (used by tests; workloads should rely on
        telemetry, like the paper's framework)."""
        return self._harness.simulator.state_of(self._vehicle)

    @property
    def firmware_name(self) -> str:
        """This vehicle's firmware flavour name."""
        return self._unit.firmware.name

    # Heterogeneous fleets: mode-name strings are flavour-specific, so a
    # PX4 wing must be commanded with its own table, not the lead's.
    @property
    def auto_mode_name(self) -> str:
        """This flavour's SET_MODE string for the mission mode."""
        return self._unit.firmware.mode_name_for(FlightMode.AUTO)

    @property
    def guided_mode_name(self) -> str:
        """This flavour's SET_MODE string for the guided mode."""
        return self._unit.firmware.mode_name_for(FlightMode.GUIDED)

    @property
    def position_hold_mode_name(self) -> str:
        """This flavour's SET_MODE string for the position-hold mode."""
        return self._unit.firmware.mode_name_for(FlightMode.POSHOLD)

    @property
    def land_mode_name(self) -> str:
        """This flavour's SET_MODE string for the land mode."""
        return self._unit.firmware.mode_name_for(FlightMode.LAND)

    def traffic_view(self, sender: int) -> Optional[TrafficBeacon]:
        """This vehicle's latest received beacon from fleet member
        ``sender`` (None before the first delivery, or for classic runs
        without a traffic channel)."""
        channel = self._harness.traffic
        if channel is None:
            return None
        return channel.latest(self._vehicle, sender)

    def set_guided_target(
        self,
        north: float,
        east: float,
        altitude: float,
        speed_limit: Optional[float] = None,
    ) -> None:
        """Forward a guided target (offsets from home) to this firmware."""
        self._unit.firmware.set_guided_target(
            north, east, altitude, speed_limit=speed_limit
        )


class SimulationHarness:
    """Owns one provisioned simulation and exposes the workload interface.

    The attributes documented on :class:`repro.workloads.framework.Target`
    (``step``, ``dt``, ``time``, ``gcs``, ``telemetry``, ``home``, mode
    name properties, ``should_abort``) are all provided here.
    """

    def __init__(
        self,
        config: RunConfiguration,
        scenario: FaultScenario = EMPTY_SCENARIO,
        monitor=None,
        noise: Optional[NoiseTables] = None,
    ) -> None:
        self._config = config
        self._scenario = scenario
        self._monitor = monitor

        # The flight recorder exists only under an installed
        # observability runtime; every timing hook below guards on
        # ``self._recorder is not None`` so the default path never
        # reads a clock.
        obs = obs_runtime.current()
        self._obs = obs
        self._recorder = obs.new_recorder() if obs is not None else None
        self._clock = obs.tracer.clock if obs is not None else None
        provision_start = self._clock() if self._recorder is not None else 0.0

        environment = config.environment_factory()
        separation_threshold = 0.0
        if monitor is not None:
            separation_threshold = monitor.separation_threshold_m or 0.0
        self.simulator = Simulator(
            airframe=config.airframe,
            environment=environment,
            dt=config.dt,
            fleet_size=config.fleet_size,
            pad_spacing_m=config.fleet_pad_spacing_m,
            proximity_threshold_m=separation_threshold,
            airframes=[spec.airframe for spec in config.vehicle_specs],
        )

        # The quiescence-skipping planner (adaptive stepper only): fused
        # macro-steps between event boundaries, reference cadence near
        # them.  Boundaries start as the scenario's fault windows (both
        # families, including recovery edges); workloads add their
        # scheduled checkpoints through ``add_planned_events`` at bind
        # time, and mode transitions / tight separation are fed in as
        # the run observes them.
        self._planner: Optional[StepPlanner] = None
        if config.stepper == "adaptive":
            boundaries: List[float] = []
            for fault in scenario:
                boundaries.append(fault.start_time)
                if fault.duration_s is not None:
                    boundaries.append(fault.start_time + fault.duration_s)
            for fault in scenario.traffic_faults:
                boundaries.append(fault.start_time)
                if fault.duration_s is not None:
                    boundaries.append(fault.start_time + fault.duration_s)
            self._planner = StepPlanner(dt=config.dt, event_times=boundaries)
        self._last_labels: Optional[List[str]] = None
        self._refine_separation_m = (
            separation_threshold + PROXIMITY_REFINE_MARGIN_M
            if separation_threshold > 0.0
            else 0.0
        )
        self._last_update_step: Optional[int] = None
        self._units: List[_VehicleUnit] = [
            _VehicleUnit(
                vehicle,
                config,
                environment,
                scenario,
                noise,
                pad_offset=self.simulator.pad_offset(vehicle),
            )
            for vehicle in range(config.fleet_size)
        ]

        # The inter-vehicle traffic channel: the only path one fleet
        # member's view of another takes, and the injection surface of
        # the coordination fault family.  Classic runs have no traffic.
        self.traffic: Optional[TrafficChannel] = None
        if config.fleet_size > 1:
            self.traffic = TrafficChannel(
                fleet_size=config.fleet_size,
                dt=config.dt,
                beacon_interval_s=config.traffic_beacon_interval_s,
                latency_s=config.traffic_latency_s,
                faults=scenario.traffic_faults,
            )

        # Classic single-vehicle aliases (vehicle 0, the lead).
        lead = self._units[0]
        self.suite: SensorSuite = lead.suite
        self.scheduler = lead.scheduler
        self.hinj = lead.hinj
        self.link = lead.link
        self.gcs = lead.gcs
        self.firmware: ControlFirmware = lead.firmware

        # A fault no injection log can record -- a sensor fault on a
        # vehicle outside the fleet, a coordination fault without a
        # traffic channel -- keeps the run from ever parking.
        logged = sum(len(unit.scheduler.scenario) for unit in self._units)
        if self.traffic is not None:
            logged += len(scenario.traffic_faults)
        self._parkable = logged == len(scenario)
        self._parked_at: Optional[float] = None

        self._traces: List[List[TraceSample]] = [[] for _ in self._units]
        self._steps = 0
        self._abort = False
        self._proximity_seen = 0
        self._max_steps = int(config.max_sim_time_s / config.dt)
        self._sample_interval = max(config.sample_interval_steps, 1)
        self._record_sample()
        if self._recorder is not None:
            self._recorder.add_phase("provision", self._clock() - provision_start)

    # ------------------------------------------------------------------
    # Workload-facing interface
    # ------------------------------------------------------------------
    @property
    def dt(self) -> float:
        """Simulation time-step in seconds."""
        return self._config.dt

    @property
    def time(self) -> float:
        """Current simulated time in seconds."""
        return self.simulator.time

    @property
    def fleet_size(self) -> int:
        """Number of vehicles hosted by this simulation."""
        return self._config.fleet_size

    def vehicle(self, index: int) -> VehicleHandle:
        """The per-vehicle facade for fleet member ``index``."""
        if not 0 <= index < len(self._units):
            raise IndexError(f"no vehicle {index} in a fleet of {len(self._units)}")
        return VehicleHandle(self, index)

    @property
    def vehicles(self) -> List[VehicleHandle]:
        """Handles for every fleet member, in index order."""
        return [VehicleHandle(self, index) for index in range(len(self._units))]

    @property
    def telemetry(self) -> TelemetrySnapshot:
        """The lead ground-control station's latest telemetry view."""
        return self.gcs.telemetry

    @property
    def home(self) -> GeoLocation:
        """The launch location."""
        return self.firmware.home

    @property
    def auto_mode_name(self) -> str:
        """Flavour-specific SET_MODE string for the mission mode."""
        return self.firmware.mode_name_for(FlightMode.AUTO)

    @property
    def guided_mode_name(self) -> str:
        """Flavour-specific SET_MODE string for the guided mode."""
        return self.firmware.mode_name_for(FlightMode.GUIDED)

    @property
    def position_hold_mode_name(self) -> str:
        """Flavour-specific SET_MODE string for the position-hold mode."""
        return self.firmware.mode_name_for(FlightMode.POSHOLD)

    @property
    def land_mode_name(self) -> str:
        """Flavour-specific SET_MODE string for the land mode."""
        return self.firmware.mode_name_for(FlightMode.LAND)

    def set_guided_target(
        self,
        north: float,
        east: float,
        altitude: float,
        speed_limit: Optional[float] = None,
    ) -> None:
        """Forward a guided target to the lead firmware."""
        self.firmware.set_guided_target(north, east, altitude, speed_limit=speed_limit)

    def should_abort(self) -> bool:
        """True when the workload should stop stepping."""
        return self._abort

    def parked(self) -> bool:
        """True when no vehicle can change the run's verdict any more.

        Every vehicle's firmware is disarmed and its airframe rests on
        the ground, every scheduled sensor fault has been injected and
        every recovering one recovered (by the schedulers' injection
        logs), and the same holds for coordination faults.  From here a
        run only records samples Equation 1 excuses (disarmed on the
        ground), the safe-mode progress rule skips (on the ground), and
        that cannot collide or lose separation (zero thrust at rest); no
        fault is left to trigger a bug, and every recovery-tolerance
        window the offline verdict grants has already closed.  Only an
        arm request can end the state, and the arm helpers, the only
        callers of ``gcs.arm()``, never consult this.

        The workload framework ends a wait at the first poll where this
        holds (the parked exit); that poll's time is kept for the
        flight recorder.
        """
        if not self._parkable:
            return False
        simulator = self.simulator
        for unit in self._units:
            if unit.firmware.armed or not simulator.state_of(unit.vehicle).on_ground:
                return False
            if not unit.scheduler.settled:
                return False
        if self.traffic is not None and not self.traffic.settled:
            return False
        if self._parked_at is None:
            self._parked_at = self.time
        return True

    # ------------------------------------------------------------------
    # Adaptive-stepper hooks
    # ------------------------------------------------------------------
    def add_planned_events(self, times: Sequence[float]) -> None:
        """Register workload checkpoint times as planner boundaries."""
        if self._planner is not None and times:
            self._planner.add_events(times)

    def wait_stride(self) -> int:
        """Steps a ``wait_until`` poll should advance per iteration."""
        if self._planner is None:
            return 1
        return self._planner.max_stride

    def _needs_refinement(self) -> bool:
        """Dynamic hazards only the running harness can see.

        Mode transitions are reported to the planner (which refines for
        its settle window); tight inter-vehicle separation forces the
        reference cadence directly.
        """
        labels = [unit.firmware.operating_mode_label for unit in self._units]
        if labels != self._last_labels:
            if self._last_labels is not None:
                self._planner.note_transition(self.time)
            self._last_labels = labels
        if self._refine_separation_m > 0.0 and len(self._units) > 1:
            states = self.simulator.states
            for a in range(len(states)):
                if states[a].on_ground:
                    continue
                for b in range(a + 1, len(states)):
                    if states[b].on_ground:
                        continue
                    if (
                        math.dist(states[a].position, states[b].position)
                        < self._refine_separation_m
                    ):
                        return True
        return False

    def step(self, count: int = 1) -> None:
        """Advance the lock-step loop by ``count`` time-steps (Figure 7).

        The adaptive stepper's planner sizes each window (fused while
        quiescent, one micro-step near a boundary); every other stepper
        advances one micro-step per window.
        """
        planner = self._planner
        remaining = count
        while remaining > 0 and not self._abort:
            stride = (
                planner.plan(self.time, remaining, refine=self._needs_refinement())
                if planner is not None
                else 1
            )
            self._step_window(stride)
            remaining -= stride

    def _step_window(self, stride: int) -> None:
        """One control period: ``stride`` micro-steps of Figure 7's loop.

        Every micro-step polls each vehicle's MAVLink link and ground
        station, advances physics and traffic beacons, samples the trace
        and runs every abort/safety check, so event timestamps stay on
        the step grid.  Sensors are read and the firmware stepped only on
        the first micro-step; the actuator commands are held for the rest
        and the firmware is told how long (``elapsed_steps``).  The
        reference stepper runs windows of one micro-step.  Links and
        ground stations are per vehicle and share no state, so polling
        all of them before the first sensor read is order-independent.
        """
        recorder = self._recorder
        clock = self._clock
        simulator = self.simulator
        units = self._units
        traffic = self.traffic
        commands: List = []
        for k in range(stride):
            if self._abort:
                return
            if recorder is not None:
                mark = clock()
                sensor_s = 0.0
            # Nothing before ``step_fleet`` advances the clock.
            time = simulator.time
            for unit in units:
                unit.link.advance()
                unit.gcs.poll(time)
            if k == 0:
                if self._last_update_step is None:
                    elapsed_steps = 1
                else:
                    elapsed_steps = self._steps - self._last_update_step
                self._last_update_step = self._steps
                commands = []
                for unit in units:
                    if recorder is not None:
                        sensor_start = clock()
                    readings = unit.suite.read_all(simulator.state_of(unit.vehicle), time)
                    if recorder is not None:
                        sensor_s += clock() - sensor_start
                    commands.append(
                        unit.firmware.update(readings, time, elapsed_steps=elapsed_steps)
                    )
            if recorder is not None:
                now = clock()
                # Phases are disjoint: sensor reads are carved out of the
                # surrounding control-loop time.
                recorder.add_phase("sensor_read", sensor_s)
                recorder.add_phase("control", (now - mark) - sensor_s)
                mark = now
            simulator.step_fleet(commands)
            if recorder is not None:
                now = clock()
                recorder.add_phase("physics", now - mark)
                mark = now
            if traffic is not None:
                traffic.advance()
                if traffic.beacon_due():
                    time = simulator.time
                    for unit in units:
                        state = simulator.state_of(unit.vehicle)
                        traffic.broadcast(
                            unit.vehicle,
                            time=time,
                            position=state.position,
                            velocity=state.velocity,
                        )
                if recorder is not None:
                    now = clock()
                    recorder.add_phase("traffic", now - mark)
                    mark = now
            self._steps += 1
            if self._steps % self._sample_interval == 0:
                self._record_sample()
            if self._steps >= self._max_steps:
                self._abort = True
            if simulator.has_crashed or not self._all_firmware_alive():
                self._abort = True
            if traffic is not None:
                self._check_proximity()
            if recorder is not None:
                recorder.add_phase("monitor", clock() - mark)

    def _all_firmware_alive(self) -> bool:
        for unit in self._units:
            if not unit.firmware.process_alive:
                return False
        return True

    def _check_proximity(self) -> None:
        """Abort on a new inter-vehicle conflict."""
        count = self.simulator.proximity_event_count
        if count > self._proximity_seen:
            self._proximity_seen = count
            self._abort = True

    def _record_sample(self) -> None:
        """Sample every vehicle's trace and stream it through the monitor.

        The lead gets the full online check; followers stream through
        the safe-mode progress windows, so a coordination fault that
        strands a follower inside a fail-safe is caught while the run
        executes.  Any online violation aborts the run.
        """
        monitor = self._monitor
        for unit in self._units:
            vehicle = unit.vehicle
            trace = self._traces[vehicle]
            sample = TraceSample.from_state(
                index=len(trace),
                state=self.simulator.state_of(vehicle),
                mode_label=unit.firmware.operating_mode_label,
                vehicle=vehicle,
            )
            trace.append(sample)
            if monitor is None:
                continue
            if vehicle == 0:
                violation = monitor.check_sample(sample)
            else:
                violation = monitor.check_vehicle_sample(vehicle, sample)
            if violation is not None:
                self._abort = True

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def build_result(
        self, workload: Target, workload_result: Optional[WorkloadResult]
    ) -> RunResult:
        """Assemble the :class:`RunResult` once the workload has finished."""
        fleet = len(self._units)
        injections = list(self._units[0].namespaced_injections())
        failsafe_events = list(self.firmware.failsafe_events)
        triggered_bugs = list(self.firmware.triggered_bug_ids)
        for unit in self._units[1:]:
            injections.extend(unit.namespaced_injections())
            failsafe_events.extend(unit.firmware.failsafe_events)
            for bug_id in unit.firmware.triggered_bug_ids:
                if bug_id not in triggered_bugs:
                    triggered_bugs.append(bug_id)
        result = RunResult(
            scenario=self._scenario,
            firmware_name=self.firmware.name,
            workload_name=workload.display_name,
            workload_result=workload_result,
            trace=list(self._traces[0]),
            mode_transitions=self.hinj.transitions,
            collisions=self.simulator.collisions,
            fence_breaches=self.simulator.fence_breaches,
            injections=injections,
            failsafe_events=failsafe_events,
            triggered_bugs=triggered_bugs,
            firmware_process_alive=self._all_firmware_alive(),
            duration_s=self.time,
            steps=self._steps,
            aborted_early=self._abort,
        )
        if fleet > 1:
            result.fleet_size = fleet
            result.vehicle_traces = {
                unit.vehicle: list(self._traces[unit.vehicle]) for unit in self._units
            }
            result.vehicle_mode_transitions = {
                unit.vehicle: unit.hinj.transitions for unit in self._units
            }
            result.proximity_events = self.simulator.proximity_events
            result.min_separation_m = self.simulator.min_separation_m
            result.vehicle_firmware_alive = {
                unit.vehicle: unit.firmware.process_alive for unit in self._units
            }
            result.vehicle_firmware_names = {
                unit.vehicle: unit.firmware.name for unit in self._units
            }
            if self.traffic is not None:
                result.traffic_injections = self.traffic.injections
        if self._planner is not None and self._obs is not None:
            # Attribute the adaptive stepper's speedup to skipped
            # quiescence: fused windows vs total micro-steps vs windows
            # forced back to the reference cadence.
            metrics = self._obs.metrics
            metrics.counter("sim.macro_steps").inc(self._planner.macro_steps)
            metrics.counter("sim.micro_steps").inc(self._planner.micro_steps)
            metrics.counter("sim.boundary_refinements").inc(
                self._planner.boundary_refinements
            )
        if self._recorder is not None:
            self._assemble_flight_events(result)
            result.flight_log = self._recorder.seal()
            result.flight_log.stepper = self._config.stepper
        return result

    def _assemble_flight_events(self, result: RunResult) -> None:
        """Fill the recorder from the run's own deterministic records.

        Every event is derived from state the run already produced
        (injection logs, transition logs, simulator safety events), so a
        recorded run and an unrecorded run execute identically -- the
        recorder only changes what is *reported*, never what happened.
        """
        events: List[FlightEvent] = []
        events.extend(injection_flight_events(result.injections))
        events.extend(traffic_flight_events(result.traffic_injections))
        for unit in self._units:
            vehicle = f"v{unit.vehicle}"
            for transition in unit.hinj.transitions:
                detail = (
                    f"{transition.previous} -> {transition.label}"
                    if transition.previous is not None
                    else transition.label
                )
                events.append(
                    FlightEvent(
                        transition.time, "mode.transition", detail, vehicle=vehicle
                    )
                )
        events.extend(self.simulator.safety_events())
        if self._parked_at is not None:
            events.append(
                FlightEvent(
                    self._parked_at,
                    "run.parked",
                    "every vehicle disarmed on the ground, no fault pending",
                )
            )
        events.sort(key=lambda event: (event.time_s, event.kind, event.detail))
        self._recorder.record_all(events)


class TestRunner:
    """Runs workloads under fault scenarios, one fresh harness per run.

    Every run reads its sensor noise from the runner's own
    :class:`~repro.sensors.base.NoiseTables`, so a noise seed flown
    again reads the deviates its first flight computed.  The tables
    outlive the runs, never the runner.
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, config: RunConfiguration, monitor=None) -> None:
        self._config = config
        self._monitor = monitor
        self._noise = NoiseTables()

    @property
    def config(self) -> RunConfiguration:
        """The run configuration used for every run."""
        return self._config

    @property
    def monitor(self):
        """The invariant monitor evaluated against every run (may be None)."""
        return self._monitor

    @monitor.setter
    def monitor(self, monitor) -> None:
        self._monitor = monitor

    def run(
        self,
        scenario: FaultScenario = EMPTY_SCENARIO,
        noise_seed: Optional[int] = None,
    ) -> RunResult:
        """Execute the configured workload under ``scenario``."""
        obs = obs_runtime.current()
        if obs is None:
            return self._run(scenario, noise_seed)
        with obs.tracer.span(
            "simulate",
            scenario=scenario.describe(),
            firmware=self._config.firmware_name,
        ) as span_args:
            result = self._run(scenario, noise_seed)
            span_args["unsafe"] = result.found_unsafe_condition
        if result.flight_log is not None:
            result.flight_log.count_into(obs.metrics)
        return result

    def _run(
        self, scenario: FaultScenario, noise_seed: Optional[int]
    ) -> RunResult:
        config = self._config
        if noise_seed is not None:
            config = config.with_noise_seed(noise_seed)
        monitor = self._monitor
        if monitor is not None:
            # Reset the online trackers before the harness records its
            # first sample; the scenario seeds the recovery-tolerance
            # windows (a no-op for latched-only scenarios).
            monitor.begin_run(scenario)
        harness = SimulationHarness(
            config, scenario, monitor=monitor, noise=self._noise
        )
        workload = config.workload_factory()
        workload.bind(harness)
        workload_result = workload.run()
        result = harness.build_result(workload, workload_result)
        if monitor is None:
            return result
        timed = result.flight_log is not None
        if timed:
            evaluate_start = harness._clock()
        result.unsafe_conditions = monitor.evaluate(result)
        if timed:
            phases = result.flight_log.phase_seconds
            phases["monitor_evaluate"] = phases.get("monitor_evaluate", 0.0) + (
                harness._clock() - evaluate_start
            )
        return result
