"""The simulation core: one physics integrator, one lock-step loop.

Pins the contracts the ``stepper`` knob rests on:

* **Bit-identity** -- the integrator (`FleetPhysics`), the simulator's
  event pipeline and whole harness runs hash to digests recorded before
  the per-object integrator and the separate reference loop were folded
  into them: states, event logs, traces and cache keys are *equal*, not
  approximately equal, across single-vehicle, fleet, traffic-fault and
  burst scenarios, on both steppers.
* **Verdict equivalence** -- the quiescence-skipping adaptive stepper
  reaches the same safe/unsafe verdicts as the reference loop on the
  committed end-to-end scenarios (the convoy recovery-window hazard and
  the burst-vs-latched pair), while fusing most of its control periods.
"""

from dataclasses import replace

import pytest
from conftest import flight_lines, line_digest

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.monitor import UnsafeConditionKind
from repro.core.runner import SimulationHarness, TestRunner
from repro.engine.cache import config_fingerprint, scenario_key
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.faults import (
    EMPTY_SCENARIO,
    FaultScenario,
    FaultSpec,
    TrafficFaultKind,
    TrafficFaultSpec,
)
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Observability, observed
from repro.sensors.base import SensorId, SensorType
from repro.sim.environment import default_environment
from repro.sim.fleet_physics import FleetPhysics
from repro.sim.physics import GRAVITY, HARD_IMPACT_SPEED, ActuatorCommand
from repro.sim.planner import StepPlanner
from repro.sim.simulator import SimulationClock, Simulator
from repro.sim.vehicle import IRIS_QUADCOPTER, SOLO_QUADCOPTER
from repro.workloads.builtin import AutoWorkload
from repro.workloads.fleet import ConvoyFollowWorkload
from repro.workloads.framework import Target, WorkloadOutcome

GPS = SensorId(SensorType.GPS, 0)

DT = 0.01

BURST = FaultScenario([FaultSpec(GPS, 6.0, duration_s=4.0)])
DROPOUT = FaultScenario(
    [TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 10.0, duration_s=5.0)]
)


def scripted_command(step: int, phase_shift: int = 0) -> ActuatorCommand:
    """A deterministic command tape exercising every physics branch:
    disarmed rest, full-throttle climb, banked cruise with yaw, a cut
    throttle (free fall to a hard impact) and a disarmed tail."""
    t = (step + phase_shift) * DT
    if t < 0.2:
        return ActuatorCommand()
    if t < 2.0:
        return ActuatorCommand(throttle=0.9, armed=True)
    if t < 3.0:
        return ActuatorCommand(
            throttle=0.55,
            target_roll=-0.1,
            target_pitch=0.2,
            target_yaw_rate=0.4,
            armed=True,
        )
    if t < 6.0:
        return ActuatorCommand(throttle=0.0, armed=True)
    return ActuatorCommand()


def tape_digest(steps: int, fleet_size: int, dt: float) -> str:
    """Every state of a fleet flying the scripted tape (vehicle ``v``
    phase-shifted by 17 v steps from a pad 8 v m east), then each
    vehicle's last impact speed and the final clock."""
    fleet = FleetPhysics(
        airframes=[IRIS_QUADCOPTER] * fleet_size,
        environment=default_environment(),
        dt=dt,
    )
    for vehicle in range(1, fleet_size):
        fleet.teleport(vehicle, (0.0, vehicle * 8.0, 0.0))
    lines = [
        fleet.step_all(
            [scripted_command(step, phase_shift=17 * v) for v in range(fleet_size)]
        )
        for step in range(steps)
    ]
    lines.append([fleet.last_impact_speed(v) for v in range(fleet_size)])
    lines.append(fleet.time)
    return line_digest(lines)


def run_digest(config: RunConfiguration, scenario: FaultScenario) -> str:
    """Every observable of one harness run, led by its cache key."""
    result = TestRunner(config).run(scenario)
    key = scenario_key(config, result.workload_name, scenario)
    return line_digest([key] + flight_lines(result))


#: Recorded with one per-vehicle integrator object per fleet member.
TAPE_DIGESTS = {
    (900, 1, 0.01): "96d84e143609144b89e6",
    (900, 3, 0.01): "1942bd4cc0bc8a01d1e9",
    # dt 0.2 exceeds the attitude time constant: the lag's alpha clamps
    # at 1 on every step.
    (60, 2, 0.2): "5a6d1d390129456b2626",
}

#: Recorded with the per-object integrator behind the simulator.
SIMULATOR_DROP_DIGEST = "527a82f76ab435322337"

#: Recorded with the separate reference loop and per-object integrator
#: (reference runs) and the SoA core (adaptive runs).
RUN_DIGESTS = {
    "reference mission": "f100454741b4b9eb8b90",
    "reference burst": "6b4e3ec821ea119d7dfd",
    "reference convoy dropout": "69891f402071d53c2619",
    "adaptive burst": "462a2b3d0b62735e4915",
    "adaptive convoy dropout": "24c0ab8114abeb7f604b",
}

#: ``scenario_key`` bytes for the GPS-at-2 s scenario on the default
#: ArduPilot ``auto`` configuration.
REFERENCE_KEY = "b2cc8c3d3d60cb70dd2109d06e5da85abac5ab150e67cfd9aef37e941c22eaf4"
ADAPTIVE_KEY = "6df7ad0557530d20f1e00f97f8a861631bd408b2fff8b11a7eef7d056fd03c2a"


class TestFleetPhysicsKernel:
    @pytest.mark.parametrize(
        "steps, fleet_size, dt",
        list(TAPE_DIGESTS),
        ids=[f"fleet{n}-dt{dt}" for _, n, dt in TAPE_DIGESTS],
    )
    def test_command_tape_matches_recorded_digest(self, steps, fleet_size, dt):
        assert tape_digest(steps, fleet_size, dt) == TAPE_DIGESTS[
            (steps, fleet_size, dt)
        ]

    def test_command_count_validated(self):
        fleet = FleetPhysics(
            airframes=[IRIS_QUADCOPTER] * 2, environment=default_environment()
        )
        with pytest.raises(ValueError):
            fleet.step_all([ActuatorCommand()])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetPhysics(airframes=[], environment=default_environment())

    @pytest.mark.parametrize(
        "airframes",
        [
            [IRIS_QUADCOPTER] * 2,
            [IRIS_QUADCOPTER] * 3,
            [IRIS_QUADCOPTER, SOLO_QUADCOPTER],
        ],
        ids=["iris2", "iris3", "mixed"],
    )
    def test_each_member_flies_as_a_fleet_of_one(self, airframes):
        """Fleet members share only the clock and the wind: every member's
        trajectory equals a fleet of one flying its tape from its pad."""
        size = len(airframes)
        fleet = FleetPhysics(
            airframes=airframes, environment=default_environment(), dt=DT
        )
        singles = [
            FleetPhysics(
                airframes=[frame], environment=default_environment(), dt=DT
            )
            for frame in airframes
        ]
        for vehicle in range(1, size):
            fleet.teleport(vehicle, (0.0, vehicle * 8.0, 0.0))
            singles[vehicle].teleport(0, (0.0, vehicle * 8.0, 0.0))
        for step in range(700):
            commands = [scripted_command(step, phase_shift=17 * v) for v in range(size)]
            states = fleet.step_all(commands)
            for vehicle, single in enumerate(singles):
                assert single.step_all([commands[vehicle]])[0] == states[vehicle]
        for vehicle, single in enumerate(singles):
            assert fleet.last_impact_speed(vehicle) == single.last_impact_speed(0)

    def test_teleport_sets_ground_contact_from_terrain(self):
        fleet = FleetPhysics(
            airframes=[IRIS_QUADCOPTER] * 2, environment=default_environment()
        )
        assert fleet.fleet_size == 2
        assert all(state.on_ground for state in fleet.snapshots())
        fleet.teleport(1, (2.0, 3.0, 15.0), velocity=(0.5, 0.0, -1.0))
        state = fleet.snapshot(1)
        assert state.position == (2.0, 3.0, 15.0)
        assert state.velocity == (0.5, 0.0, -1.0)
        assert not state.on_ground
        assert fleet.snapshot(0).on_ground
        fleet.teleport(1, (2.0, 3.0, 0.0))
        assert fleet.snapshot(1).on_ground

    def test_disarmed_vehicle_levels_out_and_falls(self):
        """Disarming cuts thrust, relaxes roll/pitch towards level and
        freezes yaw; the vehicle falls under gravity and drag alone."""
        fleet = FleetPhysics(
            airframes=[IRIS_QUADCOPTER], environment=default_environment(), dt=DT
        )
        fleet.teleport(0, (0.0, 0.0, 50.0))
        banked = ActuatorCommand(
            throttle=0.6,
            target_roll=0.3,
            target_pitch=-0.2,
            target_yaw_rate=0.5,
            armed=True,
        )
        for _ in range(50):
            state = fleet.step_all([banked])[0]
        assert state.attitude.yaw != 0.0
        for _ in range(30):
            previous = state
            state = fleet.step_all([ActuatorCommand()])[0]
            assert not state.armed
            assert abs(state.attitude.roll) < abs(previous.attitude.roll)
            assert abs(state.attitude.pitch) < abs(previous.attitude.pitch)
            assert state.attitude.yaw == previous.attitude.yaw
            drag = IRIS_QUADCOPTER.drag_coefficient * previous.velocity[2]
            assert state.acceleration[2] == pytest.approx(
                -drag / IRIS_QUADCOPTER.mass_kg - GRAVITY
            )
        assert not state.on_ground


class TestTouchdownRecords:
    def test_hard_impact_recorded_with_reference_speed_and_time(self):
        fleet = FleetPhysics(
            airframes=[IRIS_QUADCOPTER], environment=default_environment(), dt=DT
        )
        touchdowns = []
        for step in range(700):
            fleet.step_all([scripted_command(step)])
            touchdown = fleet.step_touchdown(0)
            if touchdown is not None:
                touchdowns.append(touchdown)
        hard = [t for t in touchdowns if t.speed >= HARD_IMPACT_SPEED]
        assert hard, "the scripted free fall must land hard"
        touchdown = hard[-1]
        assert touchdown.vehicle == 0
        assert touchdown.speed == fleet.last_impact_speed(0)
        # The timestamp sits on the step grid and the contact point on
        # the terrain.
        assert touchdown.time == pytest.approx(
            round(touchdown.time / DT) * DT, abs=1e-9
        )
        assert touchdown.position[2] == default_environment().terrain_height(
            touchdown.position[0], touchdown.position[1]
        )
        # Resting on the ground is not a new touchdown.
        fleet.step_all([ActuatorCommand()])
        assert fleet.step_touchdown(0) is None

    def _drop(self, height, velocity=(0.0, 0.0, 0.0)):
        """Drop a disarmed vehicle; return the simulator and its touchdown."""
        simulator = Simulator(dt=DT)
        simulator.teleport_vehicle(0, (0.0, 0.0, height), velocity=velocity)
        for _ in range(500):
            simulator.step(ActuatorCommand())
            touchdown = simulator.fleet.step_touchdown(0)
            if touchdown is not None:
                return simulator, touchdown
        raise AssertionError("the dropped vehicle never touched down")

    def test_soft_touchdown_is_not_a_collision(self):
        simulator, touchdown = self._drop(0.1, velocity=(0.0, 0.0, -0.5))
        assert 0.0 < touchdown.speed < HARD_IMPACT_SPEED
        assert simulator.state.on_ground
        assert not simulator.has_crashed

    def test_hard_touchdown_becomes_a_ground_collision(self):
        simulator, touchdown = self._drop(5.0)
        assert touchdown.speed >= HARD_IMPACT_SPEED
        [collision] = simulator.collisions
        assert collision.obstacle is None
        assert collision.vehicle == 0
        # The event carries the physics timestamp of the contact step,
        # the same value as that step's state snapshot.
        assert collision.time == touchdown.time == simulator.state.time
        assert collision.position == touchdown.position
        assert collision.impact_speed == touchdown.speed
        assert collision.impact_speed == simulator.fleet.last_impact_speed(0)


class TestDtEdgeCases:
    def test_clock_non_default_dt(self):
        clock = SimulationClock(dt=0.05)
        for _ in range(7):
            clock.advance()
        assert clock.ticks == 7
        assert clock.time == 7 * 0.05

    def test_nonpositive_dt_rejected_everywhere(self):
        with pytest.raises(ValueError):
            SimulationClock(dt=0.0)
        with pytest.raises(ValueError):
            FleetPhysics(
                airframes=[IRIS_QUADCOPTER], environment=default_environment(), dt=0.0
            )
        with pytest.raises(ValueError):
            Simulator(dt=-0.01)

    @pytest.mark.parametrize("dt", [0.15, 0.2])
    def test_attitude_alpha_clamps_when_dt_exceeds_time_constant(self, dt):
        """At dt >= the attitude time constant the first-order lag clamps
        at alpha = 1: the attitude snaps to the commanded target instead
        of overshooting past it."""
        fleet = FleetPhysics(
            airframes=[IRIS_QUADCOPTER], environment=default_environment(), dt=dt
        )
        fleet.teleport(0, (0.0, 0.0, 30.0))
        command = ActuatorCommand(
            throttle=0.6, target_roll=0.3, target_pitch=-0.2, armed=True
        )
        state = fleet.step_all([command])[0]
        assert state.attitude.roll == command.target_roll
        assert state.attitude.pitch == command.target_pitch


class TestStepPlanner:
    def test_quiescent_far_from_boundaries(self):
        planner = StepPlanner(dt=0.02, event_times=[10.0])
        assert planner.quiescent(2.0, 2.1)
        assert planner.plan(2.0, 5) == 5
        assert planner.macro_steps == 1
        assert planner.micro_steps == 5

    def test_refines_ahead_of_a_boundary(self):
        planner = StepPlanner(dt=0.02, event_times=[10.0], horizon_s=0.3)
        assert not planner.quiescent(9.65, 9.75)
        assert planner.plan(9.65, 5) == 1
        assert planner.boundary_refinements == 1

    def test_refines_through_the_settle_window_after_a_boundary(self):
        planner = StepPlanner(dt=0.02, event_times=[10.0], settle_s=0.75)
        assert not planner.quiescent(10.3, 10.4)
        assert planner.quiescent(10.76, 10.86)

    def test_mode_transition_opens_a_settle_window(self):
        planner = StepPlanner(dt=0.02, settle_s=0.75)
        assert planner.plan(5.0, 5) == 5
        planner.note_transition(5.1)
        assert planner.plan(5.2, 5) == 1
        assert planner.plan(5.86, 5) == 5

    def test_caller_refine_forces_reference_cadence(self):
        planner = StepPlanner(dt=0.02)
        assert planner.plan(1.0, 5, refine=True) == 1
        assert planner.boundary_refinements == 1

    def test_requested_caps_the_stride(self):
        planner = StepPlanner(dt=0.02)
        assert planner.plan(0.0, 3) == 3
        assert planner.plan(0.0, 1) == 1
        # A requested single step is not a refinement, just a short window.
        assert planner.boundary_refinements == 0

    def test_add_events_keeps_boundaries_sorted(self):
        planner = StepPlanner(dt=0.02, event_times=[20.0])
        planner.add_events([5.0, None, 30.0])
        assert planner.event_times == [5.0, 20.0, 30.0]
        assert not planner.quiescent(4.9, 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPlanner(dt=0.0)
        with pytest.raises(ValueError):
            StepPlanner(dt=0.02, max_stride=0)


class TestSimulatorCore:
    def test_scripted_drop_matches_recorded_digest(self):
        simulator = Simulator(dt=DT, fleet_size=2)
        lines = [
            simulator.step_fleet(
                [scripted_command(step, phase_shift=17 * v) for v in range(2)]
            )
            for step in range(700)
        ]
        assert simulator.collisions, "the scripted drop must record a collision"
        lines += [
            simulator.collisions,
            simulator.fence_breaches,
            simulator.proximity_events,
            simulator.safety_events(),
            simulator.min_separation_m,
            simulator.time,
        ]
        assert line_digest(lines) == SIMULATOR_DROP_DIGEST

    def test_teleport_vehicle_updates_snapshot(self):
        simulator = Simulator(dt=DT, fleet_size=2)
        simulator.teleport_vehicle(1, (3.0, 4.0, 25.0), velocity=(1.0, 0.0, 0.0))
        state = simulator.state_of(1)
        assert state.position == (3.0, 4.0, 25.0)
        assert state.velocity == (1.0, 0.0, 0.0)
        assert not state.on_ground
        assert simulator.fleet.snapshot(1) == state

    def test_step_is_step_fleet_of_one(self):
        stepped = Simulator(dt=DT)
        fleet_stepped = Simulator(dt=DT)
        for step in range(700):
            command = scripted_command(step)
            state = stepped.step(command)
            assert [state] == fleet_stepped.step_fleet([command])
            assert stepped.state is state
        assert stepped.collisions == fleet_stepped.collisions
        assert stepped.min_separation_m is None

    def test_fleet_shape_validated(self):
        with pytest.raises(ValueError):
            Simulator(fleet_size=0)
        with pytest.raises(ValueError):
            Simulator(fleet_size=2, airframes=[IRIS_QUADCOPTER])
        simulator = Simulator(fleet_size=2)
        with pytest.raises(ValueError):
            simulator.step_fleet([ActuatorCommand()])


class TestRunConfigurationStepper:
    def test_default_and_validation(self):
        config = RunConfiguration(firmware_class=ArduPilotFirmware)
        assert config.stepper == "reference"
        with pytest.raises(ValueError):
            RunConfiguration(firmware_class=ArduPilotFirmware, stepper="warp")

    def test_with_noise_seed_preserves_stepper(self):
        config = RunConfiguration(firmware_class=ArduPilotFirmware, stepper="adaptive")
        assert config.with_noise_seed(7).stepper == "adaptive"


class TestCacheKeys:
    def _config(self, stepper):
        return RunConfiguration(firmware_class=ArduPilotFirmware, stepper=stepper)

    def test_reference_renders_no_stepper_term(self):
        scenario = FaultScenario([FaultSpec(GPS, 2.0)])
        assert scenario_key(self._config("reference"), "auto", scenario) == (
            REFERENCE_KEY
        )
        assert "stepper" not in config_fingerprint(self._config("reference"), "auto")

    def test_adaptive_gets_its_own_fingerprint_term(self):
        scenario = FaultScenario([FaultSpec(GPS, 2.0)])
        assert "stepper=adaptive" in config_fingerprint(
            self._config("adaptive"), "auto"
        )
        assert scenario_key(self._config("adaptive"), "auto", scenario) == (
            ADAPTIVE_KEY
        )


def auto_config(stepper="reference", **overrides):
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=8.0, init_wait_ms=1000.0),
        max_sim_time_s=90.0,
        stepper=stepper,
        **overrides,
    )


def convoy_config(stepper="reference", **overrides):
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: ConvoyFollowWorkload(),
        fleet_size=2,
        max_sim_time_s=60.0,
        stepper=stepper,
        **overrides,
    )


class TestHarnessBitIdentity:
    """Whole runs hash to the digests recorded before the fold."""

    def test_single_vehicle_mission(self):
        assert run_digest(auto_config("reference"), EMPTY_SCENARIO) == (
            RUN_DIGESTS["reference mission"]
        )

    def test_single_vehicle_burst_fault(self):
        assert run_digest(auto_config("reference"), BURST) == (
            RUN_DIGESTS["reference burst"]
        )

    def test_convoy_with_traffic_fault(self):
        assert run_digest(convoy_config("reference"), DROPOUT) == (
            RUN_DIGESTS["reference convoy dropout"]
        )

    def test_adaptive_single_vehicle_burst_fault(self):
        assert run_digest(auto_config("adaptive"), BURST) == (
            RUN_DIGESTS["adaptive burst"]
        )

    def test_adaptive_convoy_with_traffic_fault(self):
        assert run_digest(convoy_config("adaptive"), DROPOUT) == (
            RUN_DIGESTS["adaptive convoy dropout"]
        )

    def test_reference_windows_are_chunking_independent(self, monkeypatch):
        """``step(count)`` on the reference stepper is ``count`` windows
        of one micro-step: splitting every call into single steps
        reproduces the recorded run."""
        step = SimulationHarness.step

        def single_steps(harness, count=1):
            for _ in range(count):
                step(harness, 1)

        monkeypatch.setattr(SimulationHarness, "step", single_steps)
        assert run_digest(auto_config("reference"), BURST) == (
            RUN_DIGESTS["reference burst"]
        )

    @pytest.mark.parametrize("stepper", ["reference", "adaptive"])
    def test_step_advances_exactly_count_ticks(self, stepper):
        harness = SimulationHarness(auto_config(stepper))
        harness.step(0)
        assert harness.simulator.clock.ticks == 0
        for count, total in ((7, 7), (1, 8), (23, 31)):
            harness.step(count)
            assert harness.simulator.clock.ticks == total


#: Beacon faults on the convoy lead: latched DROPOUT/FREEZE at
#: 12 + 9i s, then 20 s DROPOUT bursts at 9 + 2i s (recovery re-engages
#: the follower's tracking loop mid-mission).
CONVOY_VERDICT_SCENARIOS = [
    FaultScenario(
        [
            TrafficFaultSpec(
                0,
                (TrafficFaultKind.DROPOUT, TrafficFaultKind.FREEZE)[index % 2],
                12.0 + 9.0 * index,
            )
        ]
    )
    for index in range(4)
] + [
    FaultScenario(
        [
            TrafficFaultSpec(
                0, TrafficFaultKind.DROPOUT, 9.0 + 2.0 * index, duration_s=20.0
            )
        ]
    )
    for index in range(4)
]


def verdict_signature(result):
    """What a run concluded, independent of how it was stepped: outcome,
    collision presence, and the traffic injection/recovery record."""
    return (
        result.workload_result.outcome.value if result.workload_result else "n/a",
        bool(result.collisions),
        len(result.traffic_injections),
        sum(1 for record in result.traffic_injections if record.recovered),
    )


class TestAdaptiveRun:
    def test_mission_passes_and_fuses_windows(self):
        with observed(Observability()) as obs:
            result = TestRunner(auto_config("adaptive")).run()
        assert result.workload_result.outcome == WorkloadOutcome.PASSED
        assert result.flight_log is not None
        assert result.flight_log.stepper == "adaptive"
        snapshot = obs.metrics.snapshot()["counters"]
        assert snapshot["sim.macro_steps"] > 0
        assert snapshot["sim.micro_steps"] >= result.steps
        assert "sim.boundary_refinements" in snapshot

    def test_reference_flight_log_labels_its_stepper(self):
        with observed(Observability()):
            result = TestRunner(auto_config("reference")).run()
        assert result.flight_log.stepper == "reference"
        assert obs_runtime.current() is None

    def test_burst_vs_latched_verdicts_match_reference(self):
        """The burst-vs-latched pair reaches the same verdicts adaptively."""
        for scenario in (
            FaultScenario([FaultSpec(GPS, 6.0, duration_s=4.0)]),
            FaultScenario([FaultSpec(GPS, 6.0)]),
        ):
            reference = TestRunner(auto_config("reference")).run(scenario)
            adaptive = TestRunner(auto_config("adaptive")).run(scenario)
            assert (
                adaptive.workload_result.outcome
                == reference.workload_result.outcome
            )
            assert bool(adaptive.collisions) == bool(reference.collisions)
            assert sorted(adaptive.triggered_bugs) == sorted(
                reference.triggered_bugs
            )
            assert [
                (record.sensor_id, record.scheduled_time, record.duration_s)
                for record in adaptive.injections
            ] == [
                (record.sensor_id, record.scheduled_time, record.duration_s)
                for record in reference.injections
            ]

    @pytest.mark.parametrize(
        "scenario", CONVOY_VERDICT_SCENARIOS, ids=lambda scenario: scenario.describe()
    )
    def test_convoy_verdicts_match_reference(self, hazard_config, scenario):
        """A faster stepper that changes a verdict is a bug, not a win."""
        reference = TestRunner(hazard_config).run(scenario)
        adaptive = TestRunner(replace(hazard_config, stepper="adaptive")).run(scenario)
        assert verdict_signature(adaptive) == verdict_signature(reference)


@pytest.fixture(scope="module")
def hazard_config() -> RunConfiguration:
    """The canonical two-vehicle convoy (matches the committed hazard)."""
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: ConvoyFollowWorkload(),
        fleet_size=2,
        max_sim_time_s=160.0,
    )


@pytest.fixture(scope="module")
def hazard_monitor(hazard_config):
    avis = Avis(hazard_config, profiling_runs=2, budget_units=20.0)
    avis.profile()
    return avis.monitor


class TestAdaptiveVerdictEquivalence:
    """The committed convoy recovery-window hazard, re-run adaptively.

    The adaptive stepper must reproduce both halves of the canonical
    verdict pair (``tests/test_intermittent_faults.py``): the recovering
    beacon dropout breaks separation, its latched equivalent does not.
    """

    DROPOUT_START_S = 16.3
    DROPOUT_DURATION_S = 20.0
    BATTERY_FAIL_S = 39.3

    def _scenario(self, duration_s):
        return FaultScenario(
            [
                TrafficFaultSpec(
                    0,
                    TrafficFaultKind.DROPOUT,
                    self.DROPOUT_START_S,
                    duration_s=duration_s,
                ),
                FaultSpec(
                    SensorId(SensorType.BATTERY, 0, vehicle=0), self.BATTERY_FAIL_S
                ),
            ]
        )

    def _run_adaptive(self, hazard_config, hazard_monitor, scenario):
        config = replace(hazard_config, stepper="adaptive")
        runner = TestRunner(config, monitor=hazard_monitor)
        hazard_monitor.begin_run(scenario)
        return runner.run(scenario)

    def test_recovering_dropout_still_breaks_separation(
        self, hazard_config, hazard_monitor
    ):
        result = self._run_adaptive(
            hazard_config, hazard_monitor, self._scenario(self.DROPOUT_DURATION_S)
        )
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION in kinds
        assert result.min_separation_m < hazard_monitor.separation_threshold_m

    def test_latched_equivalent_still_stays_separated(
        self, hazard_config, hazard_monitor
    ):
        result = self._run_adaptive(
            hazard_config, hazard_monitor, self._scenario(None)
        )
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION not in kinds
        assert result.min_separation_m > hazard_monitor.separation_threshold_m


class TestCliStepper:
    def test_stepper_threads_into_configs_and_cell_ids(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(
            ["--workload", "auto", "convoy", "--fleet-size", "2",
             "--stepper", "adaptive"]
        )
        cells = build_cells(request_from_args(args))
        assert cells
        for cell in cells:
            assert cell.config.stepper == "adaptive"
            assert "+adaptive" in cell.cell_id

    def test_default_keeps_classic_cell_ids(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(["--workload", "auto"])
        for cell in build_cells(request_from_args(args)):
            assert cell.config.stepper == "reference"
            assert "+reference" not in cell.cell_id


class _StubHarness:
    """The minimal surface ``Target`` binds to, with planner hooks."""

    dt = 0.02

    def __init__(self, stride=4):
        self.time = 0.0
        self.planned = None
        self.strides = []
        self._stride = stride

    def add_planned_events(self, times):
        self.planned = tuple(times)

    def wait_stride(self):
        return self._stride

    def step(self, count=1):
        self.strides.append(count)
        self.time += count * self.dt

    def should_abort(self):
        return False


class _ScheduledWorkload(Target):
    def scheduled_event_times(self):
        return (12.5, 40.0)

    def test(self):  # pragma: no cover - never run here
        self.pass_test()


class TestWorkloadPlannerHooks:
    def test_bind_registers_scheduled_events(self):
        harness = _StubHarness()
        workload = _ScheduledWorkload()
        workload.bind(harness)
        assert harness.planned == (12.5, 40.0)

    def test_default_schedule_is_empty(self):
        assert Target().scheduled_event_times() == ()

    def test_wait_until_polls_at_the_harness_stride(self):
        harness = _StubHarness(stride=4)
        workload = _ScheduledWorkload()
        workload.bind(harness)
        workload.wait_until(lambda: harness.time >= 0.3, timeout_s=10.0)
        assert set(harness.strides) == {4}

    def test_wait_until_steps_singly_without_the_hook(self):
        harness = _StubHarness()
        del _StubHarness.wait_stride  # type: ignore[attr-defined]
        try:
            workload = _ScheduledWorkload()
            workload.bind(harness)
            workload.wait_until(lambda: harness.time >= 0.1, timeout_s=10.0)
            assert set(harness.strides) == {1}
        finally:
            _StubHarness.wait_stride = lambda self: self._stride
