"""Tests for fleet campaigns: namespacing, simulation, invariants, engine."""

import math

import pytest

from conftest import make_run_result

from repro.core.avis import Avis, CampaignResult
from repro.core.config import RunConfiguration
from repro.core.monitor import InvariantMonitor, UnsafeCondition, UnsafeConditionKind
from repro.core.runner import TestRunner
from repro.core.strategies import RandomInjection
from repro.engine.cache import (
    config_fingerprint,
    scenario_fingerprint,
    scenario_key,
)
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.modes import OperatingModeLabel
from repro.hinj.faults import (
    FaultScenario,
    FaultSpec,
    TrafficFaultKind,
    TrafficFaultSpec,
)
from repro.sensors.base import SensorId, SensorType
from repro.sim.physics import ActuatorCommand
from repro.sim.simulator import Simulator
from repro.workloads.fleet import (
    ConvoyFollowWorkload,
    CrossingPathsWorkload,
    MultiPadTakeoffLandWorkload,
)


@pytest.fixture(scope="session")
def convoy_config() -> RunConfiguration:
    """A two-vehicle convoy mission on ArduPilot."""
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: ConvoyFollowWorkload(),
        fleet_size=2,
        max_sim_time_s=160.0,
    )


@pytest.fixture(scope="session")
def convoy_avis(convoy_config) -> Avis:
    """An Avis instance profiled on the convoy mission."""
    avis = Avis(convoy_config, profiling_runs=2, budget_units=20.0)
    avis.profile()
    return avis


class TestSensorNamespace:
    def test_vehicle_zero_labels_unchanged(self):
        sensor_id = SensorId(SensorType.GPS, 0)
        assert sensor_id.vehicle == 0
        assert sensor_id.label == "gps[0]"
        assert sensor_id.base is sensor_id
        assert sensor_id.for_vehicle(0) is sensor_id

    def test_namespaced_labels_and_base(self):
        sensor_id = SensorId(SensorType.COMPASS, 1, vehicle=2)
        assert sensor_id.label == "v2:compass[1]"
        assert sensor_id.base == SensorId(SensorType.COMPASS, 1)
        assert sensor_id.for_vehicle(0) == sensor_id.base

    def test_ordering_groups_by_vehicle(self):
        ids = [
            SensorId(SensorType.GPS, 0, vehicle=1),
            SensorId(SensorType.BAROMETER, 0),
            SensorId(SensorType.GPS, 0),
        ]
        ordered = sorted(ids)
        assert [i.vehicle for i in ordered] == [0, 0, 1]

    def test_negative_vehicle_rejected(self):
        with pytest.raises(ValueError):
            SensorId(SensorType.GPS, 0, vehicle=-1)


class TestScenarioNamespace:
    def _gps(self, vehicle=0):
        return SensorId(SensorType.GPS, 0, vehicle=vehicle)

    def test_vehicle_view_projects_to_base_ids(self):
        scenario = FaultScenario(
            [
                FaultSpec(self._gps(0), 2.0),
                FaultSpec(self._gps(1), 4.0),
            ]
        )
        assert scenario.vehicles == [0, 1]
        view0 = scenario.vehicle_view(0)
        view1 = scenario.vehicle_view(1)
        assert [f.start_time for f in view0] == [2.0]
        assert [f.start_time for f in view1] == [4.0]
        assert all(f.sensor_id.vehicle == 0 for f in view1)

    def test_vehicle_view_is_identity_for_classic_scenarios(self):
        scenario = FaultScenario([FaultSpec(self._gps(0), 2.0)])
        assert scenario.vehicle_view(0) is scenario

    def test_for_vehicle_renames_every_fault(self):
        scenario = FaultScenario([FaultSpec(self._gps(0), 2.0)])
        moved = scenario.for_vehicle(3)
        assert [f.sensor_id.vehicle for f in moved] == [3]

    def test_scenario_fingerprints_are_vehicle_aware_and_stable(self):
        classic = FaultScenario([FaultSpec(self._gps(0), 2.0)])
        fleet = FaultScenario([FaultSpec(self._gps(1), 2.0)])
        # Classic fingerprints render without any vehicle prefix, so
        # fleet support cannot perturb existing cache keys.
        assert scenario_fingerprint(classic) == "gps[0]@2.0"
        assert scenario_fingerprint(fleet) == "v1:gps[0]@2.0"
        assert scenario_fingerprint(fleet) != scenario_fingerprint(classic)

    def test_classic_config_fingerprint_has_no_fleet_terms(self, short_auto_config):
        fingerprint = config_fingerprint(short_auto_config, "auto")
        assert "fleet" not in fingerprint
        fleet_config = RunConfiguration(
            firmware_class=ArduPilotFirmware, fleet_size=2
        )
        assert "fleet_size=2" in config_fingerprint(fleet_config, "auto")

    def test_fleet_scenario_keys_differ_per_vehicle(self, convoy_config):
        key0 = scenario_key(
            convoy_config, "convoy", FaultScenario([FaultSpec(self._gps(0), 2.0)])
        )
        key1 = scenario_key(
            convoy_config, "convoy", FaultScenario([FaultSpec(self._gps(1), 2.0)])
        )
        assert key0 != key1


class TestFleetSimulator:
    def test_vehicles_spawn_on_offset_pads(self):
        simulator = Simulator(dt=0.02, fleet_size=3, pad_spacing_m=10.0)
        east = [state.position[1] for state in simulator.states]
        assert east == [0.0, 10.0, 20.0]
        assert all(state.on_ground for state in simulator.states)

    def test_step_fleet_requires_one_command_per_vehicle(self):
        simulator = Simulator(dt=0.02, fleet_size=2)
        with pytest.raises(ValueError):
            simulator.step_fleet([ActuatorCommand()])

    def test_proximity_event_and_min_separation(self):
        simulator = Simulator(
            dt=0.02, fleet_size=2, pad_spacing_m=4.0, proximity_threshold_m=5.0
        )
        # Teleport both vehicles airborne, 4 m apart, and hover them.
        simulator.teleport_vehicle(0, (0.0, 0.0, 10.0))
        simulator.teleport_vehicle(1, (0.0, 4.0, 10.0))
        hover = ActuatorCommand(throttle=0.49, armed=True)
        simulator.step_fleet([hover, hover])
        assert simulator.min_separation_m == pytest.approx(4.0, abs=0.2)
        assert len(simulator.proximity_events) == 1
        event = simulator.proximity_events[0]
        assert (event.vehicle_a, event.vehicle_b) == (0, 1)
        # Staying inside the conflict must not log another event.
        simulator.step_fleet([hover, hover])
        assert len(simulator.proximity_events) == 1

    def test_grounded_vehicles_are_not_conflicts(self):
        simulator = Simulator(
            dt=0.02, fleet_size=2, pad_spacing_m=1.0, proximity_threshold_m=5.0
        )
        simulator.step_fleet([ActuatorCommand(), ActuatorCommand()])
        assert simulator.proximity_events == []
        assert simulator.min_separation_m is None


class TestFleetWorkloads:
    @pytest.mark.parametrize(
        "factory,fleet_size",
        [
            (lambda: CrossingPathsWorkload(), 2),
            (lambda: MultiPadTakeoffLandWorkload(), 3),
        ],
    )
    def test_golden_runs_pass_with_healthy_separation(self, factory, fleet_size):
        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=factory,
            fleet_size=fleet_size,
            max_sim_time_s=160.0,
        )
        result = TestRunner(config).run()
        assert result.workload_passed
        assert result.fleet_size == fleet_size
        assert set(result.vehicle_traces) == set(range(fleet_size))
        assert result.min_separation_m is not None
        assert result.min_separation_m > 4.0
        assert result.proximity_events == []

    def test_fleet_workload_rejects_single_vehicle_harness(self):
        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: ConvoyFollowWorkload(),
            fleet_size=1,
        )
        result = TestRunner(config).run()
        assert not result.workload_passed
        assert "fleet" in result.workload_result.reason


class TestSeparationInvariant:
    def test_monitor_calibrates_threshold_from_fleet_profiles(self, convoy_avis):
        threshold = convoy_avis.monitor.separation_threshold_m
        golden_min = min(
            run.min_separation_m for run in convoy_avis.profiling_results
        )
        assert threshold is not None
        assert 0.0 < threshold < golden_min

    def test_single_vehicle_profiles_leave_invariant_disabled(self, waypoint_avis):
        assert waypoint_avis.monitor.separation_threshold_m is None

    def test_blind_follower_during_lead_failsafe_breaks_separation(
        self, convoy_config, convoy_avis
    ):
        """A lead fail-safe return plus dropped beacons: the follower
        holds blind in the corridor while the lead flies back through
        its slot -- the coordination hazard the traffic channel opens."""
        monitor = convoy_avis.monitor
        runner = TestRunner(convoy_config, monitor=monitor)
        monitor.begin_run()
        scenario = FaultScenario(
            [
                FaultSpec(SensorId(SensorType.BATTERY, 0, vehicle=0), 18.0),
                TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 18.0),
            ]
        )
        result = runner.run(scenario)
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION in kinds
        assert result.proximity_events
        assert result.min_separation_m < monitor.separation_threshold_m
        assert [record.fault.kind for record in result.traffic_injections] == [
            TrafficFaultKind.DROPOUT
        ]

    def test_live_beacons_let_follower_evade_lead_failsafe(
        self, convoy_config, convoy_avis
    ):
        """With the beacon stream intact the follower retreats ahead of
        the returning lead: the same battery fail-safe alone keeps the
        fleet separated."""
        monitor = convoy_avis.monitor
        runner = TestRunner(convoy_config, monitor=monitor)
        monitor.begin_run()
        scenario = FaultScenario(
            [FaultSpec(SensorId(SensorType.BATTERY, 0, vehicle=0), 18.0)]
        )
        result = runner.run(scenario)
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION not in kinds
        assert result.min_separation_m > monitor.separation_threshold_m

    def test_cache_keys_include_separation_calibration(
        self, convoy_config, convoy_avis, short_auto_config
    ):
        from repro.engine.cache import campaign_fingerprint, workload_fingerprint

        # Fleet campaigns: recorded proximity events depend on the
        # calibrated threshold, so it must be part of the cache key.
        fingerprint = campaign_fingerprint(convoy_config, convoy_avis.monitor)
        assert "separation_threshold" in fingerprint
        assert fingerprint != workload_fingerprint(convoy_config)
        # Classic campaigns keep the exact pre-fleet key term.
        assert campaign_fingerprint(short_auto_config, None) == workload_fingerprint(
            short_auto_config
        )

    def test_fleet_fault_space_doubles(self, convoy_avis):
        from repro.core.session import BudgetAccount, ExplorationSession

        session = ExplorationSession(
            runner=TestRunner(convoy_avis.config),
            budget=BudgetAccount(total_units=10.0),
            profiling_run=convoy_avis.profiling_results[0],
        )
        ids = session.sensor_ids
        assert len(ids) == 2 * len(session._suite.sensor_ids)
        assert sorted({sensor_id.vehicle for sensor_id in ids}) == [0, 1]
        backup = SensorId(SensorType.COMPASS, 1, vehicle=1)
        assert session.sensor_role(backup).value == "backup"


class TestFleetDeterminism:
    def _campaign(self, config, backend, budget=4.0):
        avis = Avis(config, profiling_runs=2, budget_units=budget, backend=backend)
        avis.profile()
        result = avis.check(strategy=RandomInjection(rng_seed=7))
        avis.engine.close()
        return result

    def test_pool_matches_serial_for_fleet_campaigns(self, convoy_config):
        serial = self._campaign(convoy_config, "serial")
        pooled = self._campaign(convoy_config, "pool:2")
        assert [r.scenario for r in pooled.results] == [
            r.scenario for r in serial.results
        ]
        assert [len(r.unsafe_conditions) for r in pooled.results] == [
            len(r.unsafe_conditions) for r in serial.results
        ]
        assert pooled.budget_spent == serial.budget_spent

    def test_fleet_size_one_matches_classic_config(self, short_auto_config):
        # An explicit fleet_size=1 is the same configuration as the
        # classic default: same fingerprints, same campaign results.
        explicit = RunConfiguration(
            firmware_class=short_auto_config.firmware_class,
            workload_factory=short_auto_config.workload_factory,
            max_sim_time_s=short_auto_config.max_sim_time_s,
            fleet_size=1,
        )
        assert config_fingerprint(explicit, "auto") == config_fingerprint(
            short_auto_config, "auto"
        )
        classic = Avis(short_auto_config, profiling_runs=2, budget_units=3.0)
        classic.profile()
        fleet_one = Avis(explicit, profiling_runs=2, budget_units=3.0)
        fleet_one.profile()
        a = classic.check(strategy=RandomInjection(rng_seed=11))
        b = fleet_one.check(strategy=RandomInjection(rng_seed=11))
        assert [r.scenario for r in a.results] == [r.scenario for r in b.results]
        assert a.budget_spent == b.budget_spent
        assert a.unsafe_scenario_count == b.unsafe_scenario_count

    def test_classic_results_have_no_fleet_payload(self, golden_auto_run):
        assert golden_auto_run.fleet_size == 1
        assert golden_auto_run.vehicle_traces == {}
        assert golden_auto_run.proximity_events == []
        assert golden_auto_run.min_separation_m is None


class TestPerModeCounts:
    def _campaign_with_condition(self, condition) -> CampaignResult:
        result = make_run_result()
        result.unsafe_conditions = [condition]
        return CampaignResult(
            strategy_name="stub",
            firmware_name="ardupilot",
            workload_name="stub",
            results=[result],
            simulations=1,
            labels=0,
            budget_spent=1.0,
        )

    def test_unknown_mode_category_gets_its_own_bucket(self):
        condition = UnsafeCondition(
            kind=UnsafeConditionKind.SEPARATION,
            time=1.0,
            mode_label="formation-experimental",
            description="synthetic",
        )
        counts = self._campaign_with_condition(condition).per_mode_counts
        assert counts["other"] == 1
        assert set(counts) >= {"takeoff", "manual", "waypoint", "land", "other"}
        assert sum(counts.values()) == 1

    def test_namespaced_labels_categorise_by_base_label(self):
        assert OperatingModeLabel.mode_category("v1:rtl") == "land"
        assert OperatingModeLabel.mode_category("v2:waypoint-3") == "waypoint"
        condition = UnsafeCondition(
            kind=UnsafeConditionKind.SEPARATION,
            time=1.0,
            mode_label="v1:takeoff",
            description="synthetic",
        )
        counts = self._campaign_with_condition(condition).per_mode_counts
        assert counts["takeoff"] == 1
