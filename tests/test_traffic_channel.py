"""Unit tests for the traffic channel, the coordination fault family
and their hashing/fingerprinting."""

import pytest

from test_sabre_strategies import StubRunner, make_session, profiling_run

from conftest import make_run_result, make_trace

from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.monitor import InvariantMonitor, UnsafeConditionKind
from repro.core.pruning import RedundancyPruner
from repro.core.session import BudgetAccount, ExplorationSession
from repro.core.strategies import AvisStrategy
from repro.engine.cache import (
    ResultCache,
    bug_registry_stamp,
    config_fingerprint,
    scenario_fingerprint,
    scenario_key,
)
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import (
    FaultScenario,
    FaultSpec,
    TrafficFailure,
    TrafficFaultKind,
    TrafficFaultSpec,
    default_traffic_failures,
    spec_for,
)
from repro.mavlink.traffic import TrafficChannel
from repro.sensors.base import SensorId, SensorRole, SensorType
from repro.sensors.suite import iris_sensor_suite
from repro.sim.vehicle import SOLO_QUADCOPTER


def drive(channel, steps, broadcasters, start_time=0.0):
    """Advance ``channel`` like the harness does: one advance per step,
    then every due vehicle broadcasts its (time, position, velocity)."""
    time = start_time
    for _ in range(steps):
        time += channel.dt
        channel.advance()
        if channel.beacon_due():
            for vehicle, state in broadcasters.items():
                position, velocity = state(time)
                channel.broadcast(
                    vehicle, time=time, position=position, velocity=velocity
                )


def moving_north(speed=2.0, altitude=10.0):
    return lambda t: ((speed * t, 0.0, altitude), (speed, 0.0, 0.0))


class TestTrafficChannel:
    def _channel(self, faults=()):
        return TrafficChannel(
            fleet_size=2, dt=0.1, beacon_interval_s=0.2, latency_s=0.1,
            faults=faults,
        )

    def test_beacons_deliver_with_latency(self):
        channel = self._channel()
        drive(channel, 5, {0: moving_north()})
        beacon = channel.latest(1, 0)
        assert beacon is not None
        # The delivered beacon is at least one latency step old.
        assert beacon.time < 0.5
        assert beacon.position[0] == pytest.approx(2.0 * beacon.time)
        assert beacon.velocity[0] == pytest.approx(2.0)
        assert channel.stats["delivered"] >= 1

    def test_own_ship_query_rejected(self):
        channel = self._channel()
        with pytest.raises(ValueError):
            channel.latest(0, 0)

    def test_dropout_stops_delivery_and_records_injection(self):
        fault = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.55)
        channel = self._channel(faults=[fault])
        drive(channel, 20, {0: moving_north()})
        beacon = channel.latest(1, 0)
        # The last delivered beacon predates the dropout.
        assert beacon is not None
        assert beacon.time <= 0.55
        assert channel.beacons_dropped > 0
        records = channel.injections
        assert [record.fault for record in records] == [fault]
        assert records[0].injected_time >= fault.start_time

    def test_freeze_serves_fresh_looking_ghost(self):
        fault = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 0.55)
        channel = self._channel(faults=[fault])
        drive(channel, 20, {0: moving_north()})
        beacon = channel.latest(1, 0)
        assert beacon is not None
        # Apparently fresh (recent emit time) ...
        assert beacon.time > 1.0
        # ... but the payload is frozen at the pre-fault state, with a
        # zeroed velocity so receivers do not dead-reckon the ghost.
        assert beacon.position[0] <= 2.0 * 0.55 + 1e-9
        assert beacon.velocity == (0.0, 0.0, 0.0)

    def test_delay_adds_latency(self):
        fault = TrafficFaultSpec(0, TrafficFaultKind.DELAY, 0.0, extra_delay_s=0.5)
        delayed = self._channel(faults=[fault])
        healthy = self._channel()
        drive(delayed, 20, {0: moving_north()})
        drive(healthy, 20, {0: moving_north()})
        assert delayed.latest(1, 0).time < healthy.latest(1, 0).time

    def test_faults_on_other_vehicle_leave_sender_clean(self):
        fault = TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 0.0)
        channel = self._channel(faults=[fault])
        drive(channel, 10, {0: moving_north(), 1: moving_north()})
        assert channel.latest(1, 0) is not None
        assert channel.latest(0, 1) is None


class TestTrafficFaultSpecs:
    def test_labels_are_vehicle_namespaced(self):
        assert TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 3.0).label == (
            "traffic:v1:dropout"
        )
        assert "delay+2s" in TrafficFaultSpec(
            0, TrafficFaultKind.DELAY, 3.0, extra_delay_s=2.0
        ).label

    def test_spec_for_dispatches_on_handle_type(self):
        sensor = SensorId(SensorType.GPS, 0)
        assert isinstance(spec_for(sensor, 2.0), FaultSpec)
        handle = TrafficFailure(1, TrafficFaultKind.FREEZE)
        spec = spec_for(handle, 2.0)
        assert isinstance(spec, TrafficFaultSpec)
        assert (spec.vehicle, spec.kind, spec.start_time) == (
            1, TrafficFaultKind.FREEZE, 2.0
        )

    def test_default_traffic_failures(self):
        assert default_traffic_failures(1) == []
        handles = default_traffic_failures(2)
        assert len(handles) == 6
        assert sorted({handle.vehicle for handle in handles}) == [0, 1]

    def test_scenario_mixes_sensor_and_traffic_faults(self):
        scenario = FaultScenario(
            [
                TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 5.0),
                FaultSpec(SensorId(SensorType.GPS, 0), 2.0),
            ]
        )
        assert len(scenario) == 2
        assert [f.start_time for f in scenario.sensor_faults] == [2.0]
        assert [f.vehicle for f in scenario.traffic_faults] == [1]
        # Sensor faults iterate first, in the classic order.
        assert isinstance(scenario.faults[0], FaultSpec)
        assert scenario.vehicles == [0, 1]
        assert "traffic:v1:dropout" in scenario.describe()

    def test_vehicle_view_excludes_traffic_faults(self):
        scenario = FaultScenario(
            [
                TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 5.0),
                FaultSpec(SensorId(SensorType.GPS, 0), 2.0),
            ]
        )
        view = scenario.vehicle_view(0)
        assert len(view) == 1
        assert not view.traffic_faults

    def test_shifted_preserves_traffic_parameters(self):
        scenario = FaultScenario(
            [TrafficFaultSpec(1, TrafficFaultKind.DELAY, 5.0, extra_delay_s=2.0)]
        )
        shifted = scenario.shifted(-1.0)
        fault = shifted.traffic_faults[0]
        assert fault.start_time == 4.0
        assert fault.extra_delay_s == 2.0

    def test_pruner_keeps_traffic_kinds_distinct(self):
        dropout = FaultScenario([TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 5.0)])
        freeze = FaultScenario([TrafficFaultSpec(1, TrafficFaultKind.FREEZE, 5.0)])
        pruner = RedundancyPruner()
        pruner.record_explored(dropout)
        assert pruner.can_prune(dropout)
        assert not pruner.can_prune(freeze)


class TestTrafficFingerprints:
    def test_scenario_fingerprint_renders_traffic_labels(self):
        scenario = FaultScenario(
            [
                FaultSpec(SensorId(SensorType.GPS, 0), 2.0),
                TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 5.0),
            ]
        )
        assert scenario_fingerprint(scenario) == (
            "gps[0]@2.0;traffic:v1:dropout@5.0"
        )

    def test_traffic_keys_differ_per_vehicle_and_kind(self):
        config = RunConfiguration(firmware_class=ArduPilotFirmware, fleet_size=2)
        keys = {
            scenario_key(
                config,
                "convoy",
                FaultScenario([TrafficFaultSpec(vehicle, kind, 5.0)]),
            )
            for vehicle in (0, 1)
            for kind in TrafficFaultKind
        }
        assert len(keys) == 6

    def test_schema_version_is_part_of_the_registry_stamp(self, monkeypatch):
        from repro.engine import cache as cache_module

        before = bug_registry_stamp()
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 99)
        assert cache_module.bug_registry_stamp() != before

    def test_pre_refactor_cache_directories_self_invalidate(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        cache.put("somekey", make_run_result())
        # Simulate a directory written by an older engine: a different
        # (pre-bump) stamp.
        with open(f"{directory}/{ResultCache.VERSION_FILENAME}", "w") as handle:
            handle.write("stale-stamp\n")
        reopened = ResultCache(directory=directory)
        assert reopened.invalidated == 1
        assert reopened.get("somekey") is None


class TestTrafficReplay:
    def test_replay_plan_carries_traffic_faults(self):
        from repro.core.replay import build_replay_plan, resolve_plan
        from repro.mavlink.traffic import TrafficInjectionRecord

        original = make_run_result()
        fault = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.6)
        original.traffic_injections = [
            TrafficInjectionRecord(
                fault=fault, scheduled_time=0.6, injected_time=0.7
            )
        ]
        plan = build_replay_plan(original)
        assert len(plan.faults) == 1
        anchored = plan.faults[0]
        assert isinstance(anchored.failure, TrafficFailure)
        assert anchored.anchor_label == "takeoff"
        assert "traffic:v0:dropout" in plan.describe()
        scenario = resolve_plan(plan, make_run_result())
        replayed = scenario.traffic_faults[0]
        assert (replayed.vehicle, replayed.kind) == (0, TrafficFaultKind.DROPOUT)
        assert replayed.start_time == pytest.approx(0.7)


class TestAvisStrategyTrafficMerge:
    def test_explicit_failures_still_gain_traffic_handles(self):
        handles = default_traffic_failures(2)
        session = ExplorationSession(
            runner=StubRunner(),
            budget=BudgetAccount(total_units=10.0),
            profiling_run=profiling_run(),
            suite=iris_sensor_suite(),
            traffic_failures=handles,
        )
        explicit = [SensorId(SensorType.GPS, 0)]
        strategy = AvisStrategy(
            failures=explicit, include_traffic_faults=True
        )
        search = strategy._make_search(session)
        assert search._failures == explicit + handles


class TestHeterogeneousFingerprints:
    def test_explicit_homogeneous_specs_keep_the_scalar_fingerprint(self):
        scalar = RunConfiguration(firmware_class=ArduPilotFirmware, fleet_size=2)
        explicit = RunConfiguration(
            vehicles=(VehicleSpec(), VehicleSpec()),
        )
        assert not explicit.is_heterogeneous
        assert config_fingerprint(explicit, "w") == config_fingerprint(scalar, "w")

    def test_heterogeneous_specs_render_per_vehicle_terms(self):
        config = RunConfiguration(
            vehicles=(
                VehicleSpec(firmware_class=ArduPilotFirmware),
                VehicleSpec(firmware_class=Px4Firmware, airframe=SOLO_QUADCOPTER),
            ),
        )
        assert config.is_heterogeneous
        fingerprint = config_fingerprint(config, "w")
        assert "vehicles=[" in fingerprint
        assert "v1:firmware=px4" in fingerprint
        homogeneous = RunConfiguration(
            firmware_class=ArduPilotFirmware, fleet_size=2
        )
        assert fingerprint != config_fingerprint(homogeneous, "w")

    def test_vehicle_spec_aliases_and_validation(self):
        config = RunConfiguration(
            vehicles=(
                VehicleSpec(firmware_class=Px4Firmware),
                VehicleSpec(firmware_class=ArduPilotFirmware),
            ),
        )
        assert config.fleet_size == 2
        # Scalar aliases follow vehicle 0.
        assert config.firmware_class is Px4Firmware
        assert config.firmware_name == "px4"
        assert config.vehicle_spec(1).firmware_class is ArduPilotFirmware
        with pytest.raises(IndexError):
            config.vehicle_spec(2)
        with pytest.raises(ValueError):
            RunConfiguration(vehicles=())
        with pytest.raises(ValueError):
            RunConfiguration(fleet_size=3, vehicles=(VehicleSpec(), VehicleSpec()))

    def test_with_noise_seed_preserves_vehicles(self):
        config = RunConfiguration(
            vehicles=(VehicleSpec(), VehicleSpec(firmware_class=Px4Firmware)),
        )
        reseeded = config.with_noise_seed(7)
        assert reseeded.vehicles == config.vehicles
        assert reseeded.noise_seed == 7


class TestSessionTrafficSpace:
    def test_traffic_space_is_opt_in(self):
        session = make_session()
        assert session.traffic_failures == []
        assert session.injectable_failures == session.sensor_ids

    def test_opted_in_failures_extend_the_sensor_space(self):
        handles = default_traffic_failures(2)
        session = ExplorationSession(
            runner=StubRunner(),
            budget=BudgetAccount(total_units=10.0),
            profiling_run=profiling_run(),
            suite=iris_sensor_suite(),
            traffic_failures=handles,
        )
        space = session.injectable_failures
        assert space[: len(session.sensor_ids)] == session.sensor_ids
        assert space[len(session.sensor_ids):] == handles


class TestTrafficOptInValidation:
    def test_avis_rejects_traffic_faults_without_a_fleet(self):
        from repro.core.avis import Avis

        with pytest.raises(ValueError):
            Avis(RunConfiguration(), traffic_faults=True)


class TestGuidedSpeedLimit:
    def test_zero_speed_limit_means_hold_not_unlimited(self):
        """speed_limit=0.0 (now publicly reachable via goto_vehicle /
        set_guided_target) must clamp the velocity command to zero, not
        fall through to the airframe maximum."""
        from repro.firmware.estimator import StateEstimate
        from repro.firmware.navigation import NavigationSetpoint, PositionController
        from repro.firmware.params import FirmwareParameters
        from repro.sim.vehicle import IRIS_QUADCOPTER

        controller = PositionController(FirmwareParameters(), IRIS_QUADCOPTER)
        estimate = StateEstimate()
        far_target = dict(target_north=50.0, target_east=0.0)
        roll_capped, pitch_capped = controller.update(
            estimate, NavigationSetpoint(**far_target, speed_limit=0.0)
        )
        assert (roll_capped, pitch_capped) == (0.0, 0.0)
        _, pitch_free = controller.update(
            estimate, NavigationSetpoint(**far_target)
        )
        assert pitch_free > 0.0


class TestFollowerLiveliness:
    def _stuck_rtl_trace(self, count=120):
        samples = make_trace(
            [(30.0, 0.0, 20.0)] * count, ["rtl"] * count, sample_period=0.1
        )
        return samples

    def test_online_follower_progress_violation_is_namespaced(self):
        monitor = InvariantMonitor([make_run_result()])
        monitor.begin_run()
        violation = None
        for sample in self._stuck_rtl_trace():
            violation = monitor.check_vehicle_sample(1, sample)
            if violation is not None:
                break
        assert violation is not None
        assert violation.kind == UnsafeConditionKind.SAFE_MODE_PROGRESS
        assert violation.mode_label == "v1:rtl"
        assert "vehicle 1" in violation.description

    def test_online_follower_tracking_is_per_vehicle(self):
        monitor = InvariantMonitor([make_run_result()])
        monitor.begin_run()
        stuck = self._stuck_rtl_trace()
        # Vehicle 2 progresses (descending in land); vehicle 1 is stuck.
        descending = make_trace(
            [(0.0, 0.0, 20.0 - 0.05 * i) for i in range(120)],
            ["land"] * 120,
            sample_period=0.1,
        )
        v1 = [monitor.check_vehicle_sample(1, sample) for sample in stuck]
        v2 = [monitor.check_vehicle_sample(2, sample) for sample in descending]
        assert any(violation is not None for violation in v1)
        assert all(violation is None for violation in v2)

    def test_offline_evaluation_covers_follower_traces(self):
        monitor = InvariantMonitor([make_run_result()])
        result = make_run_result()
        result.fleet_size = 2
        result.vehicle_traces = {0: result.trace, 1: self._stuck_rtl_trace()}
        conditions = monitor.evaluate(result)
        follower = [c for c in conditions if c.mode_label.startswith("v1:")]
        assert follower
        assert follower[0].kind == UnsafeConditionKind.SAFE_MODE_PROGRESS

