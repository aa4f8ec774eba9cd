"""Intermittent faults with recovery semantics, across both fault families.

Covers the recovery-window spec grammar (``duration_s``), the sensor
scheduler/driver recovery path, the traffic channel's recovery
semantics, the latched-default bit-identity guarantee, the burst
enumeration of the search strategies, the monitor's post-recovery
re-convergence tolerance, and the canonical convoy recovery-window
hazard -- plus the traffic-channel canonicalization fixes that ride
along (extra_delay_s canonicalization, complete injection recording
under co-scheduled faults, strict ``latest()`` bounds).
"""

import pytest

from conftest import drive_batched, make_run_result, make_trace

from repro.core.config import RunConfiguration
from repro.core.monitor import (
    InvariantMonitor,
    UnsafeConditionKind,
    recovery_tolerance_windows,
)
from repro.core.pruning import RedundancyPruner, symmetry_signature
from repro.core.replay import build_replay_plan, resolve_plan
from repro.core.runner import TestRunner
from repro.core.sabre import SabreSearch
from repro.core.strategies import (
    AvisStrategy,
    BayesianFaultInjection,
    StratifiedBFI,
)
from repro.engine.cache import scenario_fingerprint, scenario_key
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.estimator import StateEstimator
from repro.firmware.params import FirmwareParameters
from repro.hinj.faults import (
    BurstFailure,
    FaultScenario,
    FaultSpec,
    TrafficFailure,
    TrafficFaultKind,
    TrafficFaultSpec,
    burst_failures,
    spec_for,
    validate_burst_durations,
)
from repro.hinj.scheduler import FaultScheduler
from repro.mavlink.traffic import TrafficChannel
from repro.sensors.base import SensorId, SensorType
from repro.sensors.gps import GpsReceiver
from repro.sensors.suite import iris_sensor_suite
from repro.sim.state import VehicleState
from repro.workloads.fleet import ConvoyFollowWorkload

GPS = SensorId(SensorType.GPS, 0)
BARO = SensorId(SensorType.BAROMETER, 0)


def drive(channel, steps, broadcasters, start_time=0.0):
    """Advance ``channel`` like the harness does."""
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
    return time


def moving_north(speed=2.0, altitude=10.0):
    return lambda t: ((speed * t, 0.0, altitude), (speed, 0.0, 0.0))


class TestWindowedSpecGrammar:
    def test_latched_default_is_none(self):
        assert FaultSpec(GPS, 2.0).duration_s is None
        assert TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0).duration_s is None

    def test_active_window_closes(self):
        fault = FaultSpec(GPS, 2.0, duration_s=3.0)
        assert not fault.active_at(1.9)
        assert fault.active_at(2.0)
        assert fault.active_at(4.9)
        assert not fault.active_at(5.0)
        assert fault.recovers
        assert fault.end_time == 5.0

    def test_latched_fault_never_recovers(self):
        fault = FaultSpec(GPS, 2.0)
        assert fault.active_at(1e9)
        assert not fault.recovers
        assert fault.end_time is None

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(GPS, 2.0, duration_s=0.0)
        with pytest.raises(ValueError):
            TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0, duration_s=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_windows_are_rejected(self, bad):
        # A NaN window is never active and an infinite one never
        # recovers, so neither is a burst.
        with pytest.raises(ValueError, match="finite"):
            FaultSpec(GPS, 5.0, duration_s=bad)
        with pytest.raises(ValueError, match="finite"):
            TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 5.0, duration_s=bad)
        with pytest.raises(ValueError, match="finite"):
            BurstFailure(GPS, bad)
        with pytest.raises(ValueError, match="finite"):
            validate_burst_durations((3.0, bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_start_time_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FaultSpec(GPS, bad)
        with pytest.raises(ValueError, match="finite"):
            TrafficFaultSpec(0, TrafficFaultKind.FREEZE, bad)

    def test_windowed_and_latched_specs_are_distinct(self):
        latched = FaultSpec(GPS, 2.0)
        burst = FaultSpec(GPS, 2.0, duration_s=3.0)
        assert latched != burst
        assert len({latched, burst, FaultSpec(GPS, 2.0, duration_s=4.0)}) == 3

    def test_mixed_durations_sort_without_type_errors(self):
        specs = [
            FaultSpec(GPS, 2.0, duration_s=3.0),
            FaultSpec(GPS, 2.0),
            FaultSpec(GPS, 2.0, duration_s=1.0),
            TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0, duration_s=5.0),
            TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0),
        ]
        ordered = sorted(specs)
        # Sensor faults first; shorter windows before longer; latched
        # (infinite window) last within a site.
        assert [getattr(spec, "duration_s", None) for spec in ordered] == [
            1.0, 3.0, None, 5.0, None,
        ]

    def test_describe_mentions_window_only_when_set(self):
        assert "for" not in FaultSpec(GPS, 2.0).describe()
        assert "for 3s" in FaultSpec(GPS, 2.0, duration_s=3.0).describe()
        assert "for 2.5s" in TrafficFaultSpec(
            0, TrafficFaultKind.FREEZE, 1.0, duration_s=2.5
        ).describe()

    def test_for_vehicle_and_shifted_preserve_the_window(self):
        fault = FaultSpec(GPS, 2.0, duration_s=3.0)
        assert fault.for_vehicle(1).duration_s == 3.0
        traffic = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0, duration_s=4.0)
        assert traffic.for_vehicle(2).duration_s == 4.0
        shifted = FaultScenario([fault, traffic]).shifted(1.5)
        assert [f.duration_s for f in shifted.faults] == [3.0, 4.0]

    def test_recovering_faults_queries(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 2.0),
                FaultSpec(BARO, 3.0, duration_s=2.0),
            ]
        )
        assert scenario.has_recovering_faults
        assert [f.sensor_id for f in scenario.recovering_faults] == [BARO]
        assert not FaultScenario([FaultSpec(GPS, 2.0)]).has_recovering_faults

    def test_should_fail_sees_disjoint_windows_per_sensor(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 2.0, duration_s=1.0),
                FaultSpec(GPS, 6.0, duration_s=1.0),
            ]
        )
        assert scenario.should_fail(GPS, 2.5)
        assert not scenario.should_fail(GPS, 4.0)
        assert scenario.should_fail(GPS, 6.5)
        assert not scenario.should_fail(GPS, 8.0)


class TestExtraDelayCanonicalization:
    """Regression: ``extra_delay_s`` is meaningless for non-DELAY kinds
    and must not split (or alias) scenario identities."""

    def test_non_delay_specs_canonicalize_extra_delay(self):
        plain = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 5.0)
        tweaked = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 5.0, extra_delay_s=2.0)
        assert plain == tweaked
        assert hash(plain) == hash(tweaked)
        assert plain.sort_key() == tweaked.sort_key()
        assert plain.label == tweaked.label
        # One scenario, one cache key -- not two explored as distinct.
        assert FaultScenario([plain]) == FaultScenario([tweaked])
        config = RunConfiguration(firmware_class=ArduPilotFirmware, fleet_size=2)
        assert scenario_key(
            config, "convoy", FaultScenario([plain])
        ) == scenario_key(config, "convoy", FaultScenario([tweaked]))

    def test_freeze_canonicalizes_too(self):
        assert TrafficFaultSpec(
            1, TrafficFaultKind.FREEZE, 3.0, extra_delay_s=9.0
        ) == TrafficFaultSpec(1, TrafficFaultKind.FREEZE, 3.0)

    def test_delay_specs_keep_their_parameter(self):
        slow = TrafficFaultSpec(0, TrafficFaultKind.DELAY, 5.0, extra_delay_s=2.0)
        fast = TrafficFaultSpec(0, TrafficFaultKind.DELAY, 5.0, extra_delay_s=0.5)
        assert slow != fast
        assert slow.label != fast.label
        assert slow.extra_delay_s == 2.0

    def test_failure_handles_canonicalize_identically(self):
        assert TrafficFailure(
            0, TrafficFaultKind.DROPOUT, extra_delay_s=7.0
        ) == TrafficFailure(0, TrafficFaultKind.DROPOUT)
        assert TrafficFailure(
            0, TrafficFaultKind.DELAY, extra_delay_s=7.0
        ) != TrafficFailure(0, TrafficFaultKind.DELAY)


class TestLatchedDefaultBitIdentity:
    """With every ``duration_s=None``, hashes, labels, replay plans and
    cache fingerprints render exactly as the pre-window engine did."""

    def test_scenario_fingerprints_unchanged(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 2.0),
                TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 5.0),
            ]
        )
        assert scenario_fingerprint(scenario) == (
            "gps[0]@2.0;traffic:v1:dropout@5.0"
        )
        delay = FaultScenario(
            [TrafficFaultSpec(0, TrafficFaultKind.DELAY, 3.0, extra_delay_s=2.0)]
        )
        assert scenario_fingerprint(delay) == "traffic:v0:delay+2s@3.0"

    def test_window_term_emitted_only_when_non_default(self):
        burst = FaultScenario([FaultSpec(GPS, 2.0, duration_s=3.0)])
        assert scenario_fingerprint(burst) == "gps[0]@2.0~3.0"
        traffic_burst = FaultScenario(
            [TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 5.0, duration_s=4.0)]
        )
        assert scenario_fingerprint(traffic_burst) == "traffic:v1:dropout@5.0~4.0"
        # ... so latched scenarios keep their exact cache keys.
        config = RunConfiguration(firmware_class=ArduPilotFirmware)
        explicit_none = FaultScenario([FaultSpec(GPS, 2.0, duration_s=None)])
        assert scenario_key(config, "w", explicit_none) == scenario_key(
            config, "w", FaultScenario([FaultSpec(GPS, 2.0)])
        )

    def test_labels_and_descriptions_unchanged(self):
        assert TrafficFaultSpec(1, TrafficFaultKind.DROPOUT, 3.0).label == (
            "traffic:v1:dropout"
        )
        assert FaultSpec(GPS, 2.5).describe() == "gps[0] fails at t=2.50s"
        assert TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 3.0).describe() == (
            "traffic:v0:dropout at t=3.00s"
        )

    def test_latched_sort_order_unchanged(self):
        specs = [
            TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 1.0),
            FaultSpec(BARO, 9.0),
            FaultSpec(GPS, 2.0),
            TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 5.0),
        ]
        ordered = FaultScenario(specs).faults
        assert [
            f.sensor_id.label if isinstance(f, FaultSpec) else f.label
            for f in ordered
        ] == ["barometer[0]", "gps[0]", "traffic:v0:dropout", "traffic:v0:freeze"]

    def test_symmetry_signatures_still_separate_sites(self):
        suite = iris_sensor_suite()
        role_of = lambda sensor_id: suite.role_of(sensor_id.base)  # noqa: E731
        latched = FaultScenario([FaultSpec(SensorId(SensorType.COMPASS, 1), 5.0)])
        peer = FaultScenario([FaultSpec(SensorId(SensorType.COMPASS, 1), 5.0)])
        burst = FaultScenario(
            [FaultSpec(SensorId(SensorType.COMPASS, 1), 5.0, duration_s=2.0)]
        )
        assert symmetry_signature(latched, role_of) == symmetry_signature(
            peer, role_of
        )
        # A burst is a genuinely different probe: never symmetric with
        # the latched fault at the same site.
        assert symmetry_signature(latched, role_of) != symmetry_signature(
            burst, role_of
        )
        pruner = RedundancyPruner(role_of=role_of)
        pruner.record_explored(latched)
        assert pruner.can_prune(latched)
        assert not pruner.can_prune(burst)

    def test_replay_plan_round_trip_unchanged_for_latched(self):
        original = make_run_result(
            scenario=FaultScenario([FaultSpec(GPS, 0.7)])
        )
        from repro.hinj.scheduler import InjectionRecord

        original.injections = [
            InjectionRecord(sensor_id=GPS, scheduled_time=0.7, injected_time=0.7)
        ]
        plan = build_replay_plan(original)
        assert plan.faults[0].duration_s is None
        resolved = resolve_plan(plan, make_run_result())
        fault = resolved.sensor_faults[0]
        assert fault.duration_s is None
        assert fault.start_time == pytest.approx(0.7)


class TestSchedulerRecovery:
    def test_should_fail_reverts_after_the_window(self):
        scheduler = FaultScheduler(
            FaultScenario([FaultSpec(GPS, 2.0, duration_s=3.0)])
        )
        assert not scheduler.should_fail(GPS, 1.0)
        assert scheduler.should_fail(GPS, 2.5)
        assert scheduler.should_fail(GPS, 4.9)
        assert not scheduler.should_fail(GPS, 5.1)
        record = scheduler.injections[0]
        assert record.duration_s == 3.0
        assert record.recovered
        assert record.recovered_time == pytest.approx(5.1)

    def test_disjoint_windows_record_one_injection_each(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 10.0, duration_s=3.0),
                FaultSpec(GPS, 30.0, duration_s=3.0),
            ]
        )
        scheduler = FaultScheduler(scenario)
        for time in (9.0, 11.0, 14.0, 20.0, 31.0, 34.0):
            scheduler.should_fail(GPS, time)
        records = scheduler.injections
        assert [record.scheduled_time for record in records] == [10.0, 30.0]
        assert [record.recovered_time for record in records] == [14.0, 34.0]
        assert {record.sensor_id for record in records} == {GPS}
        # Replay plans carry *both* windows.
        result = make_run_result(scenario=scenario)
        result.injections = records
        plan = build_replay_plan(result)
        assert len(plan.faults) == 2
        assert [fault.duration_s for fault in plan.faults] == [3.0, 3.0]

    def test_later_window_stays_unapplied(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 10.0, duration_s=3.0),
                FaultSpec(GPS, 30.0, duration_s=3.0),
            ]
        )
        scheduler = FaultScheduler(scenario)
        scheduler.should_fail(GPS, 11.0)
        assert [record.scheduled_time for record in scheduler.injections] == [10.0]
        assert not scheduler.settled

    def test_latched_records_never_recover(self):
        scheduler = FaultScheduler(FaultScenario([FaultSpec(GPS, 2.0)]))
        scheduler.should_fail(GPS, 3.0)
        scheduler.should_fail(GPS, 100.0)
        record = scheduler.injections[0]
        assert not record.recovered
        assert record.recovered_time is None
        assert record.duration_s is None

    def test_driver_recovers_when_the_scheduler_stops_failing(self):
        scheduler = FaultScheduler(
            FaultScenario([FaultSpec(GPS, 2.0, duration_s=3.0)])
        )
        gps = GpsReceiver()
        gps.instrument(scheduler.should_fail)
        state = VehicleState()
        assert gps.sample(state, 1.0) is not None
        assert gps.sample(state, 2.5) is None
        assert gps.failed
        assert gps.sample(state, 5.5)
        assert not gps.failed

    def test_suite_failover_and_failback(self):
        suite = iris_sensor_suite()
        compass0 = SensorId(SensorType.COMPASS, 0)
        scheduler = FaultScheduler(
            FaultScenario([FaultSpec(compass0, 1.0, duration_s=2.0)])
        )
        suite.instrument(scheduler.should_fail)
        estimator = StateEstimator(suite, FirmwareParameters())
        state = VehicleState()
        estimator.update(suite.read_all(state, 1.5), 0.02, 1.5)
        assert estimator.active_instance(SensorType.COMPASS).instance == 1
        estimator.update(suite.read_all(state, 3.5), 0.02, 3.5)
        assert estimator.active_instance(SensorType.COMPASS).instance == 0


class TestChannelRecovery:
    def _channel(self, faults=()):
        return TrafficChannel(
            fleet_size=2, dt=0.1, beacon_interval_s=0.2, latency_s=0.1,
            faults=faults,
        )

    def test_dropout_recovers_and_beacons_resume(self):
        fault = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.5, duration_s=0.6)
        channel = self._channel(faults=[fault])
        drive(channel, 30, {0: moving_north()})
        beacon = channel.latest(1, 0)
        assert beacon is not None
        assert beacon.time > 1.1, "fresh beacons must flow after recovery"
        record = channel.injections[0]
        assert record.recovered
        assert record.recovered_time >= fault.end_time
        assert "recovered" in record.describe()

    def test_freeze_thaws_back_to_live_payloads(self):
        fault = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 0.5, duration_s=0.6)
        channel = self._channel(faults=[fault])
        drive(channel, 30, {0: moving_north()})
        beacon = channel.latest(1, 0)
        assert beacon.velocity[0] == pytest.approx(2.0)
        assert beacon.position[0] == pytest.approx(2.0 * beacon.time)

    def test_second_freeze_freezes_at_the_post_recovery_state(self):
        first = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 0.5, duration_s=0.4)
        second = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 2.0)
        channel = self._channel(faults=[first, second])
        drive(channel, 40, {0: moving_north()})
        beacon = channel.latest(1, 0)
        assert beacon.velocity == (0.0, 0.0, 0.0)
        # The ghost payload is from just before the *second* window, not
        # the first: the thaw refreshed the pre-fault state.
        assert 3.0 < beacon.position[0] <= 4.0

    def test_delay_reverts_to_base_latency(self):
        fault = TrafficFaultSpec(
            0, TrafficFaultKind.DELAY, 0.0, extra_delay_s=0.5, duration_s=1.0
        )
        delayed = self._channel(faults=[fault])
        healthy = self._channel()
        drive(delayed, 30, {0: moving_north()})
        drive(healthy, 30, {0: moving_north()})
        assert delayed.latest(1, 0).time == healthy.latest(1, 0).time

    def test_latched_faults_never_record_recovery(self):
        fault = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.5)
        channel = self._channel(faults=[fault])
        drive(channel, 30, {0: moving_north()})
        assert not channel.injections[0].recovered


class TestCombinedFaultRecording:
    """Regression: an active dropout must not hide co-scheduled faults
    from the injection log (or the freeze ghost capture)."""

    def _channel(self, faults):
        return TrafficChannel(fleet_size=2, dt=0.1, faults=faults)

    def test_co_scheduled_freeze_is_recorded_under_a_dropout(self):
        dropout = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.5)
        freeze = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 0.5)
        channel = self._channel([dropout, freeze])
        drive(channel, 20, {0: moving_north()})
        recorded = {record.fault.kind for record in channel.injections}
        assert recorded == {TrafficFaultKind.DROPOUT, TrafficFaultKind.FREEZE}
        # The freeze's ghost payload was captured despite the drop.
        assert 0 in channel._frozen

    def test_co_scheduled_delay_is_recorded_under_a_dropout(self):
        dropout = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.5)
        delay = TrafficFaultSpec(0, TrafficFaultKind.DELAY, 0.5, extra_delay_s=0.5)
        channel = self._channel([dropout, delay])
        drive(channel, 20, {0: moving_north()})
        recorded = {record.fault.kind for record in channel.injections}
        assert recorded == {TrafficFaultKind.DROPOUT, TrafficFaultKind.DELAY}

    def test_dropped_beacons_still_count_and_do_not_deliver(self):
        dropout = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.0)
        freeze = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 0.0)
        channel = self._channel([dropout, freeze])
        drive(channel, 20, {0: moving_north()})
        assert channel.beacons_dropped > 0
        assert channel.latest(1, 0) is None

    def test_recovered_dropout_reveals_the_surviving_freeze(self):
        dropout = TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 0.0, duration_s=1.0)
        freeze = TrafficFaultSpec(0, TrafficFaultKind.FREEZE, 0.0)
        channel = self._channel([dropout, freeze])
        drive(channel, 30, {0: moving_north()})
        beacon = channel.latest(1, 0)
        # After the dropout window the freeze keeps ghosting: beacons
        # flow again but stay frozen at the first broadcast's payload.
        assert beacon is not None
        assert beacon.velocity == (0.0, 0.0, 0.0)


class TestLatestBounds:
    """Regression: an out-of-range fleet index must raise, not read as
    "no beacon yet" forever."""

    def test_out_of_range_sender_raises(self):
        channel = TrafficChannel(fleet_size=2, dt=0.1)
        with pytest.raises(ValueError, match="sender 2"):
            channel.latest(0, 2)

    def test_out_of_range_receiver_raises(self):
        channel = TrafficChannel(fleet_size=2, dt=0.1)
        with pytest.raises(ValueError, match="receiver -1"):
            channel.latest(-1, 0)

    def test_own_ship_still_rejected(self):
        channel = TrafficChannel(fleet_size=3, dt=0.1)
        with pytest.raises(ValueError, match="itself"):
            channel.latest(1, 1)

    def test_in_range_queries_still_work(self):
        channel = TrafficChannel(fleet_size=3, dt=0.1)
        assert channel.latest(2, 0) is None


class TestShiftedTrafficScenarios:
    """Clamping at 0.0 can collapse previously distinct scenarios."""

    def test_negative_shift_clamps_traffic_faults_to_zero(self):
        scenario = FaultScenario(
            [TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 3.0, duration_s=2.0)]
        )
        shifted = scenario.shifted(-5.0)
        fault = shifted.traffic_faults[0]
        assert fault.start_time == 0.0
        assert fault.duration_s == 2.0

    def test_clamping_collapses_distinct_scenarios(self):
        early = FaultScenario([TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 1.0)])
        late = FaultScenario([TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 2.0)])
        assert early != late
        assert early.shifted(-3.0) == late.shifted(-3.0)

    def test_clamping_collapses_mixed_family_scenarios_consistently(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 1.0),
                TrafficFaultSpec(1, TrafficFaultKind.FREEZE, 2.0),
            ]
        )
        collapsed = scenario.shifted(-10.0)
        assert len(collapsed) == 2
        assert all(fault.start_time == 0.0 for fault in collapsed.faults)


class TestReplayRoundTrip:
    def _recorded_result(self, duration_s):
        from repro.hinj.scheduler import InjectionRecord
        from repro.mavlink.traffic import TrafficInjectionRecord

        original = make_run_result()
        original.injections = [
            InjectionRecord(
                sensor_id=GPS,
                scheduled_time=0.6,
                injected_time=0.7,
                duration_s=duration_s,
            )
        ]
        original.traffic_injections = [
            TrafficInjectionRecord(
                fault=TrafficFaultSpec(
                    0, TrafficFaultKind.DROPOUT, 0.6, duration_s=duration_s
                ),
                scheduled_time=0.6,
                injected_time=0.7,
            )
        ]
        return original

    @pytest.mark.parametrize("duration_s", [None, 4.0])
    def test_plan_round_trips_the_window(self, duration_s):
        plan = build_replay_plan(self._recorded_result(duration_s))
        assert [fault.duration_s for fault in plan.faults] == [duration_s] * 2
        resolved = resolve_plan(plan, make_run_result())
        sensor = resolved.sensor_faults[0]
        traffic = resolved.traffic_faults[0]
        assert sensor.duration_s == duration_s
        assert traffic.duration_s == duration_s
        assert sensor.start_time == pytest.approx(0.7)
        assert traffic.start_time == pytest.approx(0.7)

    def test_plan_description_mentions_the_window(self):
        plan = build_replay_plan(self._recorded_result(4.0))
        assert "for 4s" in plan.describe()
        latched = build_replay_plan(self._recorded_result(None))
        assert "for 4s" not in latched.describe()


class TestBurstHandles:
    def test_burst_failure_labels_and_specs(self):
        burst = BurstFailure(GPS, 3.0)
        assert burst.label == "gps[0]~3s"
        spec = burst.spec_at(7.0)
        assert isinstance(spec, FaultSpec)
        assert (spec.start_time, spec.duration_s) == (7.0, 3.0)
        traffic = BurstFailure(TrafficFailure(1, TrafficFaultKind.DROPOUT), 2.0)
        assert traffic.label == "traffic:v1:dropout~2s"
        traffic_spec = traffic.spec_at(5.0)
        assert isinstance(traffic_spec, TrafficFaultSpec)
        assert traffic_spec.duration_s == 2.0

    def test_burst_handles_do_not_nest_and_need_positive_durations(self):
        with pytest.raises(ValueError):
            BurstFailure(BurstFailure(GPS, 3.0), 2.0)
        with pytest.raises(ValueError):
            BurstFailure(GPS, 0.0)

    def test_spec_for_windows_every_handle_kind(self):
        assert spec_for(GPS, 2.0, 3.0).duration_s == 3.0
        assert spec_for(
            TrafficFailure(0, TrafficFaultKind.FREEZE), 2.0, 3.0
        ).duration_s == 3.0
        assert spec_for(BurstFailure(GPS, 3.0), 2.0).duration_s == 3.0
        assert spec_for(BurstFailure(GPS, 3.0), 2.0, 3.0).duration_s == 3.0
        with pytest.raises(ValueError):
            spec_for(BurstFailure(GPS, 3.0), 2.0, 4.0)

    def test_burst_failures_expands_duration_major(self):
        handles = [GPS, TrafficFailure(0, TrafficFaultKind.DROPOUT)]
        expanded = burst_failures(handles, [2.0, 5.0])
        assert [handle.label for handle in expanded] == [
            "gps[0]~2s",
            "traffic:v0:dropout~2s",
            "gps[0]~5s",
            "traffic:v0:dropout~5s",
        ]


class TestLatchedCampaignEquivalence:
    """Committed end-to-end equivalence: with no burst durations (every
    ``duration_s=None``), a real SABRE campaign is bit-identical to the
    pre-window engine -- same scenarios, same order, same budget
    trajectory, same cache keys."""

    def test_real_campaign_is_bit_identical_without_bursts(self, waypoint_avis):
        plain = waypoint_avis.check(
            strategy=AvisStrategy(max_scenarios_per_dequeue=4), budget_units=4.0
        )
        windowed = waypoint_avis.check(
            strategy=AvisStrategy(
                max_scenarios_per_dequeue=4, burst_durations=()
            ),
            budget_units=4.0,
        )
        assert [str(r.scenario) for r in windowed.results] == [
            str(r.scenario) for r in plain.results
        ]
        assert windowed.budget_spent == plain.budget_spent
        assert [
            scenario_fingerprint(r.scenario) for r in windowed.results
        ] == [scenario_fingerprint(r.scenario) for r in plain.results]


class TestConvoyReturnSpeed:
    def test_default_keeps_the_classic_workload_fingerprint(self):
        from repro.engine.cache import workload_fingerprint

        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: ConvoyFollowWorkload(),
            fleet_size=2,
        )
        fingerprint = workload_fingerprint(config)
        # The return-speed knob must not leak into default fingerprints:
        # existing convoy cache entries and grid streams stay valid.
        assert "return_speed" not in fingerprint
        assert ConvoyFollowWorkload().return_speed_ms is None

    def test_override_is_fingerprinted_and_applied(self):
        from repro.engine.cache import workload_fingerprint

        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: ConvoyFollowWorkload(return_speed_ms=8.0),
            fleet_size=2,
        )
        assert "return_speed_ms" in workload_fingerprint(config)
        assert ConvoyFollowWorkload(return_speed_ms=8.0).return_speed_ms == 8.0


@pytest.fixture(scope="module")
def convoy_config() -> RunConfiguration:
    """The default two-vehicle beacon-driven convoy."""
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: ConvoyFollowWorkload(),
        fleet_size=2,
        max_sim_time_s=160.0,
    )


@pytest.fixture(scope="module")
def convoy_avis(convoy_config):
    """An Avis orchestrator profiled on the convoy (shared per module)."""
    from repro.core.avis import Avis

    avis = Avis(convoy_config, profiling_runs=2, budget_units=20.0)
    avis.profile()
    return avis


class TestConvoyRecoveryHazard:
    """The canonical recovery-window hazard, end to end.

    An intermittent beacon dropout parks the follower safely south of
    the corridor entrance; when the window closes mid-mission the
    follower *rushes back* to re-acquire its slot -- and a lead battery
    fail-safe flying home through the corridor meets it head-on.  The
    latched equivalent of the same scenario keeps the follower parked
    clear of the fail-safe's path: the separation violation genuinely
    *requires* the recovery.
    """

    #: The recovering beacon dropout: opens one quantum after the lead's
    #: first checkpoint pause, long enough for the follower's hold to
    #: engage, and recovers while the lead is outbound.
    DROPOUT_START_S = 16.3
    DROPOUT_DURATION_S = 20.0
    #: The lead battery fail-safe, during the follower's catch-up rush.
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

    def _run(self, convoy_config, convoy_avis, scenario):
        monitor = convoy_avis.monitor
        runner = TestRunner(convoy_config, monitor=monitor)
        monitor.begin_run(scenario)
        return runner.run(scenario)

    def test_recovering_dropout_breaks_separation(
        self, convoy_config, convoy_avis
    ):
        result = self._run(
            convoy_config, convoy_avis, self._scenario(self.DROPOUT_DURATION_S)
        )
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION in kinds
        assert result.min_separation_m < convoy_avis.monitor.separation_threshold_m
        # The channel really recovered before the violation.
        dropout_record = next(
            record
            for record in result.traffic_injections
            if record.fault.kind == TrafficFaultKind.DROPOUT
        )
        assert dropout_record.recovered
        assert dropout_record.recovered_time < self.BATTERY_FAIL_S

    def test_latched_equivalent_stays_separated(
        self, convoy_config, convoy_avis
    ):
        result = self._run(convoy_config, convoy_avis, self._scenario(None))
        kinds = {condition.kind for condition in result.unsafe_conditions}
        assert UnsafeConditionKind.SEPARATION not in kinds
        assert result.min_separation_m > convoy_avis.monitor.separation_threshold_m
        assert not any(
            record.recovered for record in result.traffic_injections
        )


class TestSabreFindsRecoveryWindowHazard:
    """The headline end-to-end: SABRE's burst enumeration finds a
    separation violation on the convoy that *requires* recovering
    dropouts -- the latched equivalent of the found scenario is safe.

    The found hazard is pure recovery-window timing: the first dropout
    parks the follower clear of the corridor; its *recovery* lures the
    follower back in, mid-corridor, rushing to re-acquire its slot; the
    second window then blinds it right there while the lead flies back
    through.  With both dropouts latched the follower just parks clear
    on the first one and the fleet stays separated -- the violation
    exists only because the channel recovers.

    To keep the committed test affordable, the search is stratified on
    the single profiled transition that opens the hazard window (the
    guided transition after the first checkpoint pause) instead of the
    full transition list; SABRE's own feedback loop then discovers the
    second injection time from the bug-free first-level run, exactly as
    the full-budget search would.
    """

    BURST_DURATION_S = 20.0
    #: Simulations the focused search needs to reach the hazard (13 on
    #: the committed physics); the budget adds headroom so a small drift
    #: in the discovery path fails loudly in the assertions, not via
    #: budget exhaustion.
    BUDGET = 16.0

    def _focused_session(self, convoy_config, convoy_avis):
        import copy

        from repro.core.session import BudgetAccount, ExplorationSession

        profile = convoy_avis.profiling_results[0]
        guided = [
            transition
            for transition in profile.mode_transitions
            if transition.label == "guided"
        ][1]
        focused = copy.copy(profile)
        focused.mode_transitions = [guided]
        runner = TestRunner(convoy_config, monitor=convoy_avis.monitor)
        return ExplorationSession(
            runner=runner,
            budget=BudgetAccount(total_units=self.BUDGET),
            profiling_run=focused,
            suite=iris_sensor_suite(),
        )

    def test_sabre_finds_a_violation_that_requires_recovery(
        self, convoy_config, convoy_avis
    ):
        session = self._focused_session(convoy_config, convoy_avis)
        handle = BurstFailure(
            TrafficFailure(0, TrafficFaultKind.DROPOUT), self.BURST_DURATION_S
        )
        drive_batched(
            SabreSearch(session, failures=[handle], max_concurrent_failures=1), 1
        )

        unsafe = [
            result
            for result in session.results
            if any(
                condition.kind == UnsafeConditionKind.SEPARATION
                for condition in result.unsafe_conditions
            )
        ]
        assert unsafe, "SABRE found no separation violation in the budget"
        found = unsafe[0]
        dropouts = found.scenario.traffic_faults
        assert len(dropouts) == 2
        assert all(fault.duration_s == self.BURST_DURATION_S for fault in dropouts)
        # The violation post-dates the first window's recovery: the
        # hazard needs the channel to have come back.
        first_recovery = min(fault.end_time for fault in dropouts)
        separation_times = [
            condition.time
            for condition in found.unsafe_conditions
            if condition.kind == UnsafeConditionKind.SEPARATION
        ]
        assert min(separation_times) >= first_recovery
        # The channel's injection log recorded that recovery.
        assert any(record.recovered for record in found.traffic_injections)

        # ... and the latched equivalent of the found scenario is safe:
        # with no recovery the follower parks clear of the corridor.
        latched = FaultScenario(
            [
                TrafficFaultSpec(
                    fault.vehicle, fault.kind, fault.start_time, fault.extra_delay_s
                )
                for fault in dropouts
            ]
        )
        runner = TestRunner(convoy_config, monitor=convoy_avis.monitor)
        twin = runner.run(latched)
        assert not any(
            condition.kind == UnsafeConditionKind.SEPARATION
            for condition in twin.unsafe_conditions
        )
        assert twin.min_separation_m > convoy_avis.monitor.separation_threshold_m


class TestSabreBurstEnumeration:
    def _session(self, budget=50.0):
        from test_sabre_strategies import make_session

        return make_session(budget_units=budget)

    def test_no_bursts_means_the_exact_latched_variant_list(self):
        search = SabreSearch(self._session(), failures=[GPS, BARO])
        assert search.variants == [
            (subset, None) for subset in search.subsets
        ]
        assert search.burst_durations == []

    def test_burst_variants_follow_the_latched_prefix(self):
        search = SabreSearch(
            self._session(), failures=[GPS, BARO], burst_durations=[3.0]
        )
        latched = [(subset, None) for subset in search.subsets]
        bursts = [(subset, 3.0) for subset in search.subsets]
        assert search.variants == latched + bursts

    def test_burst_durations_must_be_positive(self):
        with pytest.raises(ValueError):
            SabreSearch(self._session(), failures=[GPS], burst_durations=[-1.0])

    def test_burst_handles_and_burst_durations_are_mutually_exclusive(self):
        handle = BurstFailure(GPS, 3.0)
        with pytest.raises(ValueError, match="not both"):
            SabreSearch(
                self._session(), failures=[handle], burst_durations=[5.0]
            )
        # Pre-burst handles alone are fine.
        SabreSearch(self._session(), failures=[handle])

    def test_default_campaign_is_bit_identical_with_empty_bursts(self):
        plain = self._session()
        drive_batched(
            SabreSearch(plain, failures=[GPS, BARO], max_concurrent_failures=1), 1
        )
        windowed = self._session()
        drive_batched(
            SabreSearch(
                windowed,
                failures=[GPS, BARO],
                max_concurrent_failures=1,
                burst_durations=(),
            ),
            1,
        )
        assert [str(r.scenario) for r in windowed.results] == [
            str(r.scenario) for r in plain.results
        ]
        assert windowed.budget.spent_units == plain.budget.spent_units

    def test_bursts_that_outlive_the_mission_are_skipped(self):
        # Mission duration is 30s (see profiling_run): a 1000s burst can
        # never recover in-run, so every burst variant is skipped as
        # latched-equivalent and only the latched scenarios simulate.
        session = self._session()
        search = SabreSearch(
            session,
            failures=[GPS],
            max_concurrent_failures=1,
            burst_durations=[1000.0],
        )
        drive_batched(search, 1)
        assert all(
            fault.duration_s is None
            for result in session.results
            for fault in result.scenario.faults
        )
        assert search.report.pruned > 0

    def test_burst_scenarios_are_proposed_and_windowed(self):
        session = self._session(budget=60.0)
        search = SabreSearch(
            session,
            failures=[GPS],
            max_concurrent_failures=1,
            burst_durations=[4.0],
        )
        drive_batched(search, 1)
        durations = {
            fault.duration_s
            for result in session.results
            for fault in result.scenario.faults
        }
        assert durations == {None, 4.0}

    def test_avis_strategy_threads_burst_durations(self):
        strategy = AvisStrategy(failures=[GPS], burst_durations=(2.0,))
        search = strategy._make_search(self._session())
        assert search.burst_durations == [2.0]


class TestBfiBurstEnumeration:
    def _session(self, budget=80.0):
        from test_sabre_strategies import make_session

        return make_session(budget_units=budget)

    def test_stratified_bfi_default_stream_is_unchanged(self):
        session = self._session()
        plain = list(StratifiedBFI()._candidate_stream(session))
        assert all(duration is None for (_, _, _, duration) in plain)

    def test_stratified_bfi_sweeps_windows_after_latched(self):
        session = self._session()
        stream = list(
            StratifiedBFI(burst_durations=(5.0,))._candidate_stream(session)
        )
        first_time = stream[0][0]
        per_site = [entry for entry in stream if entry[0] == first_time]
        half = len(per_site) // 2
        assert all(entry[3] is None for entry in per_site[:half])
        assert all(entry[3] == 5.0 for entry in per_site[half:])

    def test_windows_longer_than_the_mission_are_dropped(self):
        session = self._session()  # 30s mission
        stream = list(
            StratifiedBFI(burst_durations=(1000.0,))._candidate_stream(session)
        )
        assert all(duration is None for (_, _, _, duration) in stream)

    def test_bfi_explores_burst_scenarios(self):
        session = self._session(budget=200.0)
        strategy = BayesianFaultInjection(
            candidate_granularity_s=5.0, burst_durations=(4.0,)
        )
        strategy.explore(session)
        durations = {
            fault.duration_s
            for result in session.results
            for fault in result.scenario.faults
        }
        assert 4.0 in durations

    def test_bfi_rejects_non_positive_windows(self):
        with pytest.raises(ValueError):
            StratifiedBFI(burst_durations=(0.0,))
        with pytest.raises(ValueError):
            BayesianFaultInjection(burst_durations=(-2.0,))


class TestBurstCli:
    def _request(self, argv):
        from repro.engine.cli import build_parser, request_from_args

        return request_from_args(build_parser().parse_args(argv))

    def test_burst_duration_builds_windowed_avis_cells(self):
        from repro.engine.api import build_cells

        cells = build_cells(
            self._request(
                [
                    "--workload", "convoy",
                    "--fleet-size", "2",
                    "--traffic-faults",
                    "--burst-duration", "20",
                    "--strategy", "avis",
                    "--budget", "5",
                ]
            )
        )
        assert len(cells) == 1
        cell = cells[0]
        assert cell.cell_id == "ardupilot/convoy@fleet2+traffic/avis+burst20/5"
        strategy = cell.strategy_factory()
        assert strategy._burst_durations == (20.0,)
        assert strategy._include_traffic

    def test_burst_duration_reaches_the_bfi_family(self):
        from repro.engine.api import build_cells

        cells = build_cells(
            self._request(
                [
                    "--strategy", "stratified-bfi", "bfi",
                    "--burst-duration", "5", "10",
                    "--budget", "5",
                ]
            )
        )
        assert [cell.cell_id for cell in cells] == [
            "ardupilot/waypoint/stratified-bfi+burst5,10/5",
            "ardupilot/waypoint/bfi+burst5,10/5",
        ]
        for cell in cells:
            assert cell.strategy_factory()._burst_durations == (5.0, 10.0)

    def test_default_cell_ids_are_unchanged_without_the_flag(self):
        from repro.engine.api import build_cells

        cells = build_cells(
            self._request(["--strategy", "avis", "--budget", "5"])
        )
        assert cells[0].cell_id == "ardupilot/waypoint/avis/5"

    def test_burst_duration_rejects_unsupported_strategies(self):
        from repro.engine.api import build_cells

        with pytest.raises(ValueError, match="burst-duration"):
            build_cells(
                self._request(
                    ["--strategy", "random", "--burst-duration", "5", "--budget", "5"]
                )
            )

    def test_burst_duration_rejects_non_positive_values(self):
        from repro.engine.api import build_cells

        with pytest.raises(ValueError, match="positive"):
            build_cells(
                self._request(
                    ["--strategy", "avis", "--burst-duration", "0", "--budget", "5"]
                )
            )


class TestRecoveryToleranceWindows:
    def test_windows_cover_active_span_plus_grace(self):
        scenario = FaultScenario(
            [
                FaultSpec(GPS, 2.0, duration_s=3.0),
                FaultSpec(BARO, 10.0),
            ]
        )
        windows = recovery_tolerance_windows(scenario, 8.0)
        assert windows == [(2.0, 13.0)]
        assert recovery_tolerance_windows(None, 8.0) == []
        assert recovery_tolerance_windows(FaultScenario(), 8.0) == []

    def _diverged_sample(self, time, index):
        from repro.core.runner import TraceSample

        return TraceSample(
            index=index,
            time=time,
            position=(500.0, 500.0, 40.0),
            acceleration=(0.0, 0.0, 0.0),
            velocity=(0.0, 0.0, 0.0),
            mode_label="takeoff",
            altitude=40.0,
            on_ground=False,
            armed=True,
        )

    def test_offline_divergence_inside_the_window_is_tolerated(self):
        monitor = InvariantMonitor([make_run_result()])
        result = make_run_result(
            scenario=FaultScenario([FaultSpec(GPS, 0.2, duration_s=0.4)])
        )
        # Divergence at t=0.5: inside [0.2, 0.6 + grace].
        result.trace = list(result.trace)
        result.trace[5] = self._diverged_sample(0.5, 5)
        conditions = monitor.evaluate(result)
        assert not any(
            condition.kind == UnsafeConditionKind.LIVELINESS
            for condition in conditions
        )

    def test_offline_divergence_past_the_grace_still_latches(self):
        monitor = InvariantMonitor([make_run_result()])
        late = 0.2 + 0.4 + monitor.RECOVERY_GRACE_S + 0.5
        result = make_run_result(
            scenario=FaultScenario([FaultSpec(GPS, 0.2, duration_s=0.4)]),
            trace=make_trace(
                [(0.0, 0.0, float(i)) for i in range(int(late * 10) + 10)]
            ),
        )
        index = int(late * 10)
        result.trace[index] = self._diverged_sample(result.trace[index].time, index)
        conditions = monitor.evaluate(result)
        assert any(
            condition.kind == UnsafeConditionKind.LIVELINESS
            for condition in conditions
        )

    def test_windows_outliving_the_run_earn_no_tolerance(self):
        # A burst whose recovery never landed inside the run behaved
        # exactly like its latched twin -- the offline verdict must be
        # the latched one.
        monitor = InvariantMonitor([make_run_result()])
        scenario = FaultScenario([FaultSpec(GPS, 0.2, duration_s=500.0)])
        result = make_run_result(scenario=scenario)
        result.trace = list(result.trace)
        result.trace[5] = self._diverged_sample(0.5, 5)
        conditions = monitor.evaluate(result)
        assert any(
            condition.kind == UnsafeConditionKind.LIVELINESS
            for condition in conditions
        )
        assert recovery_tolerance_windows(scenario, 8.0, result.duration_s) == []

    def test_latched_scenarios_are_judged_exactly_as_before(self):
        monitor = InvariantMonitor([make_run_result()])
        result = make_run_result(
            scenario=FaultScenario([FaultSpec(GPS, 0.2)])
        )
        result.trace = list(result.trace)
        result.trace[5] = self._diverged_sample(0.5, 5)
        conditions = monitor.evaluate(result)
        assert any(
            condition.kind == UnsafeConditionKind.LIVELINESS
            for condition in conditions
        )

    def test_online_progress_stall_inside_the_window_is_tolerated(self):
        monitor = InvariantMonitor([make_run_result()])
        stuck = make_trace([(30.0, 0.0, 20.0)] * 120, ["rtl"] * 120, sample_period=0.1)
        # Latched: the stall is flagged.
        monitor.begin_run(FaultScenario([FaultSpec(GPS, 0.0)]))
        flagged = [monitor.check_vehicle_sample(1, sample) for sample in stuck]
        assert any(violation is not None for violation in flagged)
        # A window covering the whole stall: tolerated.
        monitor.begin_run(FaultScenario([FaultSpec(GPS, 0.0, duration_s=12.0)]))
        tolerated = [monitor.check_vehicle_sample(1, sample) for sample in stuck]
        assert all(violation is None for violation in tolerated)

    def test_online_stall_outlasting_the_grace_is_flagged(self):
        monitor = InvariantMonitor([make_run_result()])
        # 30s stalled in RTL; window [0, 1 + 8]: judged again after 9s.
        stuck = make_trace([(30.0, 0.0, 20.0)] * 300, ["rtl"] * 300, sample_period=0.1)
        monitor.begin_run(FaultScenario([FaultSpec(GPS, 0.0, duration_s=1.0)]))
        flagged = [monitor.check_vehicle_sample(1, sample) for sample in stuck]
        assert any(violation is not None for violation in flagged)

    def test_separation_is_never_tolerated(self):
        from repro.sim.simulator import ProximityEvent

        profile = make_run_result()
        profile.fleet_size = 2
        profile.min_separation_m = 10.0
        monitor = InvariantMonitor([profile])
        assert monitor.separation_threshold_m is not None
        result = make_run_result(
            scenario=FaultScenario([FaultSpec(GPS, 0.0, duration_s=5.0)])
        )
        result.fleet_size = 2
        result.proximity_events = [
            ProximityEvent(
                time=2.0,
                vehicle_a=0,
                vehicle_b=1,
                distance_m=1.0,
                position_a=(0.0, 0.0, 10.0),
                position_b=(0.0, 1.0, 10.0),
            )
        ]
        conditions = monitor.evaluate(result)
        assert any(
            condition.kind == UnsafeConditionKind.SEPARATION
            for condition in conditions
        )


class TestFollowerFaultWindows:
    """Vehicles >= 1 keep their fault windows through the injection log."""

    def test_follower_burst_survives_into_results_and_replay(self):
        from repro.hinj.scheduler import injection_flight_events
        from repro.workloads.fleet import MultiPadTakeoffLandWorkload

        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: MultiPadTakeoffLandWorkload(
                altitude=8.0, hover_ms=2000.0, init_wait_ms=1000.0, fleet_size=2
            ),
            fleet_size=2,
            max_sim_time_s=40.0,
        )
        follower_gps = SensorId(SensorType.GPS, 0, vehicle=1)
        scenario = FaultScenario([FaultSpec(follower_gps, 4.0, duration_s=1.5)])
        runner = TestRunner(config)
        result = runner.run(scenario)

        (record,) = result.injections
        assert record.sensor_id == follower_gps
        assert record.duration_s == 1.5
        assert record.recovered_time == pytest.approx(5.5, abs=0.05)
        kinds = [event.kind for event in injection_flight_events(result.injections)]
        assert kinds == ["fault.injected", "fault.recovered"]

        replayed = resolve_plan(build_replay_plan(result), runner.run())
        (fault,) = replayed.sensor_faults
        assert fault.sensor_id == follower_gps
        assert fault.duration_s == 1.5
