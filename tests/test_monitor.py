"""Unit tests for the invariant monitor (mode graph, liveliness, safety)."""

import pytest

from conftest import make_run_result, make_trace

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.liveliness import LivelinessMonitor, rtl_progress_violation
from repro.core.modegraph import ModeGraph
from repro.core.monitor import InvariantMonitor, UnsafeConditionKind, mode_category_of
from repro.core.runner import TestRunner
from repro.core.safety import SafetyMonitor
from repro.hinj.instrumentation import ModeTransition
from repro.sim.simulator import CollisionEvent


def transitions(*labels_and_times):
    result = []
    previous = None
    for label, time in labels_and_times:
        result.append(ModeTransition(time=time, label=label, previous=previous))
        previous = label
    return result


STANDARD_TRANSITIONS = transitions(
    ("preflight", 0.0), ("takeoff", 0.5), ("waypoint-1", 2.0), ("land", 4.0)
)


def straight_up_trace(samples=40, climb_per_sample=0.5, labels=None):
    positions = [(0.0, 0.0, min(i * climb_per_sample, 10.0)) for i in range(samples)]
    if labels is None:
        labels = ["takeoff" if i < 25 else "waypoint-1" for i in range(samples)]
    return make_trace(positions, labels)


class TestModeGraph:
    def test_distances_follow_observed_transitions(self):
        graph = ModeGraph.from_profiling_runs([STANDARD_TRANSITIONS])
        assert graph.distance("preflight", "takeoff") == 1
        assert graph.distance("preflight", "land") == 3
        assert graph.distance("takeoff", "takeoff") == 0

    def test_unknown_mode_is_maximally_far(self):
        graph = ModeGraph.from_profiling_runs([STANDARD_TRANSITIONS])
        assert graph.distance("takeoff", "acro") == graph.diameter + 1

    def test_reverse_direction_uses_undirected_fallback(self):
        graph = ModeGraph.from_profiling_runs([STANDARD_TRANSITIONS])
        assert graph.distance("land", "takeoff") == 2

    def test_diameter(self):
        graph = ModeGraph.from_profiling_runs([STANDARD_TRANSITIONS])
        assert graph.diameter == 3

    def test_modes_and_edges_listed(self):
        graph = ModeGraph.from_profiling_runs([STANDARD_TRANSITIONS])
        assert "waypoint-1" in graph.modes
        assert ("takeoff", "waypoint-1") in graph.edges
        assert "takeoff" in graph.describe()


class TestLivelinessMonitor:
    def make_monitor(self, **kwargs):
        profiles = [
            make_run_result(trace=straight_up_trace(), transitions=STANDARD_TRANSITIONS),
            make_run_result(trace=straight_up_trace(), transitions=STANDARD_TRANSITIONS),
        ]
        return LivelinessMonitor(profiles, **kwargs)

    def test_identical_run_has_no_violation(self):
        monitor = self.make_monitor()
        result = make_run_result(
            trace=straight_up_trace(), transitions=STANDARD_TRANSITIONS
        )
        assert monitor.evaluate(result) == []

    def test_flyaway_is_flagged(self):
        monitor = self.make_monitor()
        positions = [(i * 3.0, 0.0, 10.0) for i in range(40)]
        labels = ["waypoint-1"] * 40
        runaway = make_run_result(
            trace=make_trace(positions, labels), transitions=STANDARD_TRANSITIONS
        )
        violations = monitor.evaluate(runaway)
        assert violations and violations[0].kind == "liveliness"

    def test_safe_mode_excuses_divergence(self):
        monitor = self.make_monitor()
        # Diverged in position but descending in the land fail-safe.
        positions = [(30.0, 0.0, max(10.0 - 0.4 * i, 0.0)) for i in range(40)]
        labels = ["land"] * 40
        run = make_run_result(
            trace=make_trace(positions, labels), transitions=STANDARD_TRANSITIONS
        )
        assert monitor.evaluate(run) == []

    def test_hovering_in_land_failsafe_is_flagged(self):
        monitor = self.make_monitor()
        positions = [(30.0, 0.0, 10.0) for _ in range(80)]
        labels = ["land"] * 80
        run = make_run_result(
            trace=make_trace(positions, labels), transitions=STANDARD_TRANSITIONS
        )
        violations = monitor.evaluate(run)
        assert violations and violations[0].kind == "safe-mode-progress"

    def test_grounded_disarmed_vehicle_is_excused(self):
        monitor = self.make_monitor()
        positions = [(0.0, 0.0, 0.0)] * 40
        labels = ["preflight"] * 40
        run = make_run_result(
            trace=make_trace(positions, labels, armed=False, on_ground=True),
            transitions=STANDARD_TRANSITIONS,
        )
        assert monitor.evaluate(run) == []

    def test_blocked_takeoff_while_armed_is_flagged(self):
        monitor = self.make_monitor()
        positions = [(0.0, 0.0, 0.0)] * 40
        labels = ["takeoff"] * 40
        run = make_run_result(
            trace=make_trace(positions, labels, armed=True, on_ground=True),
            transitions=STANDARD_TRANSITIONS,
        )
        violations = monitor.evaluate(run)
        assert violations and violations[0].kind == "liveliness"

    def test_calibration_floors_apply(self):
        monitor = self.make_monitor()
        assert monitor.calibration.position_scale >= LivelinessMonitor.MIN_POSITION_SCALE
        assert monitor.calibration.threshold >= 1.5
        assert "tau" in monitor.calibration.describe()

    def test_additional_safe_mode_can_be_declared(self):
        monitor = self.make_monitor()
        monitor.add_safe_mode("loiter")
        assert monitor.is_safe_mode("loiter")


class TestRtlProgressRule:
    def make_sample(self, index, north, altitude):
        return make_trace([(north, 0.0, altitude)], ["rtl"])[0]

    def test_approaching_home_is_progress(self):
        past = self.make_sample(0, 30.0, 20.0)
        current = self.make_sample(1, 20.0, 20.0)
        assert rtl_progress_violation(past, current, 1.0) is None

    def test_receding_is_always_a_violation(self):
        past = self.make_sample(0, 30.0, 20.0)
        current = self.make_sample(1, 50.0, 25.0)
        assert rtl_progress_violation(past, current, 1.0) is not None

    def test_descending_over_home_is_progress(self):
        past = self.make_sample(0, 1.0, 10.0)
        current = self.make_sample(1, 1.0, 5.0)
        assert rtl_progress_violation(past, current, 1.0) is None

    def test_hovering_far_from_home_is_a_violation(self):
        past = self.make_sample(0, 30.0, 20.0)
        current = self.make_sample(1, 30.0, 20.0)
        assert rtl_progress_violation(past, current, 1.0) is not None


class TestSafetyMonitor:
    def test_hard_collision_reported(self):
        collision = CollisionEvent(time=3.0, position=(0.0, 0.0, 0.0), impact_speed=5.0)
        result = make_run_result(collisions=[collision], transitions=STANDARD_TRANSITIONS)
        violations = SafetyMonitor().evaluate(result)
        assert violations and violations[0].kind == "collision"

    def test_soft_touchdown_ignored(self):
        collision = CollisionEvent(time=3.0, position=(0.0, 0.0, 0.0), impact_speed=0.5)
        result = make_run_result(collisions=[collision])
        assert SafetyMonitor().evaluate(result) == []

    def test_firmware_process_death_reported(self):
        result = make_run_result()
        result.firmware_process_alive = False
        violations = SafetyMonitor().evaluate(result)
        assert any(v.kind == "software-crash" for v in violations)


class TestInvariantMonitor:
    def make_monitor(self):
        profiles = [
            make_run_result(trace=straight_up_trace(), transitions=STANDARD_TRANSITIONS),
            make_run_result(trace=straight_up_trace(), transitions=STANDARD_TRANSITIONS),
        ]
        return InvariantMonitor(profiles)

    def test_combines_safety_and_liveliness(self):
        monitor = self.make_monitor()
        collision = CollisionEvent(time=3.0, position=(0.0, 0.0, 0.0), impact_speed=4.0)
        positions = [(i * 3.0, 0.0, 10.0) for i in range(40)]
        run = make_run_result(
            trace=make_trace(positions, ["waypoint-1"] * 40),
            transitions=STANDARD_TRANSITIONS,
            collisions=[collision],
        )
        conditions = monitor.evaluate(run)
        kinds = {condition.kind for condition in conditions}
        assert UnsafeConditionKind.SAFETY_COLLISION in kinds
        assert UnsafeConditionKind.LIVELINESS in kinds
        assert conditions[0].time <= conditions[-1].time

    def test_online_check_sample_flags_divergence(self):
        monitor = self.make_monitor()
        monitor.begin_run()
        diverged = make_trace([(100.0, 0.0, 10.0)], ["waypoint-1"])[0]
        condition = monitor.check_sample(diverged)
        assert condition is not None
        assert condition.kind == UnsafeConditionKind.LIVELINESS

    def test_mode_category_helper(self):
        monitor = self.make_monitor()
        collision = CollisionEvent(time=5.0, position=(0.0, 0.0, 0.0), impact_speed=4.0)
        run = make_run_result(collisions=[collision], transitions=STANDARD_TRANSITIONS)
        condition = monitor.evaluate(run)[0]
        assert mode_category_of(condition) in {"takeoff", "manual", "waypoint", "land"}


class TestOnlineOfflineContract:
    """A run the harness aborts online is reported unsafe offline."""

    @staticmethod
    def fly_recording(monkeypatch, avis, budget_units):
        """Run one SABRE campaign; return (result, online conditions) per run."""
        online = []
        records = []
        check_sample = InvariantMonitor.check_sample
        check_vehicle_sample = InvariantMonitor.check_vehicle_sample
        run = TestRunner.run

        def recording_check_sample(self, sample):
            condition = check_sample(self, sample)
            if condition is not None:
                online.append(condition)
            return condition

        def recording_check_vehicle_sample(self, vehicle, sample):
            condition = check_vehicle_sample(self, vehicle, sample)
            if condition is not None:
                online.append(condition)
            return condition

        def recording_run(self, *args, **kwargs):
            online.clear()
            result = run(self, *args, **kwargs)
            records.append((result, list(online)))
            return result

        monkeypatch.setattr(InvariantMonitor, "check_sample", recording_check_sample)
        monkeypatch.setattr(
            InvariantMonitor, "check_vehicle_sample", recording_check_vehicle_sample
        )
        monkeypatch.setattr(TestRunner, "run", recording_run)
        avis.check(budget_units=budget_units)
        return records

    def test_first_online_condition_is_reported_offline(
        self, monkeypatch, short_waypoint_config, short_px4_config
    ):
        for config in (short_waypoint_config, short_px4_config):
            # A fresh orchestrator: a shared one may answer every
            # scenario from its result cache without flying it.
            avis = Avis(config, profiling_runs=2)
            avis.profile()
            records = self.fly_recording(monkeypatch, avis, budget_units=12.0)
            aborted = [(result, online) for result, online in records if online]
            assert aborted, f"no online-aborted run on {avis.config.firmware_name}"
            for result, online in aborted:
                first = online[0]
                assert result.aborted_early
                offline = {
                    (condition.kind, condition.time, condition.mode_label)
                    for condition in result.unsafe_conditions
                }
                assert (first.kind, first.time, first.mode_label) in offline


class TestRemovedMonitorOptions:
    @pytest.mark.parametrize(
        "build",
        [
            lambda runs: InvariantMonitor(runs, safe_mode_labels={"rtl"}),
            lambda runs: InvariantMonitor(runs, impact_speed_threshold=2.0),
            lambda runs: InvariantMonitor(runs, min_position_scale=5.0),
            lambda runs: InvariantMonitor(runs, min_separation_m=3.0),
            lambda runs: LivelinessMonitor(runs, mode_graph=None),
            lambda runs: LivelinessMonitor(runs, safe_mode_labels={"rtl"}),
            lambda runs: LivelinessMonitor(runs, min_position_scale=5.0),
            lambda runs: LivelinessMonitor(runs, min_acceleration_scale=2.0),
            lambda runs: LivelinessMonitor(runs, min_threshold=1.5),
            lambda runs: LivelinessMonitor(runs, alignment_window_s=1.5),
            lambda runs: SafetyMonitor(impact_speed_threshold=2.0),
            lambda runs: RunConfiguration(stop_on_unsafe=True),
        ],
    )
    def test_removed_keyword_raises_type_error(self, build):
        runs = [make_run_result(trace=straight_up_trace(), transitions=STANDARD_TRANSITIONS)]
        with pytest.raises(TypeError):
            build(runs)
