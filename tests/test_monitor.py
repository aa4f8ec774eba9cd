"""Unit tests for the invariant monitor (mode graph, liveliness, safety)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run_result, make_trace

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.liveliness import (
    LivelinessMonitor,
    LivelinessViolation,
    rtl_progress_violation,
)
from repro.core.modegraph import ModeGraph
from repro.core.monitor import InvariantMonitor, UnsafeConditionKind, mode_category_of
from repro.core.runner import TestRunner, TraceSample
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


def reference_distances(edges, modes):
    """Floyd-Warshall over ``edges``: (directed, undirected) all-pairs
    hop counts, ``inf`` where no path exists."""
    directed = {(a, b): 0 if a == b else math.inf for a in modes for b in modes}
    for a, b in edges:
        directed[a, b] = 1
    undirected = {
        (a, b): min(directed[a, b], directed[b, a]) for a in modes for b in modes
    }
    for table in (directed, undirected):
        for k in modes:
            for a in modes:
                for b in modes:
                    if table[a, k] + table[k, b] < table[a, b]:
                        table[a, b] = table[a, k] + table[k, b]
    return directed, undirected


GRAPH_LABELS = ["a", "b", "c", "d", "e", "f"]
transition_runs = st.lists(
    st.lists(
        st.tuples(
            st.none() | st.sampled_from(GRAPH_LABELS), st.sampled_from(GRAPH_LABELS)
        ),
        max_size=12,
    ),
    max_size=3,
)

#: The mode graph calibrated from two profiling runs of the short
#: waypoint mission, as release 13.0.0 computed it; ArduPilot and PX4
#: observe the same nine-mode cycle.  Rows and columns follow
#: ``WAYPOINT_MODES`` plus the never-seen ``acro``.
WAYPOINT_MODES = [
    "land", "landed", "preflight", "rtl", "takeoff",
    "waypoint-1", "waypoint-2", "waypoint-3", "waypoint-4",
]
WAYPOINT_EDGES = [
    ("land", "landed"), ("landed", "preflight"), ("preflight", "takeoff"),
    ("rtl", "land"), ("takeoff", "waypoint-1"), ("waypoint-1", "waypoint-2"),
    ("waypoint-2", "waypoint-3"), ("waypoint-3", "waypoint-4"),
    ("waypoint-4", "rtl"),
]
WAYPOINT_DISTANCES = {
    "land": [0, 1, 2, 8, 3, 4, 5, 6, 7, 5],
    "landed": [8, 0, 1, 7, 2, 3, 4, 5, 6, 5],
    "preflight": [7, 8, 0, 6, 1, 2, 3, 4, 5, 5],
    "rtl": [1, 2, 3, 0, 4, 5, 6, 7, 8, 5],
    "takeoff": [6, 7, 8, 5, 0, 1, 2, 3, 4, 5],
    "waypoint-1": [5, 6, 7, 4, 8, 0, 1, 2, 3, 5],
    "waypoint-2": [4, 5, 6, 3, 7, 8, 0, 1, 2, 5],
    "waypoint-3": [3, 4, 5, 2, 6, 7, 8, 0, 1, 5],
    "waypoint-4": [2, 3, 4, 1, 5, 6, 7, 8, 0, 5],
    "acro": [5, 5, 5, 5, 5, 5, 5, 5, 5, 0],
}


@pytest.fixture(scope="module")
def waypoint_mode_graphs(short_waypoint_config, short_px4_config):
    """The mode graph each firmware calibrates from its profiling runs."""
    return [
        Avis(config, profiling_runs=2).monitor.mode_graph
        for config in (short_waypoint_config, short_px4_config)
    ]


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

    @settings(max_examples=300, deadline=None)
    @given(transition_runs)
    def test_matches_floyd_warshall_reference(self, runs):
        graph = ModeGraph()
        for run in runs:
            for source, destination in run:
                graph.add_transition(source, destination)
        modes = sorted(
            {label for run in runs for pair in run for label in pair if label}
        )
        edges = sorted(
            {(a, b) for run in runs for a, b in run if a is not None and a != b}
        )
        assert graph.modes == modes
        assert graph.edges == edges
        directed, undirected = reference_distances(edges, modes)
        diameter = max([1] + [d for d in undirected.values() if d < math.inf])
        assert graph.diameter == diameter
        for a in modes + ["unknown"]:
            for b in modes + ["unknown"]:
                if a == b:
                    expected = 0
                elif a == "unknown" or b == "unknown":
                    expected = diameter + 1
                elif directed[a, b] < math.inf:
                    expected = directed[a, b]
                elif undirected[a, b] < math.inf:
                    expected = undirected[a, b]
                else:
                    expected = diameter + 1
                assert graph.distance(a, b) == expected, (a, b)

    def test_calibrated_waypoint_graphs_are_pinned(self, waypoint_mode_graphs):
        labels = WAYPOINT_MODES + ["acro"]
        for graph in waypoint_mode_graphs:
            assert graph.modes == WAYPOINT_MODES
            assert graph.edges == WAYPOINT_EDGES
            assert graph.diameter == 4
            table = {a: [graph.distance(a, b) for b in labels] for a in labels}
            assert table == WAYPOINT_DISTANCES


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


def full_scan_check(monitor, profiles, sample):
    """The reference verdict: Equation 1 as the exact minimum distance
    over every profiling run and every index of the alignment window,
    compared with tau (the monitor's verdict before it stopped early)."""
    if monitor.is_safe_mode(sample.mode_label):
        return None
    if sample.on_ground and not sample.armed:
        return None
    traces = [run.trace for run in profiles]
    window = 0
    if len(traces[0]) >= 2:
        period = traces[0][1].time - traces[0][0].time
        if period > 0.0:
            window = max(int(LivelinessMonitor.ALIGNMENT_WINDOW_S / period), 0)
    best = float("inf")
    for trace in traces:
        for index in range(sample.index - window, sample.index + window + 1):
            if index < 0:
                continue
            reference = trace[index] if index < len(trace) else trace[-1]
            distance = monitor.state_distance(sample, reference)
            if distance < best:
                best = distance
    threshold = monitor.calibration.threshold
    if best > threshold:
        return LivelinessViolation(
            time=sample.time,
            kind="liveliness",
            description=(
                f"state diverged from every profiling run "
                f"(distance {best:.2f} > tau {threshold:.2f})"
            ),
            mode_label=sample.mode_label,
            distance=best,
            threshold=threshold,
        )
    return None


@pytest.fixture(scope="module")
def sabre_campaigns(short_waypoint_config, short_px4_config):
    """A budget-12 SABRE campaign per firmware:
    (config, profiles, monitor, runs)."""
    campaigns = []
    for config in (short_waypoint_config, short_px4_config):
        avis = Avis(config, profiling_runs=2)
        profiles = avis.profile()
        campaign = avis.check(budget_units=12.0)
        campaigns.append(
            (config, profiles, avis.monitor.liveliness, campaign.results)
        )
    return campaigns


class TestEarlyExitVerdict:
    """``check_sample`` stops at the first profiling sample within tau;
    its verdicts must be the full scan's, byte for byte."""

    def test_agrees_with_full_scan_on_sabre_campaigns(self, sabre_campaigns):
        for _, profiles, monitor, runs in sabre_campaigns:
            judged = violations = 0
            for run in list(profiles) + list(runs):
                for sample in run.trace:
                    expected = full_scan_check(monitor, profiles, sample)
                    assert monitor.check_sample(sample) == expected
                    judged += 1
                    violations += expected is not None
            assert judged > 1000
            assert violations > 0

    def test_distance_evaluations_per_judged_sample(
        self, monkeypatch, sabre_campaigns
    ):
        # The full scan costs 2 profiles x 31 window indices = 62
        # distances per judged sample; a live sample should cost ~1.
        calls = []
        state_distance = LivelinessMonitor._state_distance

        def counting_state_distance(self, *args):
            calls.append(1)
            return state_distance(self, *args)

        for config, profiles, monitor, _ in sabre_campaigns:
            other_seed = TestRunner(config).run(noise_seed=config.noise_seed + 7)
            with monkeypatch.context() as patch:
                patch.setattr(
                    LivelinessMonitor, "_state_distance", counting_state_distance
                )
                for trace in (profiles[0].trace, other_seed.trace):
                    calls.clear()
                    judged = 0
                    for sample in trace:
                        assert monitor.check_sample(sample) is None
                        if not monitor.is_safe_mode(sample.mode_label) and not (
                            sample.on_ground and not sample.armed
                        ):
                            judged += 1
                    assert judged > 100
                    assert len(calls) / judged <= 2.0


def synthetic_profiles():
    """Two climbing profiles of different lengths, 0.1 s apart per sample
    (a 15-sample alignment window)."""
    long = straight_up_trace(samples=40)
    short = make_trace(
        [(0.3, -0.2, min(i * 0.5, 10.0)) for i in range(30)],
        ["takeoff" if i < 25 else "waypoint-1" for i in range(30)],
    )
    return [
        make_run_result(trace=long, transitions=STANDARD_TRANSITIONS),
        make_run_result(trace=short, transitions=STANDARD_TRANSITIONS),
    ]


SYNTHETIC_PROFILES = synthetic_profiles()
SYNTHETIC_MONITOR = LivelinessMonitor(SYNTHETIC_PROFILES)
# Around the profiled climb, so both verdicts come up.
horizontal = st.floats(-3.0, 3.0)
vertical = st.floats(-2.0, 12.0)
positions = st.tuples(horizontal, horizontal, vertical)
known_labels = st.sampled_from(["preflight", "takeoff", "waypoint-1"])


def synthetic_sample(index, position, label, acceleration=(0.0, 0.0, 0.0)):
    return TraceSample(
        index=index,
        time=index * 0.1,
        position=position,
        acceleration=acceleration,
        velocity=(0.0, 0.0, 0.0),
        mode_label=label,
        altitude=position[2],
        on_ground=False,
        armed=True,
    )


def assert_agrees_with_full_scan(sample):
    expected = full_scan_check(SYNTHETIC_MONITOR, SYNTHETIC_PROFILES, sample)
    assert SYNTHETIC_MONITOR.check_sample(sample) == expected


class TestEarlyExitVerdictProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(40, 120), positions, known_labels)
    def test_index_past_every_profile_end(self, index, position, label):
        assert_agrees_with_full_scan(synthetic_sample(index, position, label))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 14), positions, known_labels)
    def test_index_inside_the_window_of_zero(self, index, position, label):
        assert_agrees_with_full_scan(synthetic_sample(index, position, label))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 60),
        positions,
        st.sampled_from(["acro", "circle", "v1:guided", ""]),
    )
    def test_mode_labels_unseen_in_profiling(self, index, position, label):
        assert_agrees_with_full_scan(synthetic_sample(index, position, label))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 60),
        st.tuples(
            st.one_of(horizontal, st.just(math.nan)),
            st.one_of(horizontal, st.just(math.nan)),
            st.one_of(vertical, st.just(math.nan)),
        ),
        st.tuples(
            st.one_of(st.floats(-3.0, 3.0), st.just(math.nan)),
            st.just(0.0),
            st.just(0.0),
        ),
        known_labels,
    )
    def test_nan_coordinates(self, index, position, acceleration, label):
        assert_agrees_with_full_scan(
            synthetic_sample(index, position, label, acceleration)
        )


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
