"""Unit tests for SABRE, the pruning policies, and the baseline strategies.

These tests run against a *stub* fault space: a fake runner flags a
scenario as unsafe when it fails a designated sensor inside a designated
time window, so search behaviour can be verified without flying full
simulated missions.
"""

from typing import List

import pytest

from conftest import drive_batched, drive_strategy, make_run_result, make_trace

from repro.core.pruning import RedundancyPruner
from repro.core.runner import RunResult
from repro.core.sabre import SabreSearch
from repro.core.session import BudgetAccount, ExplorationSession
from repro.core.strategies import (
    AvisStrategy,
    BayesianFaultInjection,
    BfiModel,
    BreadthFirstSearch,
    DepthFirstSearch,
    RandomInjection,
    StratifiedBFI,
)
from repro.core.strategies.bayesian import TrainingExample, default_training_data
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.hinj.instrumentation import ModeTransition
from repro.sensors.base import SensorId, SensorType
from repro.sensors.suite import iris_sensor_suite
from repro.sim.simulator import CollisionEvent

GPS = SensorId(SensorType.GPS, 0)
BARO = SensorId(SensorType.BAROMETER, 0)
COMPASS_P = SensorId(SensorType.COMPASS, 0)
COMPASS_B1 = SensorId(SensorType.COMPASS, 1)


def profiling_run() -> RunResult:
    transitions = [
        ModeTransition(0.0, "preflight", None),
        ModeTransition(2.0, "takeoff", "preflight"),
        ModeTransition(10.0, "waypoint-1", "takeoff"),
        ModeTransition(20.0, "land", "waypoint-1"),
    ]
    trace = make_trace([(0.0, 0.0, float(i)) for i in range(60)], ["takeoff"] * 60, sample_period=0.5)
    return make_run_result(trace=trace, transitions=transitions, duration_s=30.0)


class StubRunner:
    """Flags scenarios unsafe when the target sensor fails in the window."""

    def __init__(self, unsafe_sensor=GPS, window=(9.0, 12.0)):
        self.unsafe_sensor = unsafe_sensor
        self.window = window
        self.executed: List[FaultScenario] = []

    def run(self, scenario: FaultScenario, noise_seed=None) -> RunResult:
        self.executed.append(scenario)
        unsafe = any(
            fault.sensor_id == self.unsafe_sensor
            and self.window[0] <= fault.start_time <= self.window[1]
            for fault in scenario
        )
        result = make_run_result(
            scenario=scenario,
            transitions=profiling_run().mode_transitions,
            collisions=[CollisionEvent(11.0, (0.0, 0.0, 0.0), 5.0)] if unsafe else [],
            triggered_bugs=["STUB-BUG"] if unsafe else [],
        )
        if unsafe:
            result.unsafe_conditions = ["collision"]
        return result


def make_session(budget_units=50.0, runner=None) -> ExplorationSession:
    return ExplorationSession(
        runner=runner if runner is not None else StubRunner(),
        budget=BudgetAccount(total_units=budget_units),
        profiling_run=profiling_run(),
        suite=iris_sensor_suite(),
    )


class TestRedundancyPruner:
    def test_primary_not_pruned_by_backup(self):
        pruner = RedundancyPruner()
        pruner.record_explored(FaultScenario([FaultSpec(COMPASS_B1, 5.0)]))
        assert not pruner.can_prune(FaultScenario([FaultSpec(COMPASS_P, 5.0)]))

    def test_found_bug_pruning_skips_supersets(self):
        pruner = RedundancyPruner()
        bug = FaultScenario([FaultSpec(GPS, 5.0)])
        pruner.record_bug(bug)
        superset = FaultScenario([FaultSpec(GPS, 5.0), FaultSpec(BARO, 5.0)])
        assert pruner.can_prune(superset)
        assert not pruner.can_prune(bug.extended([]))  # the bug itself is not a strict superset

    def test_duplicate_scenarios_pruned(self):
        pruner = RedundancyPruner()
        scenario = FaultScenario([FaultSpec(GPS, 5.0)])
        pruner.record_explored(scenario)
        assert pruner.can_prune(scenario)

    def test_only_strict_supersets_of_the_same_faults_are_pruned(self):
        pruner = RedundancyPruner()
        pruner.record_bug(FaultScenario([FaultSpec(GPS, 5.0)]))
        # A fault is a (sensor, time) pair: the same sensor failed at
        # another time is not a superset of the bug.
        assert not pruner.can_prune(FaultScenario([FaultSpec(BARO, 5.0)]))
        assert not pruner.can_prune(
            FaultScenario([FaultSpec(GPS, 6.0), FaultSpec(BARO, 5.0)])
        )
        assert pruner.statistics.found_bug_pruned == 0

    def test_an_empty_bug_scenario_prunes_nothing(self):
        pruner = RedundancyPruner()
        pruner.record_bug(EMPTY_SCENARIO)
        assert not pruner.can_prune(FaultScenario([FaultSpec(GPS, 5.0)]))

    def test_each_prune_is_counted_once_under_its_first_reason(self):
        pruner = RedundancyPruner()
        bug = FaultScenario([FaultSpec(GPS, 5.0)])
        superset = bug.extended([FaultSpec(BARO, 5.0)])
        pruner.record_bug(bug)
        assert pruner.can_prune(superset)
        pruner.record_explored(superset)
        # Now both a duplicate and a superset of the bug: the duplicate
        # check runs first.
        assert pruner.can_prune(superset)
        assert (
            pruner.statistics.found_bug_pruned,
            pruner.statistics.duplicate_pruned,
        ) == (1, 1)


class TestSabreSearch:
    def test_targets_transition_window_and_finds_bug(self):
        runner = StubRunner(unsafe_sensor=GPS, window=(9.5, 11.5))
        session = make_session(budget_units=40, runner=runner)
        search = SabreSearch(session, max_scenarios_per_dequeue=6)
        drive_batched(search, 1)
        assert search.report.unsafe_scenarios >= 1
        assert any(result.found_unsafe_condition for result in session.results)

    def test_respects_budget(self):
        session = make_session(budget_units=10)
        drive_batched(SabreSearch(session), 1)
        assert session.budget.simulations <= 10

    def test_subsets_ordered_singletons_then_pairs_primaries_first(self):
        session = make_session()
        search = SabreSearch(session, max_concurrent_failures=2)
        subsets = search.subsets
        assert all(len(subset) == 1 for subset in subsets[:9])
        primary_singles = [s for s in subsets[:9] if s[0].instance == 0]
        assert len(primary_singles) == 6
        assert all(s[0].instance == 0 for s in subsets[:6])

    def test_does_not_rerun_explored_scenarios(self):
        runner = StubRunner()
        session = make_session(budget_units=60, runner=runner)
        drive_batched(SabreSearch(session, max_scenarios_per_dequeue=None), 1)
        executed = [str(sorted(f.describe() for f in s)) for s in runner.executed]
        assert len(executed) == len(set(executed))

    def test_requires_at_least_one_failure(self):
        session = make_session()
        with pytest.raises(ValueError):
            SabreSearch(session, failures=[])


class TestBfiModel:
    def test_default_prior_matches_paper_distribution(self):
        model = BfiModel()
        assert model.predicts_unsafe(SensorType.ACCELEROMETER, "takeoff")
        assert model.predicts_unsafe(SensorType.COMPASS, "waypoint")
        assert not model.predicts_unsafe(SensorType.GPS, "land")
        assert not model.predicts_unsafe(SensorType.BAROMETER, "takeoff")
        assert not model.predicts_unsafe(SensorType.COMPASS, "takeoff")

    def test_scenario_score_is_max_over_constituents(self):
        model = BfiModel()
        joint = model.scenario_score(
            [SensorType.GPS, SensorType.ACCELEROMETER], "takeoff"
        )
        single = model.predict_unsafe_probability(SensorType.ACCELEROMETER, "takeoff")
        assert joint == pytest.approx(single)

    def test_empty_model_is_uncertain(self):
        model = BfiModel(training_data=[])
        assert model.predict_unsafe_probability(SensorType.GPS, "takeoff") == pytest.approx(0.5)

    def test_observe_updates_predictions(self):
        model = BfiModel(training_data=[])
        for _ in range(5):
            model.observe(TrainingExample(SensorType.GPS, "land", True))
        model.observe(TrainingExample(SensorType.BAROMETER, "takeoff", False))
        assert model.predicts_unsafe(SensorType.GPS, "land")

    def test_default_training_data_has_both_classes(self):
        data = default_training_data()
        assert any(example.unsafe for example in data)
        assert any(not example.unsafe for example in data)


class TestStrategies:
    def test_table1_feature_matrix(self):
        assert AvisStrategy.features.targets_mode_transitions
        assert AvisStrategy.features.uses_prior_bugs
        assert AvisStrategy.features.searches_dissimilar_first
        assert not StratifiedBFI.features.targets_mode_transitions
        assert StratifiedBFI.features.uses_prior_bugs
        assert StratifiedBFI.features.searches_dissimilar_first
        assert not BayesianFaultInjection.features.searches_dissimilar_first
        assert not RandomInjection.features.uses_prior_bugs

    def test_random_injection_respects_budget_and_dedupes(self):
        runner = StubRunner()
        session = make_session(budget_units=15, runner=runner)
        RandomInjection(rng_seed=3).explore(session)
        assert session.budget.simulations <= 15
        assert len(runner.executed) == len(set(runner.executed))

    def test_random_injection_saturates_at_the_same_point_at_every_round_size(self):
        # A sub-second mission: 101 injection times x 9 sensors, one
        # failure per draw, so the space saturates long before the
        # budget and the duplicate-streak bound ends the campaign.
        def saturating_session() -> ExplorationSession:
            golden = make_run_result(
                trace=make_trace([(0.0, 0.0, float(i)) for i in range(5)]),
                transitions=profiling_run().mode_transitions,
                duration_s=0.5,
            )
            return ExplorationSession(
                runner=StubRunner(),
                budget=BudgetAccount(total_units=5000),
                profiling_run=golden,
                suite=iris_sensor_suite(),
            )

        outcomes = []
        for round_size in (1, 8):
            session = saturating_session()
            strategy = RandomInjection(max_concurrent_failures=1)
            if round_size == 1:
                strategy.explore(session)
            else:
                drive_strategy(strategy, session, round_size)
            outcomes.append(
                (
                    session.budget.simulations,
                    [result.scenario for result in session.results],
                    session.budget.spent_units,
                )
            )
        assert outcomes[0] == outcomes[1]
        simulations = outcomes[0][0]
        assert 0 < simulations < 101 * 9
        # The saturated campaign's duplicate streak does not carry over
        # into the next campaign of the same strategy.
        session = make_session(budget_units=5)
        strategy.explore(session)
        assert session.budget.simulations == 5

    def test_bfi_charges_labelling_costs(self):
        session = make_session(budget_units=10)
        strategy = BayesianFaultInjection(candidate_granularity_s=1.0)
        strategy.explore(session)
        budget = session.budget
        assert budget.labels > 0
        # Every label issued was charged, next to the simulations.
        assert budget.spent_units == pytest.approx(
            budget.labels * budget.labelling_cost
            + budget.simulations * budget.simulation_cost
        )
        assert budget.spent_units <= 10.0 + budget.simulation_cost

    def test_stratified_bfi_only_runs_predicted_sites(self):
        runner = StubRunner(unsafe_sensor=COMPASS_P, window=(19.0, 22.0))
        session = make_session(budget_units=40, runner=runner)
        StratifiedBFI().explore(session)
        # Every executed scenario involves a sensor type the model flags.
        flagged_types = {SensorType.ACCELEROMETER, SensorType.COMPASS, SensorType.GYROSCOPE}
        for scenario in runner.executed:
            assert set(scenario.sensor_types) <= flagged_types

    def test_dfs_order_starts_from_the_end(self):
        scenarios = list(DepthFirstSearch.enumerate_scenarios([GPS, BARO], [1.0, 2.0, 3.0]))
        assert scenarios[0].is_empty
        assert scenarios[1].faults[0].start_time == 3.0

    def test_bfs_order_starts_from_whole_run_failures(self):
        scenarios = list(BreadthFirstSearch.enumerate_scenarios([GPS, BARO], [1.0, 2.0, 3.0]))
        assert scenarios[0].is_empty
        assert scenarios[1].faults[0].start_time == 1.0
        # Second scenario fails GPS alone, third the barometer alone.
        assert scenarios[1].sensor_types == [SensorType.GPS]
        assert scenarios[2].sensor_types == [SensorType.BAROMETER]


class TestBudgetAccount:
    def test_charges_and_exhaustion(self):
        budget = BudgetAccount(total_units=2.0, simulation_cost=1.0, labelling_cost=0.25)
        assert budget.can_afford_simulation()
        budget.charge_simulation()
        budget.charge_label()
        assert budget.remaining_units == pytest.approx(0.75)
        assert budget.exhausted
        assert budget.can_afford_label()

    @pytest.mark.parametrize(
        "total", [-1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_and_negative_budgets(self, total):
        with pytest.raises(ValueError, match="finite number >= 0"):
            BudgetAccount(total_units=total)

    def test_session_returns_cached_result_without_charge(self):
        runner = StubRunner()
        session = make_session(budget_units=5, runner=runner)
        first = next(
            scenario
            for scenario in BreadthFirstSearch.enumerate_scenarios(
                session.sensor_ids, [0.0]
            )
            if not scenario.is_empty
        )
        assert session.reserve_simulation()
        recorded = runner.run(first)
        session.ingest_result(first, recorded)
        # The proposer skips the explored scenario: its recorded result
        # is served, never simulated or charged a second time.
        BreadthFirstSearch().explore(session)
        assert runner.executed.count(first) == 1
        assert session.result_for(first) is recorded
        assert session.budget.simulations == 5
        assert len(session.results) == 5

    def test_session_refuses_when_budget_exhausted(self):
        runner = StubRunner()
        session = make_session(budget_units=1, runner=runner)
        assert session.reserve_simulation()
        assert not session.reserve_simulation()
        assert session.budget.simulations == 1
        # An exhausted session gets no proposals, so nothing simulates.
        RandomInjection().explore(session)
        assert runner.executed == []


class TestRemovedStrategyOptions:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: BayesianFaultInjection(learn_online=True),
            lambda: BayesianFaultInjection(exploration_rate=0.5),
            lambda: StratifiedBFI(exploration_rate=0.5),
            lambda: RandomInjection(max_iterations=3),
            lambda: SabreSearch(make_session()).propose_batch(1, charge=False),
        ],
        ids=[
            "bfi-learn-online",
            "bfi-exploration-rate",
            "stratified-bfi-exploration-rate",
            "random-max-iterations",
            "sabre-charge",
        ],
    )
    def test_removed_keyword_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_removed_names_are_gone(self):
        from repro.core.session import ExplorationSession

        assert not hasattr(ExplorationSession, "run_scenario")
        assert not hasattr(SabreSearch, "run")
        assert not hasattr(SabreSearch(make_session()), "in_flight_cuts")
        for strategy in (
            BayesianFaultInjection(),
            StratifiedBFI(),
            RandomInjection(),
            DepthFirstSearch(),
        ):
            assert not hasattr(strategy, "simulations_run")
            assert not hasattr(strategy, "labels_issued")

    def test_every_strategy_explores_through_the_base_class(self):
        from repro.core.strategies import SearchStrategy
        from repro.engine.api import STRATEGIES

        for strategy_class in STRATEGIES.values():
            assert strategy_class.explore is SearchStrategy.explore

    def test_stratified_bfi_is_bfi_on_sabres_schedule(self):
        assert issubclass(StratifiedBFI, BayesianFaultInjection)
        assert "propose_batch" not in vars(StratifiedBFI)
        assert "_candidate_stream" not in vars(StratifiedBFI)
        assert BayesianFaultInjection.EXPLORATION_RATE == 0.02
        assert StratifiedBFI.EXPLORATION_RATE == 0.0
