"""Batched SABRE: dequeue-level parallel exploration must be bit-identical.

The campaign engine drives ``AvisStrategy`` through the batch protocol:
each transition dequeue expands into up to ``max_scenarios_per_dequeue``
independent candidates that are simulated concurrently, with feedback
(found-bug pruning, queue re-seeding) applied between rounds in
canonical order.  These tests pin the determinism contract for the
paper's headline strategy: the same proposer driven at round size 8
reproduces its round-size-1 run (``explore()``, where every outcome is
consumed before the next candidate is decided) bit-for-bit -- same
scenarios in the same order, same budget trajectory, same pruning
statistics, same found-bug set, same cache keys -- at every budget,
batch width, and fleet size.  ``test_strategy_digests.py`` pins the
round-size-1 runs themselves to recorded digests.

The exhaustive matrix runs against the stub fault space (instant
"simulations"), real-simulator coverage runs a small budget end to end
through the ``"serial"`` and ``"pool:N"`` backend specs.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from conftest import drive_batched, drive_strategy
from test_sabre_strategies import StubRunner, make_session, profiling_run

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.runner import TestRunner
from repro.core.sabre import SabreSearch
from repro.core.session import BudgetAccount, ExplorationSession
from repro.core.strategies import AvisStrategy, BayesianFaultInjection
from repro.engine.cache import campaign_fingerprint, scenario_key
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.sensors.suite import iris_sensor_suite
from repro.workloads.fleet import MultiPadTakeoffLandWorkload


def make_fleet_session(budget_units=50.0, runner=None, fleet_size=2):
    """A stub session whose fault space is namespaced per vehicle."""
    runner = runner if runner is not None else StubRunner()
    runner.config = SimpleNamespace(fleet_size=fleet_size)
    return ExplorationSession(
        runner=runner,
        budget=BudgetAccount(total_units=budget_units),
        profiling_run=profiling_run(),
        suite=iris_sensor_suite(),
    )


def signature(session: ExplorationSession):
    return [
        (str(result.scenario), result.found_unsafe_condition)
        for result in session.results
    ]


class TestStubBitIdentity:
    """The exhaustive (budget x per-dequeue x batch-width) matrix."""

    @pytest.mark.parametrize("budget", [4.0, 16.0, 64.0])
    @pytest.mark.parametrize("per_dequeue", [1, 4])
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_batched_matches_sequential(self, budget, per_dequeue, batch_size):
        sequential_session = make_session(budget_units=budget, runner=StubRunner())
        sequential = SabreSearch(
            sequential_session, max_scenarios_per_dequeue=per_dequeue
        )
        drive_batched(sequential, 1)

        batched_session = make_session(budget_units=budget, runner=StubRunner())
        batched = SabreSearch(batched_session, max_scenarios_per_dequeue=per_dequeue)
        drive_batched(batched, batch_size)

        assert signature(batched_session) == signature(sequential_session)
        assert dataclasses.astuple(batched.report) == dataclasses.astuple(
            sequential.report
        )
        assert (
            batched_session.budget.spent_units
            == sequential_session.budget.spent_units
        )
        assert (
            batched_session.budget.simulations
            == sequential_session.budget.simulations
        )
        seq_stats = sequential.pruner.statistics
        bat_stats = batched.pruner.statistics
        assert (bat_stats.found_bug_pruned, bat_stats.duplicate_pruned) == (
            seq_stats.found_bug_pruned,
            seq_stats.duplicate_pruned,
        )

    @pytest.mark.parametrize("budget", [4.0, 16.0, 64.0])
    def test_fleet_fault_space_matches_sequential(self, budget):
        """fleet_size=2: the per-vehicle namespaced fault space batches
        identically (vehicle-0 GPS failures stay the unsafe trigger)."""
        sequential_session = make_fleet_session(budget_units=budget)
        sequential = SabreSearch(sequential_session, max_scenarios_per_dequeue=4)
        drive_batched(sequential, 1)

        batched_session = make_fleet_session(budget_units=budget)
        batched = SabreSearch(batched_session, max_scenarios_per_dequeue=4)
        drive_batched(batched, 8)

        assert signature(batched_session) == signature(sequential_session)
        assert dataclasses.astuple(batched.report) == dataclasses.astuple(
            sequential.report
        )

    def test_unbounded_dequeue_matches_sequential(self):
        sequential_session = make_session(budget_units=30.0, runner=StubRunner())
        drive_batched(
            SabreSearch(sequential_session, max_scenarios_per_dequeue=None), 1
        )
        batched_session = make_session(budget_units=30.0, runner=StubRunner())
        drive_batched(
            SabreSearch(batched_session, max_scenarios_per_dequeue=None), 8
        )
        assert signature(batched_session) == signature(sequential_session)

    def test_found_bug_dependent_candidates_wait_for_feedback(self):
        """A strict superset of an in-flight scenario must not be proposed
        in the same round -- its admission depends on that outcome."""
        session = make_session(budget_units=50.0, runner=StubRunner())
        search = SabreSearch(session, max_scenarios_per_dequeue=None)
        batch = search.propose_batch(1000)
        fault_sets = [frozenset(scenario) for scenario in batch]
        for index, faults in enumerate(fault_sets):
            for earlier in fault_sets[:index]:
                assert not earlier < faults, (
                    "batch contains a strict superset of an earlier "
                    "in-flight scenario"
                )


    def test_batch_is_cut_right_before_the_first_in_flight_superset(self):
        session = make_session(budget_units=50.0, runner=StubRunner())
        search = SabreSearch(session, max_scenarios_per_dequeue=None)
        first = search.propose_batch(1000)
        # Every singleton at the first injection time, then the cut: the
        # first pair strictly contains two of them.
        assert len(first) == len(session.sensor_ids)
        assert {len(scenario) for scenario in first} == {1}
        assert len({scenario.faults[0].start_time for scenario in first}) == 1
        for scenario in first:
            session.ingest_result(scenario, session.runner.run(scenario))
        second = search.propose_batch(1000)
        assert len(second[0]) == 2

    def test_no_scenario_extends_an_earlier_unsafe_one(self):
        session = make_session(budget_units=64.0, runner=StubRunner())
        search = SabreSearch(session, max_scenarios_per_dequeue=6)
        drive_batched(search, 8)
        unsafe = []
        for result in session.results:
            faults = frozenset(result.scenario)
            assert not any(bug < faults for bug in unsafe)
            if result.found_unsafe_condition:
                unsafe.append(faults)
        assert unsafe
        assert search.pruner.statistics.found_bug_pruned > 0


class TestBatchedBfi:
    def test_bfi_batched_matches_sequential(self):
        sequential_session = make_session(budget_units=12.0, runner=StubRunner())
        BayesianFaultInjection(candidate_granularity_s=1.0).explore(
            sequential_session
        )

        batched_session = make_session(budget_units=12.0, runner=StubRunner())
        drive_strategy(
            BayesianFaultInjection(candidate_granularity_s=1.0), batched_session, 8
        )

        assert signature(batched_session) == signature(sequential_session)
        assert (
            batched_session.budget.spent_units
            == sequential_session.budget.spent_units
        )
        assert batched_session.budget.labels == sequential_session.budget.labels
        assert (
            batched_session.budget.simulations
            == sequential_session.budget.simulations
        )


class TestBatchSupport:
    def test_avis_strategy_has_batch_support(self):
        # Regression: the paper's headline strategy proposes its rounds
        # through the batch protocol; a round is a list, never None.
        batch = AvisStrategy().propose_batch(make_session(), 8)
        assert isinstance(batch, list)
        assert 0 < len(batch) <= 8
        assert len(set(map(str, batch))) == len(batch)

    def test_plain_bfi_has_batch_support(self):
        batch = BayesianFaultInjection().propose_batch(make_session(), 8)
        assert isinstance(batch, list)
        assert 0 < len(batch) <= 8
        assert len(set(map(str, batch))) == len(batch)

    def test_strategy_reuse_restarts_search(self):
        """A strategy instance reused for a second campaign restarts its
        transition queue instead of resuming the first campaign's."""
        strategy = AvisStrategy(max_scenarios_per_dequeue=4)
        first = make_session(budget_units=6.0, runner=StubRunner())
        second = make_session(budget_units=6.0, runner=StubRunner())
        for session in (first, second):
            drive_strategy(strategy, session, 8)
        assert signature(first) == signature(second)


class TestEndToEnd:
    """Real simulator, real engine, real backends."""

    BUDGET = 6.0

    def _sequential_reference(self, avis, per_dequeue, cache=None):
        session = ExplorationSession(
            runner=TestRunner(avis.config, monitor=avis.monitor),
            budget=BudgetAccount(total_units=self.BUDGET),
            profiling_run=avis.profiling_results[0],
            suite=iris_sensor_suite(noise_seed=avis.config.noise_seed),
        )
        AvisStrategy(max_scenarios_per_dequeue=per_dequeue).explore(session)
        if cache is not None:
            # Key every simulated scenario the way the campaign engine
            # does, so the cache-key comparison covers the sequential run.
            config = session.runner.config
            fingerprint = campaign_fingerprint(config, avis.monitor)
            for result in session.results:
                cache.put(scenario_key(config, fingerprint, result.scenario), result)
        return session

    @pytest.mark.parametrize("per_dequeue", [1, 4])
    def test_pool_campaign_matches_sequential(self, short_auto_config, per_dequeue):
        avis = Avis(
            short_auto_config,
            profiling_runs=2,
            budget_units=self.BUDGET,
            backend="pool:4",
        )
        try:
            avis.profile()
            batched = avis.check(
                strategy=AvisStrategy(max_scenarios_per_dequeue=per_dequeue)
            )

            reference = Avis(
                short_auto_config, profiling_runs=2, budget_units=self.BUDGET
            )
            reference.profile()
            sequential = self._sequential_reference(
                reference, per_dequeue, cache=reference.cache
            )

            assert [str(r.scenario) for r in batched.results] == [
                str(r.scenario) for r in sequential.results
            ]
            assert [r.found_unsafe_condition for r in batched.results] == [
                r.found_unsafe_condition for r in sequential.results
            ]
            assert batched.simulations == sequential.budget.simulations
            assert batched.budget_spent == pytest.approx(
                sequential.budget.spent_units
            )
            # The found-bug set and the Table IV per-mode counts agree.
            sequential_bugs = set()
            for result in sequential.unsafe_results:
                sequential_bugs.update(result.triggered_bugs)
            assert batched.triggered_bug_ids == sequential_bugs
            # Cache keys are content-addressed, so equality states that
            # the very same (config, scenario) pairs were simulated.
            assert avis.cache.keys() == reference.cache.keys()
            # The batched path really batched (several scenarios per
            # round, executed through the backend).
            stats = avis.engine.last_stats
            assert stats["rounds"] >= 1
            assert stats["proposed"] == batched.simulations
            if per_dequeue > 1:
                assert stats["rounds"] < batched.simulations
        finally:
            avis.engine.close()

    def test_fleet_pool_campaign_matches_serial(self):
        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=lambda: MultiPadTakeoffLandWorkload(fleet_size=2),
            fleet_size=2,
            max_sim_time_s=160.0,
        )

        def campaign(backend):
            avis = Avis(
                config, profiling_runs=2, budget_units=4.0, backend=backend
            )
            avis.profile()
            result = avis.check(
                strategy=AvisStrategy(max_scenarios_per_dequeue=4)
            )
            avis.engine.close()
            return result, avis.cache.keys()

        serial_result, serial_keys = campaign("serial")
        pool_result, pool_keys = campaign("pool:4")

        assert [str(r.scenario) for r in pool_result.results] == [
            str(r.scenario) for r in serial_result.results
        ]
        assert pool_result.per_mode_counts == serial_result.per_mode_counts
        assert pool_result.triggered_bug_ids == serial_result.triggered_bug_ids
        assert pool_result.budget_spent == serial_result.budget_spent
        assert pool_keys == serial_keys

    def test_engine_reports_per_mode_counts_identically(self, short_auto_config):
        """per_mode_counts is derived from result order; one more guard
        that batched recording preserves it."""
        avis = Avis(short_auto_config, profiling_runs=2, budget_units=self.BUDGET)
        avis.profile()
        batched = avis.check(strategy=AvisStrategy(max_scenarios_per_dequeue=4))
        reference = Avis(
            short_auto_config, profiling_runs=2, budget_units=self.BUDGET
        )
        reference.profile()
        sequential = self._sequential_reference(reference, 4)
        expected = {"takeoff": 0, "manual": 0, "waypoint": 0, "land": 0}
        from repro.core.monitor import mode_category_of

        for result in sequential.results:
            if result.found_unsafe_condition:
                category = mode_category_of(result.unsafe_conditions[0])
                expected[category] = expected.get(category, 0) + 1
        assert batched.per_mode_counts == expected
