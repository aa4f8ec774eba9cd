"""Integration tests for Avis campaigns, replay and reporting."""

import pytest

from repro.core.avis import Avis, CampaignResult, ProfilingError
from repro.core.config import RunConfiguration
from repro.core.replay import BugReplayer, build_replay_plan, resolve_plan
from repro.core.report import campaign_table, per_mode_table, unsafe_condition_report
from repro.core.runner import TestRunner
from repro.core.strategies import RandomInjection
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId, SensorType
from repro.workloads.builtin import AutoWorkload
from repro.workloads.framework import Target


class TestProfiling:
    def test_profiling_builds_monitor_and_mode_graph(self, waypoint_avis):
        assert len(waypoint_avis.profiling_results) == 2
        assert all(run.workload_passed for run in waypoint_avis.profiling_results)
        graph = waypoint_avis.monitor.mode_graph
        assert "takeoff" in graph.modes
        assert waypoint_avis.monitor.liveliness.calibration.threshold > 0.0

    def test_profiling_error_for_impossible_workload(self):
        class ImpossibleWorkload(Target):
            def test(self):
                self.wait_altitude(1000.0, timeout_s=2.0)
                self.pass_test()

        config = RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=ImpossibleWorkload,
            max_sim_time_s=20.0,
        )
        with pytest.raises(ProfilingError):
            Avis(config, profiling_runs=1).profile()

    @pytest.mark.parametrize("runs", [0, -1])
    def test_profiling_runs_below_one_are_rejected(self, short_auto_config, runs):
        with pytest.raises(ValueError, match="profiling_runs must be >= 1"):
            Avis(short_auto_config, profiling_runs=runs)

    def test_calibrate_adopts_runs_with_a_monitor_of_its_own(self, waypoint_avis):
        from repro.obs.runtime import Observability, observed

        profiles = waypoint_avis.profiling_results
        adopter = Avis(waypoint_avis.config, profiling_runs=2)
        obs = Observability()
        with observed(obs):
            adopter.calibrate(profiles)
        assert adopter.profiling_results == profiles
        assert adopter.monitor is not waypoint_avis.monitor
        assert obs.metrics.snapshot()["counters"] == {"avis.profile.reused": 2}
        assert obs.tracer.events == []  # the avis.profile span marks flights only
        with pytest.raises(ValueError, match="expected 3 profiling runs"):
            Avis(waypoint_avis.config, profiling_runs=3).calibrate(profiles)


def table_sizes(store):
    return {state: len(table.deviates) for state, table in store._tables.items()}


class TestNoiseStore:
    """One orchestrator, one store of sensor-noise tables: its profiles
    and its campaign flights share it; other orchestrators never do."""

    def test_profiles_and_campaign_fly_on_one_store(self, short_auto_config):
        avis = Avis(short_auto_config, profiling_runs=2, budget_units=3.0)
        store = avis.runner._noise
        assert len(store) == 0
        golden = avis.profile()[0]
        # Two profiling seeds, five distinct driver states each.
        assert len(store) == 10
        sizes = table_sizes(store)
        # Profile 0's seed flown again computes no deviates.
        assert avis.runner.run().trace == golden.trace
        assert table_sizes(store) == sizes
        avis.check(strategy=RandomInjection(rng_seed=3))
        assert avis.engine.last_stats["executed"] > 0
        assert len(store) == 10
        assert avis.runner._noise is store

    def test_two_orchestrators_never_share_a_store(self, short_auto_config):
        first = Avis(short_auto_config, profiling_runs=1)
        second = Avis(short_auto_config, profiling_runs=1)
        assert first.runner._noise is not second.runner._noise
        first.profile()
        assert (len(first.runner._noise), len(second.runner._noise)) == (5, 0)
        second.profile()
        assert first.profiling_results[0].trace == second.profiling_results[0].trace


class TestCampaign:
    def test_sabre_campaign_finds_unsafe_scenarios(self, waypoint_avis):
        campaign = waypoint_avis.check(budget_units=25)
        assert isinstance(campaign, CampaignResult)
        assert campaign.simulations <= 25
        assert campaign.unsafe_scenario_count >= 1
        assert campaign.triggered_bug_ids
        assert campaign.efficiency > 0.0
        # Every unsafe scenario maps back to a registry bug (no false
        # positives, as in the paper's evaluation).
        for result in campaign.unsafe_results:
            assert result.triggered_bugs

    def test_per_mode_counts_cover_table4_categories(self, waypoint_avis):
        campaign = waypoint_avis.check(budget_units=12)
        assert set(campaign.per_mode_counts) >= {"takeoff", "manual", "waypoint", "land"}
        assert sum(campaign.per_mode_counts.values()) == campaign.unsafe_scenario_count

    def test_simulations_to_find_reports_first_hit(self, waypoint_avis):
        campaign = waypoint_avis.check(budget_units=25)
        found = sorted(campaign.triggered_bug_ids)
        assert found
        first = campaign.simulations_to_find(found[0])
        assert first is not None and 1 <= first <= campaign.simulations
        assert campaign.simulations_to_find("APM-0000") is None

    def test_campaign_tables_render(self, waypoint_avis):
        campaign = waypoint_avis.check(strategy=RandomInjection(rng_seed=2), budget_units=8)
        table = campaign_table([campaign])
        modes = per_mode_table([campaign])
        assert "random" in table
        assert "unsafe #" in table
        assert "takeoff #" in modes
        assert campaign.summary()


class TestReplayAndReport:
    def test_replay_plan_round_trip(self, golden_waypoint_run, short_waypoint_config, waypoint_avis):
        takeoff_time = next(
            t.time for t in golden_waypoint_run.mode_transitions if t.label == "takeoff"
        )
        scenario = FaultScenario(
            [FaultSpec(SensorId(SensorType.BAROMETER, 0), takeoff_time)]
        )
        runner = TestRunner(short_waypoint_config, monitor=waypoint_avis.monitor)
        original = runner.run(scenario)
        assert original.found_unsafe_condition

        plan = build_replay_plan(original)
        assert plan.faults and plan.faults[0].sensor_id.sensor_type == SensorType.BAROMETER
        resolved = resolve_plan(plan, golden_waypoint_run)
        assert len(resolved) == 1

        replayer = BugReplayer(short_waypoint_config, waypoint_avis.monitor)
        outcome = replayer.replay(original, reference=golden_waypoint_run)
        assert outcome.reproduced
        assert "barometer" in outcome.plan.describe()

    def test_unsafe_condition_report_contains_key_sections(
        self, short_waypoint_config, waypoint_avis, golden_waypoint_run
    ):
        takeoff_time = next(
            t.time for t in golden_waypoint_run.mode_transitions if t.label == "takeoff"
        )
        scenario = FaultScenario(
            [FaultSpec(SensorId(SensorType.BAROMETER, 0), takeoff_time)]
        )
        runner = TestRunner(short_waypoint_config, monitor=waypoint_avis.monitor)
        result = runner.run(scenario)
        report = unsafe_condition_report(result)
        assert "UNSAFE CONDITION REPORT" in report
        assert "Injected faults" in report
        assert "Operating-mode transitions" in report
        assert "APM-16027" in report

    def test_report_for_golden_run(self, golden_waypoint_run):
        report = unsafe_condition_report(golden_waypoint_run)
        assert "golden run" in report
        assert "(none)" in report
