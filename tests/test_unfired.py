"""Unfired scenarios: faults that start after the golden run's last
sensor read never fire, so the campaign engine answers them from the
golden run instead of flying them (``repro.engine.campaign``)."""

from __future__ import annotations

import dataclasses
import os
from types import SimpleNamespace

import pytest

from conftest import make_run_result

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.runner import TestRunner
from repro.core.strategies import BayesianFaultInjection
from repro.engine.api import CampaignRequest, build_cells
from repro.engine.backends import ExecutionBackend
from repro.engine.campaign import CampaignEngine
from repro.engine.grid import CampaignGrid
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId, SensorType
from repro.workloads.fleet import ConvoyFollowWorkload

GPS = SensorId(SensorType.GPS, 0)
BARO = SensorId(SensorType.BAROMETER, 0)
SOLO = RunConfiguration(firmware_class=ArduPilotFirmware)


class OneRound:
    """A strategy proposing one fixed batch, then nothing."""

    name = "one-round"

    def __init__(self, scenarios):
        self._scenarios = list(scenarios)

    def propose_batch(self, session, size):
        batch, self._scenarios = self._scenarios, []
        return batch


class CannedBackend(ExecutionBackend):
    """Returns ``result`` for every scenario and records what it ran."""

    name = "canned"

    def __init__(self, result):
        self.result = result
        self.ran = []

    def run_scenarios(self, config, monitor, scenarios):
        self.ran.extend(scenarios)
        return [dataclasses.replace(self.result, scenario=s) for s in scenarios]


class VerdictMonitor:
    """Judges every result with a fixed list of conditions."""

    def __init__(self, conditions):
        self._conditions = conditions

    def evaluate(self, result):
        return list(self._conditions)


def stub_session(runner):
    results = []
    return SimpleNamespace(
        runner=runner,
        results=results,
        ingest_result=lambda scenario, result: results.append(result),
    )


def run_round(config, scenarios, golden, monitor):
    """One engine round over a canned backend: (stats, session, backend)."""
    backend = CannedBackend(make_run_result())
    engine = CampaignEngine(backend=backend)
    session = stub_session(SimpleNamespace(config=config, monitor=monitor))
    engine.execute(OneRound(scenarios), session, golden=golden)
    return engine.last_stats, session, backend


@pytest.fixture(scope="module")
def px4_avis(short_px4_config):
    avis = Avis(short_px4_config, profiling_runs=2)
    avis.profile()
    return avis


@pytest.fixture(params=["ardupilot", "px4"])
def profiled(request, waypoint_avis, px4_avis):
    return waypoint_avis if request.param == "ardupilot" else px4_avis


def last_read_time(avis):
    golden = avis.profiling_results[0]
    return (golden.steps - 1) * avis.config.dt


def engine_result(avis, scenario):
    """The campaign engine's result for ``scenario`` and its stats."""
    engine = CampaignEngine()
    session = stub_session(TestRunner(avis.config, monitor=avis.monitor))
    engine.execute(OneRound([scenario]), session, golden=avis.profiling_results[0])
    (result,) = session.results
    return result, engine.last_stats


class TestRealFlights:
    def test_fault_at_the_last_read_flies_and_fires(self, profiled):
        scenario = FaultScenario([FaultSpec(GPS, last_read_time(profiled))])
        result, stats = engine_result(profiled, scenario)
        assert (stats["executed"], stats["unfired"]) == (1, 0)
        assert [record.sensor_id for record in result.injections] == [GPS]

    @pytest.mark.parametrize("where", ["after-last-read", "mission-end"])
    def test_later_faults_are_answered_as_flown(self, profiled, where):
        golden = profiled.profiling_results[0]
        start = (
            last_read_time(profiled) + 0.001
            if where == "after-last-read"
            else golden.duration_s
        )
        scenario = FaultScenario([FaultSpec(GPS, start), FaultSpec(BARO, start)])
        answered, stats = engine_result(profiled, scenario)
        assert (stats["executed"], stats["unfired"]) == (0, 1)
        flown = TestRunner(profiled.config, monitor=profiled.monitor).run(scenario)
        assert flown.injections == []
        for field in dataclasses.fields(flown):
            if field.name != "flight_log":
                assert getattr(answered, field.name) == getattr(
                    flown, field.name
                ), field.name
        assert answered.scenario == scenario
        assert answered.flight_log is None


class TestRestrictions:
    @pytest.mark.parametrize(
        "config, has_golden",
        [
            (dataclasses.replace(SOLO, stepper="adaptive"), True),
            (
                dataclasses.replace(
                    SOLO, workload_factory=ConvoyFollowWorkload, fleet_size=2
                ),
                True,
            ),
            (SOLO, False),
        ],
        ids=["adaptive", "fleet", "no-golden"],
    )
    def test_late_faults_fly(self, config, has_golden):
        golden = make_run_result()
        late = FaultScenario([FaultSpec(GPS, golden.steps * config.dt + 5.0)])
        stats, _, backend = run_round(
            config, [late], golden if has_golden else None, VerdictMonitor([])
        )
        assert (stats["executed"], stats["unfired"]) == (1, 0)
        assert backend.ran == [late]

    def test_unsafe_verdicts_fly_anyway(self):
        golden = make_run_result()
        late = FaultScenario([FaultSpec(GPS, golden.steps * SOLO.dt)])
        stats, _, backend = run_round(
            SOLO, [late], golden, VerdictMonitor(["violation"])
        )
        assert (stats["executed"], stats["unfired"]) == (1, 0)
        assert backend.ran == [late]

    def test_safe_unfired_scenarios_are_answered_in_order(self):
        golden = make_run_result()
        horizon = (golden.steps - 1) * SOLO.dt
        early = FaultScenario([FaultSpec(GPS, 1.0)])
        mixed = FaultScenario([FaultSpec(GPS, 1.0), FaultSpec(BARO, horizon + 1.0)])
        late = FaultScenario([FaultSpec(BARO, horizon + 1.0)])
        stats, session, backend = run_round(
            SOLO, [early, late, mixed], golden, VerdictMonitor([])
        )
        assert stats == {
            "rounds": 1,
            "proposed": 3,
            "cache_hits": 0,
            "unfired": 1,
            "executed": 2,
        }
        assert backend.ran == [early, mixed]
        assert [r.scenario for r in session.results] == [early, late, mixed]
        assert session.results[1].trace == golden.trace


class TestCampaigns:
    def test_grid_caches_no_unfired_scenario(self, tmp_path):
        directory = str(tmp_path / "cache")
        request = CampaignRequest(
            firmwares=("px4",),
            strategies=("bfi", "random"),
            budgets=(3.0,),
            cache=directory,
            workers=1,
        )

        def totals():
            outcome = CampaignGrid(build_cells(request), max_workers=1).run()
            return outcome.summary()["totals"]

        cold = totals()
        entries = [name for name in os.listdir(directory) if name.endswith(".pkl")]
        assert cold["engine"]["unfired"] == 2
        assert cold["engine"]["executed"] >= 1
        assert len(entries) == cold["engine"]["executed"]
        warm = totals()
        assert warm["cache"]["misses"] == 0
        assert warm["engine"]["executed"] == 0
        assert warm["engine"]["unfired"] == 2
        assert warm["simulations"] == cold["simulations"]

    def test_bfi_serial_matches_the_pool(self, waypoint_avis):
        def campaign(backend):
            avis = Avis(waypoint_avis.config, profiling_runs=2, backend=backend)
            avis.calibrate(waypoint_avis.profiling_results)
            try:
                result = avis.check(strategy=BayesianFaultInjection(), budget_units=8)
            finally:
                avis.engine.backend.close()
            return result, dict(avis.engine.last_stats), sorted(avis.cache.keys())

        serial, serial_stats, serial_keys = campaign("serial")
        pooled, pooled_stats, pooled_keys = campaign("pool:2")
        assert serial_stats["unfired"] >= 1 and serial_stats["executed"] >= 1
        assert pooled_stats == serial_stats
        assert [r.scenario for r in pooled.results] == [
            r.scenario for r in serial.results
        ]
        assert [r.summary() for r in pooled.results] == [
            r.summary() for r in serial.results
        ]
        assert [r.steps for r in pooled.results] == [r.steps for r in serial.results]
        assert pooled_keys == serial_keys
