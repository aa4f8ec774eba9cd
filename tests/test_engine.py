"""Tests for the parallel campaign engine (backends, cache, grid)."""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from conftest import make_run_result

from repro.core.avis import Avis
from repro.core.monitor import InvariantMonitor
from repro.core.runner import TestRunner
from repro.core.strategies import (
    DepthFirstSearch,
    RandomInjection,
    SearchStrategy,
    StratifiedBFI,
)
from repro.core.session import ExplorationSession
from repro.engine.api import STRATEGIES
from repro.engine.backends import (
    ProcessPoolBackend,
    SerialBackend,
    parse_backend_spec,
)
from repro.engine.cache import ResultCache, config_fingerprint, scenario_key
from repro.engine.campaign import DEFAULT_BATCH_SIZE, CampaignEngine
from repro.engine.grid import CampaignGrid, GridCell, cell_fingerprint
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId, SensorType


class TestBatchProtocol:
    def test_strategy_without_propose_batch_cannot_be_instantiated(self):
        class Sequential(SearchStrategy):
            def explore(self, session):
                pass

        with pytest.raises(TypeError):
            Sequential()

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_strategy_records_through_ingest_result(
        self, name, waypoint_avis, monkeypatch
    ):
        ingested = []
        ingest = ExplorationSession.ingest_result

        def recording(self, scenario, result):
            ingested.append(result)
            ingest(self, scenario, result)

        monkeypatch.setattr(ExplorationSession, "ingest_result", recording)
        avis = Avis(waypoint_avis.config, profiling_runs=2)
        avis.calibrate(waypoint_avis.profiling_results)
        campaign = avis.check(strategy=STRATEGIES[name](), budget_units=3)
        assert campaign.results
        assert campaign.results == ingested
        assert campaign.simulations == len(ingested)

    def test_rounds_request_the_default_batch_size(self, waypoint_avis):
        sizes = []

        class Recording(RandomInjection):
            def propose_batch(self, session, max_size):
                sizes.append(max_size)
                return super().propose_batch(session, max_size)

        waypoint_avis.check(strategy=Recording(), budget_units=3)
        assert DEFAULT_BATCH_SIZE == 8
        assert sizes and set(sizes) == {DEFAULT_BATCH_SIZE}

    @pytest.mark.parametrize(
        "build",
        [
            lambda config: Avis(config, simulation_cost=2.0),
            lambda config: Avis(config, labelling_cost=0.5),
            lambda config: Avis(config, batch_size=8),
            lambda config: CampaignEngine(batch_size=8),
            lambda config: CampaignEngine(batch_size="auto"),
            lambda config: ExplorationSession(
                runner=None, budget=None, profiling_run=None, cache=None
            ),
        ],
        ids=[
            "avis-simulation-cost",
            "avis-labelling-cost",
            "avis-batch-size",
            "engine-batch-size",
            "engine-auto-batch-size",
            "session-cache",
        ],
    )
    def test_removed_campaign_options_are_rejected(
        self, build, short_waypoint_config
    ):
        with pytest.raises(TypeError):
            build(short_waypoint_config)

    def test_session_imports_nothing_from_the_engine(self):
        import ast
        import repro.core.session as session_module

        tree = ast.parse(open(session_module.__file__).read())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
            elif isinstance(node, ast.Import):
                imported.extend(alias.name for alias in node.names)
        assert imported
        assert not [name for name in imported if name.startswith("repro.engine")]

    def test_default_costs_live_beside_the_budget_account(self):
        import repro.core.avis as avis_module
        import repro.engine.grid as grid_module
        from repro.core import session as session_module

        budget = session_module.BudgetAccount(total_units=1.0)
        assert budget.simulation_cost == session_module.DEFAULT_SIMULATION_COST
        assert budget.labelling_cost == session_module.DEFAULT_LABELLING_COST
        assert (
            grid_module.DEFAULT_SIMULATION_COST
            is session_module.DEFAULT_SIMULATION_COST
        )
        assert (
            grid_module.DEFAULT_LABELLING_COST
            is session_module.DEFAULT_LABELLING_COST
        )
        assert not hasattr(avis_module, "DEFAULT_SIMULATION_COST")
        assert not hasattr(avis_module, "DEFAULT_LABELLING_COST")

    def test_depth_first_batches_follow_enumeration_order(self, waypoint_avis):
        from repro.core.session import BudgetAccount, ExplorationSession

        session = ExplorationSession(
            runner=TestRunner(waypoint_avis.config),
            budget=BudgetAccount(total_units=100.0),
            profiling_run=waypoint_avis.profiling_results[0],
        )
        strategy = DepthFirstSearch()
        first = strategy.propose_batch(session, 3)
        second = strategy.propose_batch(session, 3)
        expected = []
        for scenario in DepthFirstSearch.enumerate_scenarios(
            session.sensor_ids, strategy._times(session)
        ):
            if not scenario.is_empty and scenario not in expected:
                expected.append(scenario)
            if len(expected) >= 6:
                break
        assert first + second == expected


class TestSequentialEquivalence:
    """The engine's batched path must match the strategies' own
    sequential explore() loops -- scenarios, budget trajectory, and all."""

    def _sequential_reference(self, avis, strategy, budget_units):
        from repro.core.session import BudgetAccount, ExplorationSession
        from repro.sensors.suite import iris_sensor_suite

        session = ExplorationSession(
            runner=TestRunner(avis.config, monitor=avis.monitor),
            budget=BudgetAccount(total_units=budget_units),
            profiling_run=avis.profiling_results[0],
            suite=iris_sensor_suite(noise_seed=avis.config.noise_seed),
        )
        strategy.explore(session)
        return session

    @pytest.mark.parametrize("budget", [3.0, 5.0])
    def test_stratified_bfi_batched_matches_sequential(
        self, short_auto_config, budget
    ):
        # The label/simulate interleaving makes StratifiedBFI the
        # sensitive case: labelling ahead of the simulations must not
        # shift where the budget runs out.
        avis = Avis(short_auto_config, profiling_runs=2, budget_units=budget)
        avis.profile()
        batched = avis.check(strategy=StratifiedBFI())
        reference = self._sequential_reference(avis, StratifiedBFI(), budget)
        assert batched.simulations == len(reference.results)
        assert [r.scenario for r in batched.results] == [
            r.scenario for r in reference.results
        ]
        assert batched.budget_spent == pytest.approx(
            reference.budget.spent_units
        )
        assert batched.labels == reference.budget.labels

    def test_strategy_reuse_across_campaigns_restarts(self, waypoint_avis):
        # A strategy instance reused for a second campaign must restart
        # its enumeration, not resume the first campaign's cursor.
        strategy = DepthFirstSearch()
        first = waypoint_avis.check(strategy=strategy, budget_units=2)
        second = waypoint_avis.check(strategy=strategy, budget_units=2)
        assert [r.scenario for r in first.results] == [
            r.scenario for r in second.results
        ]


class TestResultCache:
    def _scenario(self, time=2.0):
        return FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), time)])

    def test_keys_are_content_addressed(self, short_auto_config):
        key_a = scenario_key(short_auto_config, "auto", self._scenario())
        key_b = scenario_key(short_auto_config, "auto", self._scenario())
        key_c = scenario_key(short_auto_config, "auto", self._scenario(time=3.0))
        key_d = scenario_key(
            short_auto_config.with_noise_seed(99), "auto", self._scenario()
        )
        assert key_a == key_b
        assert key_a != key_c
        assert key_a != key_d
        assert "noise_seed=0" in config_fingerprint(short_auto_config, "auto")

    def test_workload_fingerprint_includes_parameters(self):
        from repro.core.config import RunConfiguration
        from repro.engine.cache import workload_fingerprint
        from repro.workloads.builtin import AutoWorkload

        def cfg(altitude):
            return RunConfiguration(
                workload_factory=lambda: AutoWorkload(altitude=altitude)
            )

        # Same display name, different parameters: must not collide.
        assert workload_fingerprint(cfg(8.0)) != workload_fingerprint(cfg(12.0))
        assert workload_fingerprint(cfg(8.0)) == workload_fingerprint(cfg(8.0))

    def test_default_environment_renders_no_environment_term(self):
        # Only a custom environment is keyed (tests/test_key_coverage.py
        # flies one); the default keeps every historical key format.
        from repro.core.config import RunConfiguration

        assert "environment=" not in config_fingerprint(RunConfiguration(), "auto")

    def test_hit_and_miss_counters(self, short_auto_config):
        cache = ResultCache()
        key = scenario_key(short_auto_config, "auto", self._scenario())
        assert cache.get(key) is None
        assert (cache.stats["hits"], cache.stats["misses"], cache.stats["entries"]) == (0, 1, 0)
        result = make_run_result()
        cache.put(key, result)
        assert key in cache
        assert cache.get(key) is result
        assert (cache.stats["hits"], cache.stats["misses"], cache.stats["entries"]) == (1, 1, 1)

    def test_memory_only_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache()
        cache.put("key-a", make_run_result())
        assert cache.get("key-a") is not None
        assert "key-a" in cache
        assert list(tmp_path.iterdir()) == []

    def test_disk_round_trip(self, tmp_path, short_auto_config):
        key = scenario_key(short_auto_config, "auto", self._scenario())
        writer = ResultCache(directory=str(tmp_path))
        writer.put(key, make_run_result(triggered_bugs=["APM-0001"]))
        reader = ResultCache(directory=str(tmp_path))
        restored = reader.get(key)
        assert restored is not None
        assert restored.triggered_bugs == ["APM-0001"]
        assert reader.hits == 1

    def test_fingerprints_ignore_the_hash_seed(self):
        # Registry descriptors carry frozensets and workloads may carry
        # sets: a key that followed their iteration order would differ
        # between interpreters, so pool workers, grid shards and later
        # runs would miss each other's cache entries (and a differing
        # registry stamp purges shared directories).
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        runs = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", _FINGERPRINT_SCRIPT],
                    env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                    capture_output=True, text=True, check=True,
                ).stdout
            )
            for seed in ("1", "2")
        ]
        assert runs[0] == runs[1]
        # The set-valued attribute reaches the key, so the set branch of
        # the canonical rendering is exercised.
        assert "'tags': " in runs[0]["workload"]


#: Prints every cache key and fingerprint the engine derives, as one
#: JSON object; ``test_fingerprints_ignore_the_hash_seed`` runs it under
#: two ``PYTHONHASHSEED`` values.
_FINGERPRINT_SCRIPT = """
import json
from types import SimpleNamespace

from repro.core.config import RunConfiguration
from repro.engine.api import CampaignRequest, build_cells
from repro.engine.cache import (
    bug_registry_stamp, campaign_fingerprint, config_fingerprint,
    scenario_key, workload_fingerprint,
)
from repro.engine.grid import cell_fingerprint
from repro.hinj.faults import (
    FaultScenario, FaultSpec, TrafficFaultKind, TrafficFaultSpec,
)
from repro.sensors.base import SensorId, SensorType
from repro.workloads.builtin import AutoWorkload


class TaggedAuto(AutoWorkload):
    def __init__(self):
        super().__init__()
        self.tags = {
            "accelerometer", "barometer", "battery", "compass",
            "fence", "gps", "gyroscope", "rally",
        }


tagged = RunConfiguration(workload_factory=TaggedAuto)
monitor = SimpleNamespace(separation_threshold_m=2.5)
values = {
    "stamp": bug_registry_stamp(),
    "workload": workload_fingerprint(tagged),
    "campaign": campaign_fingerprint(tagged, monitor),
}
values["config"] = config_fingerprint(tagged, values["campaign"])
gps, compass = SensorId(SensorType.GPS, 0), SensorId(SensorType.COMPASS, 1)
scenarios = [
    FaultScenario([FaultSpec(gps, 2.0), FaultSpec(compass, 4.0, duration_s=3.0)]),
    FaultScenario([
        FaultSpec(gps.for_vehicle(1), 6.0, duration_s=2.5),
        TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 10.0, duration_s=5.0),
        TrafficFaultSpec(1, TrafficFaultKind.DELAY, 3.0, extra_delay_s=0.4),
    ]),
]
cells = build_cells(CampaignRequest(
    firmwares=("ardupilot", "px4"), workloads=("auto", "waypoint"),
    strategies=("random",), budgets=(5.0,),
)) + build_cells(CampaignRequest(
    workloads=("multi-pad",), strategies=("avis",), budgets=(5.0,),
    vehicles=("firmware=ardupilot", "firmware=px4,airframe=solo"),
    traffic_faults=True, stepper="adaptive",
))
for cell in cells:
    values["cell " + cell.cell_id] = cell_fingerprint(cell)
    workload_name = campaign_fingerprint(cell.config, monitor)
    for index, scenario in enumerate(scenarios):
        values[f"scenario {cell.cell_id} {index}"] = scenario_key(
            cell.config, workload_name, scenario
        )
print(json.dumps(values, sort_keys=True))
"""


class TestCacheGc:
    """A cache directory is never pruned by size; only a stale stamp purges it."""

    def _fill(self, cache, count):
        for index in range(count):
            cache.put(f"key{index:02d}", make_run_result())

    def _disk_entries(self, tmp_path):
        return sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".pkl")

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        self._fill(cache, 5)
        assert len(self._disk_entries(tmp_path)) == 5

    def test_size_limit_options_are_gone(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(directory=str(tmp_path), max_entries=3)
        with pytest.raises(TypeError):
            ResultCache(directory=str(tmp_path), max_bytes=1 << 20)

    def test_stats_carry_no_eviction_counter(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        self._fill(cache, 2)
        assert cache.get("key00") is not None
        assert cache.stats == {
            "hits": 1, "misses": 0, "entries": 2,
            "invalidated": 0, "corrupt": 0,
        }

    def test_hits_leave_entries_untouched(self, tmp_path):
        # Nothing orders entries by use any more: a hit only reads.
        writer = ResultCache(directory=str(tmp_path))
        self._fill(writer, 1)
        entry = tmp_path / "key00.pkl"
        os.utime(entry, (1_000_000, 1_000_000))
        before = entry.stat()
        reader = ResultCache(directory=str(tmp_path))
        assert reader.get("key00") is not None
        assert reader.get("key00") is not None
        after = entry.stat()
        assert (after.st_mtime, after.st_size) == (before.st_mtime, before.st_size)

    def test_version_stamp_invalidates_stale_entries(self, tmp_path):
        from repro.engine.cache import bug_registry_stamp

        writer = ResultCache(directory=str(tmp_path))
        self._fill(writer, 2)
        stamp_file = tmp_path / ResultCache.VERSION_FILENAME
        assert stamp_file.read_text().strip() == bug_registry_stamp()

        # Same registry: entries survive a reopen.
        same = ResultCache(directory=str(tmp_path))
        assert same.invalidated == 0
        assert len(self._disk_entries(tmp_path)) == 2

        # A stamp from a different bug registry: entries are discarded.
        stamp_file.write_text("0" * 64 + "\n")
        reopened = ResultCache(directory=str(tmp_path))
        assert reopened.invalidated == 2
        assert self._disk_entries(tmp_path) == []
        assert stamp_file.read_text().strip() == bug_registry_stamp()

    def test_unstamped_directory_with_entries_is_purged(self, tmp_path):
        # A pre-stamp cache directory gives no way to tell which bug
        # registry produced its entries; they must not be served.
        writer = ResultCache(directory=str(tmp_path))
        self._fill(writer, 2)
        (tmp_path / ResultCache.VERSION_FILENAME).unlink()
        reopened = ResultCache(directory=str(tmp_path))
        assert reopened.invalidated == 2
        assert self._disk_entries(tmp_path) == []


class TestCacheWriterSafety:
    """A shared cache directory must survive crashed and racing writers."""

    def test_orphan_tmp_spools_are_swept_at_open(self, tmp_path):
        writer = ResultCache(directory=str(tmp_path))
        writer.put("key-a", make_run_result())
        # A writer that died mid-put leaks only its mkstemp spool.
        (tmp_path / "spoolXYZ.tmp").write_bytes(b"half a pickle")
        reopened = ResultCache(directory=str(tmp_path))
        assert not list(tmp_path.glob("*.tmp"))
        assert reopened.get("key-a") is not None

    def test_torn_entry_is_a_miss_and_unlinked(self, tmp_path):
        writer = ResultCache(directory=str(tmp_path))
        writer.put("key-a", make_run_result())
        # Simulate a torn .pkl from a crashed non-atomic writer (an
        # older engine): truncate the entry mid-pickle.
        entry = tmp_path / "key-a.pkl"
        entry.write_bytes(entry.read_bytes()[:10])
        reader = ResultCache(directory=str(tmp_path))
        assert reader.get("key-a") is None
        assert reader.corrupt == 1
        assert reader.stats["corrupt"] == 1
        assert not entry.exists()  # phantom entry unlinked...
        assert "key-a" not in reader
        # ...and the next put rewrites it cleanly.
        reader.put("key-a", make_run_result())
        assert reader.get("key-a") is not None

    def test_vanished_directory_keeps_puts_in_memory(self, tmp_path):
        import shutil

        directory = tmp_path / "cache"
        cache = ResultCache(directory=str(directory))
        shutil.rmtree(directory)
        # The cache is an optimisation: losing its directory mid-campaign
        # downgrades puts to memory-only instead of failing the run.
        cache.put("key-a", make_run_result())
        assert cache.get("key-a") is not None
        assert cache.hits == 1
        assert not directory.exists()

    def test_concurrent_writers_never_tear_entries(self, tmp_path):
        import threading

        result = make_run_result(triggered_bugs=["APM-0001"])
        errors = []

        def hammer(worker):
            try:
                cache = ResultCache(directory=str(tmp_path))
                for round_index in range(20):
                    cache.put("contested", result)
                    got = cache.get(f"probe-{worker}-{round_index}")
                    assert got is None
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not list(tmp_path.glob("*.tmp"))
        # A fresh reader sees one intact winning write, not a torn file.
        reader = ResultCache(directory=str(tmp_path))
        restored = reader.get("contested")
        assert restored is not None
        assert restored.triggered_bugs == ["APM-0001"]
        assert reader.corrupt == 0


class TestCacheFabric:
    def test_two_clients_share_one_store(self, tmp_path):
        # Two stores over one directory: each serves the other's puts
        # from disk.
        first = ResultCache(directory=str(tmp_path))
        second = ResultCache(directory=str(tmp_path))
        first.put("key-a", make_run_result(triggered_bugs=["APM-0001"]))
        restored = second.get("key-a")
        assert restored is not None
        assert restored.triggered_bugs == ["APM-0001"]
        second.put("key-b", make_run_result())
        assert first.get("key-b") is not None
        assert (first.hits, first.misses) == (1, 0)
        assert (second.hits, second.misses) == (1, 0)

    def test_stamp_mismatch_refuses_the_store(self, tmp_path):
        writer = ResultCache(directory=str(tmp_path))
        writer.put("key-a", make_run_result())
        # Entries written under another bug registry are never served.
        (tmp_path / ResultCache.VERSION_FILENAME).write_text("0" * 64 + "\n")
        reader = ResultCache(directory=str(tmp_path))
        assert reader.invalidated == 1
        assert reader.get("key-a") is None
        assert reader.misses == 1
        # The directory is re-stamped and shared again from here on.
        reader.put("key-b", make_run_result())
        assert ResultCache(directory=str(tmp_path)).get("key-b") is not None

    def test_lost_directory_degrades_to_misses(self, tmp_path):
        import shutil

        directory = tmp_path / "shared"
        writer = ResultCache(directory=str(directory))
        reader = ResultCache(directory=str(directory))
        writer.put("key-a", make_run_result())
        shutil.rmtree(directory)
        # A lost shared directory is a miss, never an error; what a store
        # already holds in memory still hits.
        assert reader.get("key-a") is None
        assert reader.misses == 1
        assert writer.get("key-a") is not None
        reader.put("key-b", make_run_result())
        assert reader.get("key-b") is not None

    def test_campaign_runs_through_shared_cache(self, short_auto_config, tmp_path):
        # Two orchestrators, each on its own store over one directory:
        # the second campaign is served entirely from the first's puts.
        def campaign():
            cache = ResultCache(directory=str(tmp_path))
            avis = Avis(short_auto_config, profiling_runs=2,
                        budget_units=3.0, cache=cache)
            avis.profile()
            return avis.check(strategy=RandomInjection(rng_seed=3)), cache

        cold, _ = campaign()
        warm, warm_cache = campaign()
        assert warm.simulations == cold.simulations
        assert [r.scenario for r in warm.results] == [
            r.scenario for r in cold.results
        ]
        assert warm_cache.hits >= warm.simulations
        assert warm_cache.misses == 0


class TestBackendSpecs:
    def test_specs_resolve_to_backends(self):
        assert isinstance(parse_backend_spec("serial"), SerialBackend)
        pool = parse_backend_spec("pool:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.max_workers == 3
        assert isinstance(parse_backend_spec("pool"), ProcessPoolBackend)

    @pytest.mark.parametrize(
        "spec",
        ["", "turbo", "pool:0", "pool:x", "remote:", "remote:0",
         "serial:2", "remote:host", "remote", "remote:2",
         "remote:127.0.0.1:7801"],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    @pytest.mark.parametrize(
        "spec", ["remote", "remote:2", "remote:127.0.0.1:7801"]
    )
    def test_remote_specs_point_to_pool(self, spec):
        with pytest.raises(ValueError, match="pool:N"):
            parse_backend_spec(spec)

    def test_avis_takes_only_spec_strings(self, short_auto_config):
        for backend in (SerialBackend(), None, 4):
            with pytest.raises(TypeError, match="spec string"):
                Avis(short_auto_config, backend=backend)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            avis = Avis(short_auto_config, backend="pool:2")
        assert isinstance(avis.engine.backend, ProcessPoolBackend)


class TestBackendDeterminism:
    def _campaign(self, config, backend, rng_seed=5, budget=5.0):
        avis = Avis(config, profiling_runs=2, budget_units=budget, backend=backend)
        avis.profile()
        campaign = avis.check(strategy=RandomInjection(rng_seed=rng_seed))
        return campaign, sorted(avis.cache.keys())

    def test_process_pool_matches_serial(self, short_auto_config):
        serial, serial_keys = self._campaign(short_auto_config, "serial")
        pooled, pooled_keys = self._campaign(short_auto_config, "pool:4")
        assert pooled.simulations == serial.simulations
        assert pooled.unsafe_scenario_count == serial.unsafe_scenario_count
        assert pooled.triggered_bug_ids == serial.triggered_bug_ids
        # Not just the counts: the same scenarios, in the same order,
        # with the same per-run verdicts.
        assert [r.scenario for r in pooled.results] == [
            r.scenario for r in serial.results
        ]
        assert [len(r.unsafe_conditions) for r in pooled.results] == [
            len(r.unsafe_conditions) for r in serial.results
        ]
        # Identical content-addressed cache keys: the runs really were
        # the same (config, scenario) pure functions on both backends.
        assert pooled_keys == serial_keys

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_strategy_matches_serial_on_the_pool(
        self, name, waypoint_avis
    ):
        def campaign(backend):
            avis = Avis(waypoint_avis.config, profiling_runs=2, backend=backend)
            avis.calibrate(waypoint_avis.profiling_results)
            try:
                result = avis.check(strategy=STRATEGIES[name](), budget_units=3)
            finally:
                avis.engine.backend.close()
            return result, sorted(avis.cache.keys())

        serial, serial_keys = campaign("serial")
        pooled, pooled_keys = campaign("pool:2")
        assert pooled.simulations == serial.simulations
        assert pooled.labels == serial.labels
        assert pooled.budget_spent == pytest.approx(serial.budget_spent)
        assert pooled.unsafe_scenario_count == serial.unsafe_scenario_count
        assert [r.scenario for r in pooled.results] == [
            r.scenario for r in serial.results
        ]
        assert [r.summary() for r in pooled.results] == [
            r.summary() for r in serial.results
        ]
        assert pooled_keys == serial_keys

    def test_daemonic_pool_degrades_to_serial(self, monkeypatch,
                                              short_auto_config):
        class FakeDaemon:
            daemon = True

        def no_fork(*args, **kwargs):
            raise AssertionError("a daemonic pool must not spawn children")

        scenarios = [
            FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), start)])
            for start in (2.0, 3.5)
        ]
        expected = SerialBackend().run_scenarios(
            TestRunner(short_auto_config), scenarios
        )
        # Grid shards are daemonic pool workers, which cannot fork.
        monkeypatch.setattr(multiprocessing, "current_process", FakeDaemon)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        results = parse_backend_spec("pool:2").run_scenarios(
            TestRunner(short_auto_config), scenarios
        )
        assert [r.scenario for r in results] == [
            r.scenario for r in expected
        ]
        assert [r.summary() for r in results] == [
            r.summary() for r in expected
        ]

    def test_cache_replays_identical_campaign(self, short_auto_config):
        avis = Avis(short_auto_config, profiling_runs=2, budget_units=4.0)
        avis.profile()
        cold = avis.check(strategy=RandomInjection(rng_seed=3))
        assert avis.cache.misses >= cold.simulations
        warm = avis.check(strategy=RandomInjection(rng_seed=3))
        assert avis.cache.hits >= warm.simulations
        # A hit still charges budget, so the campaigns are identical.
        assert warm.simulations == cold.simulations
        assert warm.unsafe_scenario_count == cold.unsafe_scenario_count
        assert [r.scenario for r in warm.results] == [
            r.scenario for r in cold.results
        ]


def _gps_scenarios(starts):
    return [
        FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), start)])
        for start in starts
    ]


class TestProcessPoolBackend:
    def test_results_arrive_in_submission_order(self, short_auto_config):
        scenarios = _gps_scenarios((2.0, 3.0, 4.0, 5.0))
        expected = SerialBackend().run_scenarios(
            TestRunner(short_auto_config), scenarios
        )
        backend = ProcessPoolBackend(max_workers=2)
        try:
            results = backend.run_scenarios(TestRunner(short_auto_config), scenarios)
        finally:
            backend.close()
        assert [r.scenario for r in results] == scenarios
        assert [r.summary() for r in results] == [
            r.summary() for r in expected
        ]

    def test_pool_persists_while_the_context_is_unchanged(
        self, short_auto_config
    ):
        scenarios = _gps_scenarios((2.0, 3.0))
        runner = TestRunner(short_auto_config)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            backend.run_scenarios(runner, scenarios)
            first = backend._pool
            backend.run_scenarios(runner, scenarios)
            assert backend._pool is first
            # Workers inherit the runner at fork: a new runner, or a new
            # monitor on the same runner, needs a new pool.
            backend.run_scenarios(TestRunner(short_auto_config), scenarios)
            second = backend._pool
            assert second is not None and second is not first
            runner.monitor = InvariantMonitor([runner.run()])
            backend.run_scenarios(runner, scenarios)
            assert backend._pool is not None
            assert backend._pool is not second
        finally:
            backend.close()
        assert backend._pool is None

    @pytest.mark.parametrize("reason", ["no-fork", "one-worker"])
    def test_pool_without_workers_runs_serially(
        self, reason, monkeypatch, short_auto_config
    ):
        from repro.engine import backends

        def no_fork(*args, **kwargs):
            raise AssertionError("a serial fallback must not fork")

        scenarios = _gps_scenarios((2.0, 3.5))
        expected = SerialBackend().run_scenarios(
            TestRunner(short_auto_config), scenarios
        )
        if reason == "no-fork":
            monkeypatch.setattr(backends, "_fork_available", lambda: False)
            backend = parse_backend_spec("pool:2")
        else:
            backend = parse_backend_spec("pool:1")
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        results = backend.run_scenarios(TestRunner(short_auto_config), scenarios)
        assert [r.summary() for r in results] == [
            r.summary() for r in expected
        ]

    def test_empty_batch_returns_no_results(self, short_auto_config):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.run_scenarios(TestRunner(short_auto_config), []) == []
        assert backend._pool is None


class TestRemovedRemoteFabric:
    def test_remote_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.remote")

    @pytest.mark.parametrize("module, name", [
        ("repro", "RemoteBackend"),
        ("repro.engine", "RemoteBackend"),
        ("repro.engine.backends", "RemoteBackend"),
        ("repro.engine.cli", "build_worker_parser"),
        ("repro.engine.cli", "add_matrix_arguments"),
    ])
    def test_removed_names_are_gone(self, module, name):
        import importlib

        imported = importlib.import_module(module)
        assert not hasattr(imported, name)
        assert name not in getattr(imported, "__all__", ())


class TestCampaignGrid:
    def test_grid_runs_matrix_and_summarises(self, short_auto_config, tmp_path):
        cells = [
            GridCell(
                cell_id=f"ardupilot/auto/random-{seed}",
                config=short_auto_config,
                strategy_factory=lambda seed=seed: RandomInjection(rng_seed=seed),
                budget_units=2.0,
            )
            for seed in (1, 2)
        ]
        seen = []
        outcome = CampaignGrid(cells, max_workers=1).run(
            on_progress=lambda cell_id, campaign: seen.append(cell_id)
        )
        assert sorted(seen) == sorted(c.cell_id for c in cells)
        assert list(outcome.results) == [c.cell_id for c in cells]
        summary = outcome.summary()
        json.dumps(summary)  # must be JSON-serialisable
        assert summary["totals"]["campaigns"] == 2
        assert all(c["simulations"] <= 2 for c in summary["campaigns"])

    def test_grid_rejects_duplicate_cell_ids(self, short_auto_config):
        cell = GridCell(
            cell_id="dup", config=short_auto_config, strategy_factory=RandomInjection
        )
        with pytest.raises(ValueError):
            CampaignGrid([cell, cell])


class TestGridResume:
    def _cells(self, config, seeds):
        return [
            GridCell(
                cell_id=f"ardupilot/auto/random-{seed}",
                config=config,
                strategy_factory=lambda seed=seed: RandomInjection(rng_seed=seed),
                budget_units=2.0,
            )
            for seed in seeds
        ]

    def test_stream_and_resume_skip_completed_cells(self, short_auto_config, tmp_path):
        from repro.engine.grid import load_completed_cells

        stream = tmp_path / "grid.jsonl"
        first = CampaignGrid(
            self._cells(short_auto_config, (1, 2)), max_workers=1
        ).run(stream_path=str(stream))
        assert len(first.results) == 2
        completed = load_completed_cells(str(stream))
        assert sorted(completed) == sorted(first.results)

        # Resume with one extra cell: only the new cell executes, the
        # summary still covers the whole matrix.
        executed = []
        outcome = CampaignGrid(
            self._cells(short_auto_config, (1, 2, 3)), max_workers=1
        ).run(
            on_progress=lambda cell_id, campaign: executed.append(cell_id),
            stream_path=str(stream),
            completed=completed,
        )
        assert executed == ["ardupilot/auto/random-3"]
        assert list(outcome.results) == ["ardupilot/auto/random-3"]
        summary = outcome.summary()
        assert summary["totals"]["campaigns"] == 3
        assert summary["totals"]["resumed"] == 2
        json.dumps(summary)  # must stay JSON-serialisable
        # The stream now records all three cells for a later resume.
        assert len(load_completed_cells(str(stream))) == 3

    def test_resume_reruns_cells_with_changed_configuration(
        self, short_auto_config, short_waypoint_config, tmp_path
    ):
        from repro.engine.grid import load_completed_cells

        stream = tmp_path / "grid.jsonl"
        CampaignGrid(self._cells(short_auto_config, (1,)), max_workers=1).run(
            stream_path=str(stream)
        )
        completed = load_completed_cells(str(stream))
        # Same cell id, different configuration: the streamed result must
        # not be trusted and the cell reruns.
        changed = self._cells(short_waypoint_config, (1,))
        outcome = CampaignGrid(changed, max_workers=1).run(completed=completed)
        assert list(outcome.results) == [changed[0].cell_id]
        assert outcome.resumed_cells == 0

    def test_load_completed_cells_skips_corrupt_lines(self, tmp_path):
        from repro.engine.grid import load_completed_cells

        stream = tmp_path / "grid.jsonl"
        stream.write_text(
            '{"cell": "good", "simulations": 1}\n'
            '{"cell": "truncated", "simulati\n'
            "\n"
        )
        completed = load_completed_cells(str(stream))
        assert sorted(completed) == ["good"]

    def test_resume_after_torn_line_keeps_new_records(
        self, short_auto_config, tmp_path
    ):
        from repro.engine.grid import load_completed_cells

        stream = tmp_path / "grid.jsonl"
        CampaignGrid(self._cells(short_auto_config, (1,)), max_workers=1).run(
            stream_path=str(stream)
        )
        # A kill mid-write leaves the next cell's record without its
        # newline; the resumed record must not be glued onto it.
        with open(stream, "a", encoding="utf-8") as handle:
            handle.write('{"cell": "ardupilot/auto/random-2", "simula')
        cells = self._cells(short_auto_config, (1, 2))
        outcome = CampaignGrid(cells, max_workers=1).run(
            stream_path=str(stream),
            completed=load_completed_cells(str(stream)),
        )
        assert list(outcome.results) == ["ardupilot/auto/random-2"]
        assert sorted(load_completed_cells(str(stream))) == sorted(
            cell.cell_id for cell in cells
        )

    @pytest.mark.parametrize("before, after", [
        ("", ""),
        ('{"cell": "a"}\n', '{"cell": "a"}\n'),
        ('{"cell": "a", "simula', '{"cell": "a", "simula\n'),
    ])
    def test_open_stream_ends_a_torn_last_line(self, tmp_path, before, after):
        from repro.engine.grid import _open_stream

        path = tmp_path / "grid.jsonl"
        path.write_text(before)
        _open_stream(str(path)).close()
        assert path.read_text() == after

    def test_cli_reports_resumed_cells(self, tmp_path, capsys):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, main, request_from_args

        argv = ["--strategy", "random", "--workload", "auto",
                "--budget", "2", "3", "--workers", "1"]
        first = build_cells(request_from_args(build_parser().parse_args(argv)))[0]
        stream = tmp_path / "stream.jsonl"
        stream.write_text(json.dumps({
            "cell": first.cell_id, "fingerprint": cell_fingerprint(first),
            "simulations": 2, "unsafe_scenarios": 0,
        }) + "\n")
        out = tmp_path / "grid.json"
        assert main(argv + ["--resume", str(stream), "--json", str(out)]) == 0
        assert f"1 campaigns across 1 worker(s) (1 resumed from {stream})" in (
            capsys.readouterr().err
        )
        assert json.loads(out.read_text())["totals"]["resumed"] == 1

    def test_sigkilled_grid_resumes_to_the_uninterrupted_stream(self, tmp_path):
        """A grid killed with SIGKILL resumes without rerunning a cell,
        and its stream ends up record-for-record the uninterrupted one."""
        from repro.engine.grid import load_completed_cells

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src}
        flags = [
            sys.executable, "-m", "repro.engine",
            "--workload", "auto", "--strategy", "random",
            "--budget", "2", "3", "4", "--workers", "1", "--quiet",
        ]
        cell_ids = [f"ardupilot/auto/random/{budget}" for budget in (2, 3, 4)]

        def records(path):
            parsed = []
            for line in path.read_text().splitlines():
                try:
                    parsed.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # the fragment the kill tore
            return parsed

        def comparable(record):
            return {
                key: value for key, value in record.items()
                if key not in ("wall_seconds", "wall_s")
            }

        stream = tmp_path / "killed.jsonl"
        process = subprocess.Popen(
            flags + ["--stream", str(stream)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300.0
            while not stream.exists() or "\n" not in stream.read_text():
                assert process.poll() is None, "grid exited before streaming"
                assert time.monotonic() < deadline, "no cell streamed in time"
                time.sleep(0.01)
            process.send_signal(signal.SIGKILL)
        finally:
            process.kill()
            process.wait(timeout=30.0)
        assert process.returncode == -signal.SIGKILL
        before = list(load_completed_cells(str(stream)))
        assert 1 <= len(before) < len(cell_ids)

        summary_path = tmp_path / "resumed.json"
        subprocess.run(
            flags + ["--stream", str(stream), "--resume", str(stream),
                     "--json", str(summary_path)],
            env=env, check=True, timeout=600.0,
        )
        summary = json.loads(summary_path.read_text())
        assert summary["totals"]["resumed"] == len(before)
        resumed = records(stream)
        # Exactly the missing cells were appended, each once.
        assert [record["cell"] for record in resumed[:len(before)]] == before
        assert sorted(record["cell"] for record in resumed) == cell_ids

        reference = tmp_path / "uninterrupted.jsonl"
        subprocess.run(
            flags + ["--stream", str(reference)],
            env=env, check=True, timeout=600.0,
            stdout=subprocess.DEVNULL,
        )
        expected = {record["cell"]: comparable(record)
                    for record in records(reference)}
        assert sorted(expected) == cell_ids
        for record in resumed:
            assert comparable(record) == expected[record["cell"]]

    def test_cli_resume_round_trip(self, tmp_path):
        from repro.engine.cli import main

        stream = tmp_path / "stream.jsonl"
        out = tmp_path / "grid.json"
        args = [
            "--strategy", "random",
            "--workload", "auto",
            "--budget", "2",
            "--workers", "1",
            "--quiet",
            "--stream", str(stream),
            "--json", str(out),
        ]
        assert main(args) == 0
        assert stream.exists()
        # Second invocation resumes everything: no new work, same totals.
        args_resume = [
            "--strategy", "random",
            "--workload", "auto",
            "--budget", "2",
            "--workers", "1",
            "--quiet",
            "--resume", str(stream),
            "--json", str(out),
        ]
        assert main(args_resume) == 0
        summary = json.loads(out.read_text())
        assert summary["totals"]["campaigns"] == 1
        assert summary["totals"]["resumed"] == 1


class TestGridProfileShare:
    """The cells of one serial grid run share each context's profiles."""

    TABLE3 = ("avis", "stratified-bfi", "bfi", "random")

    @pytest.fixture
    def golden_flights(self, monkeypatch):

        flights = []
        original = TestRunner.run

        def run(runner, *args, **kwargs):
            result = original(runner, *args, **kwargs)
            if result.is_golden:
                flights.append(result)
            return result

        monkeypatch.setattr(TestRunner, "run", run)
        return flights

    def _cell(self, config, strategy="random", budget=2.0, profiling_runs=2,
              cell_id=None):
        from repro.engine.api import STRATEGIES

        return GridCell(
            cell_id=cell_id or f"{strategy}/{budget:g}",
            config=config,
            strategy_factory=STRATEGIES[strategy],
            budget_units=budget,
            profiling_runs=profiling_runs,
        )

    @staticmethod
    def _records(path):
        records = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            del record["wall_seconds"], record["wall_s"]
            records[record["cell"]] = record
        return records

    def test_table3_grid_flies_each_profile_once(
        self, short_auto_config, golden_flights, tmp_path
    ):
        cells = [self._cell(short_auto_config, name) for name in self.TABLE3]
        stream = tmp_path / "grid.jsonl"
        shared = CampaignGrid(cells, max_workers=1).run(stream_path=str(stream))
        assert len(golden_flights) == 2
        records = self._records(stream)

        for cell in cells:
            alone_stream = tmp_path / f"{cell.strategy_factory.__name__}.jsonl"
            alone = CampaignGrid([cell], max_workers=1).run(
                stream_path=str(alone_stream)
            )
            assert alone.results[cell.cell_id] == shared.results[cell.cell_id]
            assert self._records(alone_stream) == {cell.cell_id: records[cell.cell_id]}
        assert len(golden_flights) == 2 + 2 * len(cells)

    @pytest.mark.parametrize("change", [
        "noise_seed", "altitude", "box_side", "firmware", "stepper",
        "profiling_runs",
    ])
    def test_cells_of_other_contexts_fly_their_own(
        self, short_waypoint_config, golden_flights, change
    ):
        from repro.firmware.px4 import Px4Firmware
        from repro.workloads.builtin import WaypointFenceWorkload

        def geometry(altitude=10.0, box_side=10.0):
            return lambda: WaypointFenceWorkload(
                altitude=altitude, box_side=box_side, init_wait_ms=1000.0
            )

        config, runs = short_waypoint_config, 2
        if change == "noise_seed":
            config = config.with_noise_seed(7)
        elif change == "altitude":
            config = dataclasses.replace(
                config, workload_factory=geometry(altitude=12.0)
            )
        elif change == "box_side":
            config = dataclasses.replace(
                config, workload_factory=geometry(box_side=12.0)
            )
        elif change == "firmware":
            config = dataclasses.replace(config, firmware_class=Px4Firmware)
        elif change == "stepper":
            config = dataclasses.replace(config, stepper="adaptive")
        else:
            runs = 3
        cells = [
            self._cell(short_waypoint_config, "random", budget=0.0, cell_id="base"),
            self._cell(config, "bfi", budget=0.0, profiling_runs=runs, cell_id="other"),
        ]
        CampaignGrid(cells, max_workers=1).run()
        assert len(golden_flights) == 2 + runs

    def test_strategy_and_budget_do_not_split_a_context(
        self, short_auto_config, golden_flights
    ):
        cells = [
            self._cell(short_auto_config, "random", budget=0.0),
            self._cell(short_auto_config, "bfi", budget=1.0),
            self._cell(short_auto_config, "avis", budget=0.0),
        ]
        CampaignGrid(cells, max_workers=1).run()
        assert len(golden_flights) == 2

    def test_every_cell_calibrates_its_own_monitor(
        self, short_auto_config, monkeypatch
    ):
        seen = []
        original = Avis.check

        def check(avis, *args, **kwargs):
            seen.append((avis.monitor, avis.profiling_results))
            return original(avis, *args, **kwargs)

        monkeypatch.setattr(Avis, "check", check)
        cells = [
            self._cell(short_auto_config, name, budget=0.0) for name in self.TABLE3
        ]
        CampaignGrid(cells, max_workers=1).run()
        monitors = [monitor for monitor, _ in seen]
        assert len({id(monitor) for monitor in monitors}) == len(cells)
        # The runs themselves are shared, read-only.
        first = seen[0][1]
        for _, profiles in seen[1:]:
            assert all(a is b for a, b in zip(profiles, first))

    def test_a_failing_context_still_raises(self, short_auto_config):
        from repro.core.avis import ProfilingError
        from repro.workloads.framework import Target

        class ImpossibleWorkload(Target):
            def test(self):
                self.wait_altitude(1000.0, timeout_s=2.0)
                self.pass_test()

        impossible = dataclasses.replace(
            short_auto_config, workload_factory=ImpossibleWorkload,
            max_sim_time_s=20.0,
        )
        cells = [
            self._cell(short_auto_config, "random", budget=0.0, cell_id="fine"),
            self._cell(impossible, "random", budget=0.0, cell_id="bad-1"),
            self._cell(impossible, "bfi", budget=0.0, cell_id="bad-2"),
        ]
        with pytest.raises(ProfilingError):
            CampaignGrid(cells, max_workers=1).run()

    def test_observed_cells_count_flown_and_reused_runs(self, short_auto_config):
        cells = [
            self._cell(short_auto_config, name, budget=0.0) for name in self.TABLE3
        ]
        for cell in cells:
            cell.observe = True
        outcome = CampaignGrid(cells, max_workers=1).run()
        counters = [
            outcome.cell_summaries[cell.cell_id]["metrics"]["counters"]
            for cell in cells
        ]
        assert counters[0].get("avis.profile.flown") == 2
        assert "avis.profile.reused" not in counters[0]
        for later in counters[1:]:
            assert later.get("avis.profile.reused") == 2
            assert "avis.profile.flown" not in later

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the forked grid pool needs the fork start method",
    )
    def test_pool_grid_matches_the_serial_grid(self, short_auto_config):
        def summaries(workers):
            cells = [self._cell(short_auto_config, name) for name in self.TABLE3]
            outcome = CampaignGrid(cells, max_workers=workers).run()
            return {
                cell_id: {
                    key: value for key, value in record.items()
                    if key not in ("wall_seconds", "wall_s")
                }
                for cell_id, record in outcome.cell_summaries.items()
            }

        assert summaries(2) == summaries(1)


class TestEngineCli:
    @pytest.mark.parametrize(
        "subcommand", ["serve", "submit", "status", "worker"]
    )
    def test_removed_subcommands_are_unknown_arguments(self, subcommand, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([subcommand])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {subcommand}" in capsys.readouterr().err

    def test_stats_json_is_an_unknown_argument(self, capsys):
        """``--stats-json`` is gone since 12.0: the ``--json`` summary
        carries every cell's engine/cache stats and their totals."""
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--strategy", "random", "--budget", "5",
                  "--stats-json", "x.json", "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --stats-json x.json" in err
        assert "Traceback" not in err

    def test_mixed_classic_and_fleet_grids_build(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(
            ["--workload", "auto", "convoy", "--fleet-size", "2"]
        )
        cells = build_cells(request_from_args(args))
        by_workload = {cell.cell_id: cell.config.fleet_size for cell in cells}
        assert all(
            size == (2 if "convoy" in cell_id else 1)
            for cell_id, size in by_workload.items()
        )

    def test_fleet_size_without_fleet_workload_rejected(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(["--workload", "auto", "--fleet-size", "3"])
        with pytest.raises(ValueError):
            build_cells(request_from_args(args))

    def test_oversize_fixed_fleet_rejected(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(["--workload", "convoy", "--fleet-size", "4"])
        with pytest.raises(ValueError):
            build_cells(request_from_args(args))

    def test_per_dequeue_shapes_avis_cells(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(
            ["--strategy", "avis", "random", "--per-dequeue", "4"]
        )
        cells = {cell.cell_id: cell for cell in build_cells(request_from_args(args))}
        avis_id = next(cell_id for cell_id in cells if "avis" in cell_id)
        assert "avis@pd4" in avis_id
        strategy = cells[avis_id].strategy_factory()
        assert strategy.last_search is None
        assert strategy._per_dequeue == 4
        # 0 disables the bound (exact Algorithm 1).
        args = build_parser().parse_args(
            ["--strategy", "avis", "--per-dequeue", "0"]
        )
        strategy = build_cells(request_from_args(args))[0].strategy_factory()
        assert strategy._per_dequeue is None

    def test_per_dequeue_without_avis_rejected(self):
        from repro.engine.api import build_cells
        from repro.engine.cli import build_parser, request_from_args

        args = build_parser().parse_args(
            ["--strategy", "random", "--per-dequeue", "4"]
        )
        with pytest.raises(ValueError):
            build_cells(request_from_args(args))
        args = build_parser().parse_args(
            ["--strategy", "avis", "--per-dequeue", "-1"]
        )
        with pytest.raises(ValueError):
            build_cells(request_from_args(args))

    @pytest.mark.parametrize("argv", [
        ["--strategy", "random", "--budget", "1", "1", "--quiet"],
        ["--strategy", "random", "random", "--budget", "1", "--quiet"],
    ])
    def test_repeated_axis_values_are_usage_errors(self, argv, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--workload", "auto"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "cell 'ardupilot/auto/random/1' appears twice" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("budget", ["-1", "nan", "inf"])
    def test_bad_budgets_are_usage_errors(self, budget, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--strategy", "random", "--budget", budget, "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--budget must be a finite number >= 0" in errors[0]

    @pytest.mark.parametrize("argv,message", [
        (["--altitude", "-5"], "--altitude must be a finite number > 0"),
        (["--altitude", "0"], "--altitude must be a finite number > 0"),
        (["--altitude", "inf"], "--altitude must be a finite number > 0"),
        (["--altitude", "nan"], "--altitude must be a finite number > 0"),
        (["--box-side", "nan"], "--box-side must be a finite number > 0"),
        (["--box-side", "-10"], "--box-side must be a finite number > 0"),
        (["--workers", "0"], "--workers must be >= 1"),
        (["--workers", "-2"], "--workers must be >= 1"),
    ])
    def test_bad_scalars_are_usage_errors(self, argv, message, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--strategy", "random", "--budget", "1", "--quiet", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert message in errors[0]

    def test_zero_budget_runs_zero_simulations(self, capsys):
        from repro.engine.cli import main

        assert main(["--strategy", "random", "--workload", "auto",
                     "--budget", "0", "--workers", "1", "--quiet"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["totals"]["campaigns"] == 1
        assert summary["campaigns"][0]["simulations"] == 0

    def test_remote_backend_is_a_usage_error(self, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--backend", "remote:127.0.0.1:7900", "--strategy",
                  "random", "--budget", "5", "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "pool:N" in errors[0]

    @pytest.mark.parametrize("flag", [
        "--json", "--stream", "--trace", "--metrics-json",
    ])
    def test_output_paths_fail_fast_or_report_write_errors(
        self, flag, tmp_path, capsys
    ):
        from repro.engine.cli import main

        argv = ["--strategy", "random", "--workload", "auto", "--budget", "1",
                "--workers", "1", "--quiet"]
        # A path under a missing directory is refused before any campaign.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, str(tmp_path / "missing" / "out.json")])
        assert exit_info.value.code == 2
        assert f"{flag}: directory does not exist" in capsys.readouterr().err
        if flag == "--stream":
            return  # no writer branch: the grid appends as cells finish
        # A target that cannot be opened is reported after the run, and
        # the finished campaigns are not lost.
        target = tmp_path / "a-directory"
        target.mkdir()
        assert main(argv + [flag, str(target)]) == 1
        captured = capsys.readouterr()
        assert f"could not write {target}" in captured.err
        if flag == "--json":
            assert json.loads(captured.out)["totals"]["campaigns"] == 1

    def test_cli_writes_json_summary(self, tmp_path):
        from repro.engine.cli import main

        out = tmp_path / "grid.json"
        code = main(
            [
                "--strategy", "random",
                "--workload", "auto",
                "--budget", "2",
                "--workers", "1",
                "--quiet",
                "--json", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["totals"]["campaigns"] == 1
        campaign = summary["campaigns"][0]
        assert campaign["strategy"] == "random"
        assert campaign["simulations"] <= 2
