"""Tests for the observability layer (metrics, tracing, flight recorder).

The load-bearing property is *inertness*: with no runtime installed the
instrumented code paths must behave bit-identically to the seed, and
with a runtime installed the campaign outcomes must still not change --
observability only reads clocks and state the run already produced.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.avis import Avis
from repro.core.runner import TestRunner
from repro.core.strategies import RandomInjection
from repro.core.strategies.avis_strategy import AvisStrategy
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_S,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import Observability, observed
from repro.obs.trace import Tracer, load_trace_events, validate_chrome_trace
from repro.sensors.base import SensorId, SensorType

GPS = SensorId(SensorType.GPS, 0)


class FakeClock:
    """A deterministic clock advancing one second per reading."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_key_by_name_and_sorted_labels(self):
        registry = MetricsRegistry()
        registry.counter("engine.rounds", strategy="avis", backend="serial").inc()
        # Same labels in a different keyword order: same instrument.
        registry.counter("engine.rounds", backend="serial", strategy="avis").inc(2)
        registry.counter("engine.rounds", strategy="random", backend="serial").inc()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "engine.rounds{backend=serial,strategy=avis}": 3.0,
            "engine.rounds{backend=serial,strategy=random}": 1.0,
        }

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)
        with pytest.raises(ValueError):
            registry.counter("")

    def test_gauges_keep_the_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sabre.queue_depth")
        gauge.set(7)
        gauge.set(3)
        gauge.inc(-1)
        assert registry.snapshot()["gauges"] == {"sabre.queue_depth": 2}

    def test_histogram_buckets_observations_against_fixed_boundaries(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 5.0):
            histogram.observe(value)
        rendered = registry.snapshot()["histograms"]["t"]
        assert rendered["count"] == 4
        assert rendered["sum"] == pytest.approx(5.65)
        assert rendered["buckets"] == {"le=0.1": 2, "le=1": 1, "le=+Inf": 1}

    def test_histogram_reregistration_with_other_boundaries_raises(self):
        registry = MetricsRegistry()
        registry.histogram("t", buckets=(0.1, 1.0)).observe(0.2)
        # Same boundaries: fine, same instrument.
        assert registry.histogram("t", buckets=(0.1, 1.0)).count == 1
        with pytest.raises(ValueError):
            registry.histogram("t", buckets=(0.5, 1.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("empty", buckets=())

    def test_snapshot_json_is_deterministic(self):
        def populate(registry):
            registry.counter("cache.hits").inc(3)
            registry.gauge("depth", worker="a").set(2)
            registry.histogram("lat", buckets=DEFAULT_TIME_BUCKETS_S).observe(0.2)

        first, second = MetricsRegistry(), MetricsRegistry()
        populate(first)
        populate(second)
        assert first.to_json() == second.to_json()

    def test_merge_snapshots_adds_counters_and_keeps_gauge_maxima(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("cache.hits").inc(2)
        b.counter("cache.hits").inc(3)
        b.counter("cache.misses").inc(1)
        a.gauge("depth").set(5)
        b.gauge("depth").set(3)
        a.histogram("t", buckets=(1.0,)).observe(0.5)
        b.histogram("t", buckets=(1.0,)).observe(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"cache.hits": 5.0, "cache.misses": 1.0}
        assert merged["gauges"] == {"depth": 5}
        assert merged["histograms"]["t"]["count"] == 2
        assert merged["histograms"]["t"]["buckets"] == {"le=1": 1, "le=+Inf": 1}

    def test_merge_snapshots_rejects_mismatched_boundaries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("t", buckets=(1.0,)).observe(0.5)
        b.histogram("t", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_with_injected_clock(self):
        tracer = Tracer(clock=FakeClock(), pid=0)
        with tracer.span("outer", kind="round"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events  # completion order: inner first
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        # Clock readings: outer start=0, inner start=1, inner end=2,
        # outer end=3 -- the spans nest by construction.
        assert inner["ts_s"] == 1.0 and inner["dur_s"] == 1.0
        assert outer["ts_s"] == 0.0 and outer["dur_s"] == 3.0
        assert outer["args"] == {"kind": "round"}

    def test_traces_are_deterministic_under_a_fake_clock(self):
        def record(tracer):
            with tracer.span("simulate", scenario="gps fails"):
                tracer.instant("fault", sensor="gps0")

        first = Tracer(clock=FakeClock(), pid=0)
        second = Tracer(clock=FakeClock(), pid=0)
        record(first)
        record(second)
        assert first.events == second.events
        assert json.dumps(first.chrome_trace(), sort_keys=True) == json.dumps(
            second.chrome_trace(), sort_keys=True
        )

    def test_span_args_can_be_attached_mid_span(self):
        tracer = Tracer(clock=FakeClock(), pid=0)
        with tracer.span("simulate") as args:
            args["unsafe"] = True
        assert tracer.events[0]["args"] == {"unsafe": True}

    def test_non_scalar_args_become_reprs(self):
        tracer = Tracer(clock=FakeClock(), pid=0)
        tracer.instant("x", value=[1, 2])
        assert tracer.events[0]["args"] == {"value": "[1, 2]"}

    def test_chrome_trace_round_trip(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), pid=0)
        with tracer.span("outer"):
            tracer.instant("mark")
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        events = load_trace_events(str(path))
        assert [event["name"] for event in events] == ["mark", "outer"]
        # Chrome timestamps are microseconds.
        assert events[1]["ts"] == 0.0 and events[1]["dur"] == 2e6

    def test_jsonl_round_trip_converts_to_chrome_schema(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), pid=0)
        with tracer.span("outer"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        events = load_trace_events(str(path))
        assert events[0]["name"] == "outer"
        assert events[0]["ts"] == 0.0 and events[0]["dur"] == 1e6
        assert validate_chrome_trace({"traceEvents": events}) == []

    def test_validate_chrome_trace_reports_problems(self):
        assert validate_chrome_trace([]) == ["trace document is not a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Q", "ts": "soon", "pid": 0, "tid": 0}]}
        )
        assert any("missing name" in problem for problem in problems)
        assert any("unexpected phase" in problem for problem in problems)
        assert any("ts is not numeric" in problem for problem in problems)

    def test_extend_adopts_foreign_events(self):
        worker = Tracer(clock=FakeClock(), pid=7)
        with worker.span("cell"):
            pass
        parent = Tracer(clock=FakeClock(), pid=0)
        parent.extend(worker.events)
        assert parent.events[0]["name"] == "cell"
        assert parent.events[0]["pid"] == 7


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_keeps_the_newest_events(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(5):
            recorder.record(float(index), "mode.transition", detail=f"e{index}")
        assert recorder.dropped == 3
        log = recorder.seal()
        assert [event.detail for event in log.events] == ["e3", "e4"]
        assert log.dropped == 3 and log.capacity == 2

    def test_phase_seconds_accumulate(self):
        recorder = FlightRecorder()
        recorder.add_phase("physics", 0.25)
        recorder.add_phase("physics", 0.5)
        recorder.add_phase("provision", 1.0)
        log = recorder.seal()
        assert log.phase_seconds == {"physics": 0.75, "provision": 1.0}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_log_renders_to_json_safely(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record(1.5, "fault.injected", detail="gps0", vehicle="v0")
        rendered = recorder.seal().as_dict()
        assert rendered["events"] == [
            {"time_s": 1.5, "kind": "fault.injected", "detail": "gps0",
             "vehicle": "v0"}
        ]
        json.dumps(rendered)  # must be serialisable as-is


# ----------------------------------------------------------------------
# Runtime switch
# ----------------------------------------------------------------------
class TestRuntime:
    def test_inert_by_default(self):
        assert obs_runtime.current() is None

    def test_observed_restores_the_previous_runtime(self):
        outer = Observability()
        with observed(outer):
            assert obs_runtime.current() is outer
            with pytest.raises(RuntimeError):
                with observed(Observability()) as inner:
                    assert obs_runtime.current() is inner
                    raise RuntimeError("boom")
            # The raise inside the inner block must not leak it.
            assert obs_runtime.current() is outer
        assert obs_runtime.current() is None

    def test_install_and_uninstall(self):
        obs = Observability(recorder_capacity=8)
        try:
            assert obs_runtime.install(obs) is obs
            assert obs_runtime.current() is obs
            assert obs.new_recorder().capacity == 8
        finally:
            obs_runtime.uninstall()
        assert obs_runtime.current() is None


# ----------------------------------------------------------------------
# Bit-identity: tracing must never change campaign outcomes
# ----------------------------------------------------------------------
def _campaign_digest(campaign):
    """Everything outcome-shaped about a campaign, flight logs excluded
    (their presence is exactly what tracing adds)."""
    return (
        campaign.simulations,
        campaign.labels,
        campaign.budget_spent,
        [
            (
                result.scenario.describe(),
                result.found_unsafe_condition,
                result.duration_s,
                result.steps,
                tuple(sorted(result.triggered_bugs)),
            )
            for result in campaign.results
        ],
    )


def _run_campaign_and_keys(config, strategy_factory, budget, backend="serial"):
    """The campaign result plus the sorted keys it left in its cache."""
    avis = Avis(config, profiling_runs=1, budget_units=budget, backend=backend)
    try:
        return avis.check(strategy=strategy_factory()), sorted(avis.cache.keys())
    finally:
        # Spec-built backends are engine-owned, so the engine closes them.
        avis.engine.close()


def _run_campaign(config, strategy_factory, budget, backend="serial"):
    return _run_campaign_and_keys(config, strategy_factory, budget, backend)[0]


class TestBitIdentity:
    def test_serial_campaign_identical_with_tracing_on_and_off(
        self, short_auto_config
    ):
        plain, plain_keys = _run_campaign_and_keys(
            short_auto_config, RandomInjection, 3.0
        )
        with observed(Observability()):
            traced, traced_keys = _run_campaign_and_keys(
                short_auto_config, RandomInjection, 3.0
            )
        assert _campaign_digest(traced) == _campaign_digest(plain)
        # Tracing never enters a cache key.
        assert plain_keys and traced_keys == plain_keys
        # Tracing-off runs carry no flight log at all; traced runs do.
        assert all(result.flight_log is None for result in plain.results)
        assert all(result.flight_log is not None for result in traced.results)

    def test_pool_matches_serial_with_tracing_on(self, short_auto_config):
        serial = _run_campaign(short_auto_config, RandomInjection, 3.0)
        with observed(Observability()):
            pooled = _run_campaign(
                short_auto_config, RandomInjection, 3.0, backend="pool:2"
            )
        assert _campaign_digest(pooled) == _campaign_digest(serial)

    def test_sabre_batched_campaign_identical_with_tracing_on(
        self, short_auto_config
    ):
        plain = _run_campaign(short_auto_config, AvisStrategy, 4.0)
        with observed(Observability()) as obs:
            traced = _run_campaign(short_auto_config, AvisStrategy, 4.0)
        assert _campaign_digest(traced) == _campaign_digest(plain)
        # The SABRE counters recorded something while tracing was on.
        counters = obs.metrics.snapshot()["counters"]
        assert any(key.startswith("sabre.proposed") for key in counters)

    def test_sabre_report_untouched_by_instrumentation(self, short_auto_config):
        plain_strategy = AvisStrategy()
        traced_strategy = AvisStrategy()
        _run_campaign(short_auto_config, lambda: plain_strategy, 4.0)
        with observed(Observability()):
            _run_campaign(short_auto_config, lambda: traced_strategy, 4.0)
        assert dataclasses.astuple(traced_strategy.last_search.report) == (
            dataclasses.astuple(plain_strategy.last_search.report)
        )


# ----------------------------------------------------------------------
# Flight log content
# ----------------------------------------------------------------------
class TestFlightLogContent:
    def test_injected_fault_and_phases_are_recorded(self, short_auto_config):
        scenario = FaultScenario([FaultSpec(GPS, 5.0)])
        with observed(Observability()) as obs:
            result = TestRunner(short_auto_config).run(scenario)
        log = result.flight_log
        assert log is not None
        kinds = {event.kind for event in log.events}
        assert "fault.injected" in kinds
        times = [event.time_s for event in log.events]
        assert times == sorted(times)
        for phase in ("provision", "sensor_read", "control", "physics",
                      "monitor"):
            assert log.phase_seconds.get(phase, 0.0) > 0.0
        # The per-run phases also land in the metrics registry...
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("run.phase_seconds{phase=physics}", 0.0) > 0.0
        # ...as do the flight-event kind counts.
        assert counters.get(
            "run.flight_events{kind=fault.injected}", 0.0
        ) >= 1.0

    def test_untraced_runs_carry_no_flight_log(self, golden_auto_run):
        assert golden_auto_run.flight_log is None


# ----------------------------------------------------------------------
# CLI round trips
# ----------------------------------------------------------------------
class TestObservabilityCli:
    CAMPAIGN_ARGS = [
        "--strategy", "random",
        "--workload", "auto",
        "--budget", "2",
        "--workers", "1",
        "--quiet",
    ]

    def test_engine_cli_emits_valid_trace_metrics_and_stats(self, tmp_path):
        from repro.engine.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        out = tmp_path / "grid.json"
        code = main(
            self.CAMPAIGN_ARGS
            + ["--trace", str(trace), "--metrics-json", str(metrics),
               "--json", str(out)]
        )
        assert code == 0
        # The trace is schema-valid Chrome JSON covering the campaign.
        document = json.loads(trace.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert {"grid.run", "avis.check", "simulate"} <= names
        # The metrics snapshot covers the engine, cache and backend.
        counters = json.loads(metrics.read_text())["counters"]
        assert any(key.startswith("engine.rounds") for key in counters)
        assert any(key.startswith("cache.") for key in counters)
        assert any(key.startswith("backend.worker_tasks") for key in counters)
        # The grid summary carries the per-cell engine/cache counters
        # plus totals, and records wall_s and metrics per campaign.
        summary = json.loads(out.read_text())
        assert summary["totals"]["engine"]["rounds"] >= 1
        assert summary["totals"]["engine"]["executed"] >= 1
        assert "misses" in summary["totals"]["cache"]
        (campaign,) = summary["campaigns"]
        assert campaign["engine"]["proposed"] >= 1
        assert "misses" in campaign["cache"]
        assert campaign["wall_s"] > 0.0
        assert "counters" in campaign["metrics"]

    def test_report_cli_round_trip(self, tmp_path, capsys):
        from repro.engine.cli import main as engine_main
        from repro.obs.report import main as report_main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert engine_main(
            self.CAMPAIGN_ARGS
            + ["--trace", str(trace), "--metrics-json", str(metrics),
               "--json", str(tmp_path / "grid.json")]
        ) == 0
        capsys.readouterr()
        code = report_main(
            ["report", str(trace), "--metrics", str(metrics),
             "--validate", "--json"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.startswith(f"valid: {trace}")
        report = json.loads(captured.split("\n", 1)[1])
        assert report["trace"]["events"] > 0
        span_names = [row["name"] for row in report["trace"]["spans"]]
        assert "simulate" in span_names
        assert report["metrics"]["cache"]["misses"] >= 1
        assert any(
            key.startswith("run.phase_seconds")
            for key in report["metrics"]["phase_seconds"]
        )

    def test_report_cli_rejects_invalid_traces(self, tmp_path, capsys):
        from repro.obs.report import main as report_main

        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert report_main(["report", str(bad), "--validate"]) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_resume_ignores_the_new_stream_fields(self, tmp_path):
        from repro.engine.cli import main

        stream = tmp_path / "stream.jsonl"
        out = tmp_path / "grid.json"
        # A traced run streams records that carry wall_s and metrics.
        assert main(
            self.CAMPAIGN_ARGS
            + ["--stream", str(stream), "--trace", str(tmp_path / "t.json"),
               "--metrics-json", str(tmp_path / "m.json"),
               "--json", str(out)]
        ) == 0
        record = json.loads(stream.read_text().strip())
        assert "wall_s" in record and "metrics" in record
        # An untraced invocation resumes from the enriched stream...
        assert main(
            self.CAMPAIGN_ARGS + ["--resume", str(stream), "--json", str(out)]
        ) == 0
        assert json.loads(out.read_text())["totals"]["resumed"] == 1
        # ...and a traced invocation resumes from a *pre-observability*
        # stream (simulated by stripping the new fields from the record).
        for key in ("wall_s", "metrics", "engine", "cache"):
            record.pop(key, None)
        old_stream = tmp_path / "old_stream.jsonl"
        old_stream.write_text(json.dumps(record) + "\n")
        assert main(
            self.CAMPAIGN_ARGS
            + ["--resume", str(old_stream),
               "--trace", str(tmp_path / "t2.json"), "--json", str(out)]
        ) == 0
        assert json.loads(out.read_text())["totals"]["resumed"] == 1


# ----------------------------------------------------------------------
# check_regression reporting (satellite: explain passing axes too)
# ----------------------------------------------------------------------
def _load_check_regression():
    """Load the gate script the same way tests/test_perf_gate.py does."""
    if "check_regression" in sys.modules:
        return sys.modules["check_regression"]
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_regression"] = module
    spec.loader.exec_module(module)
    return module


class TestCheckRegressionReporting:
    def _report(self, speedup=1.5, **rates):
        physics = {
            entry: {"reference_steps_per_calibration": rate}
            for entry, rate in rates.items()
        }
        return {
            "usable_cpus": 2,
            "speedup_workers2": speedup,
            "physics": physics,
        }

    def test_passing_axes_print_measured_vs_baseline(self):
        check_regression = _load_check_regression()

        failures, notes = check_regression.check_regression(
            self._report(fleet1=1000.0, fleet2=500.0),
            self._report(fleet1=900.0, fleet2=520.0),
        )
        assert failures == []
        passing = [note for note in notes if "above floor" in note]
        assert len(passing) == 2
        assert any(
            "physics.fleet1.reference_steps_per_calibration: measured 900 "
            "vs baseline 1000" in note
            for note in passing
        )
        assert any("speedup_workers2: 1.50x >= 1.00x floor" in n for n in notes)

    def test_every_failing_axis_is_reported(self):
        check_regression = _load_check_regression()

        failures, _ = check_regression.check_regression(
            self._report(fleet1=1000.0, fleet2=1000.0, fleet3=1000.0),
            self._report(speedup=0.5, fleet1=100.0, fleet2=1000.0, fleet3=100.0),
        )
        assert len(failures) == 3
        assert any(failure.startswith("physics.fleet1.") for failure in failures)
        assert any(failure.startswith("physics.fleet3.") for failure in failures)
        assert any(failure.startswith("speedup_workers2:") for failure in failures)
