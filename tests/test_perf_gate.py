"""Unit tests for the CI perf-regression gate (benchmarks/check_regression.py)
and the paired physics samples it gates (benchmarks/bench_engine_scaling.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_GATE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
check_regression_module = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression_module)
_spec.loader.exec_module(check_regression_module)

check_regression = check_regression_module.check_regression
main = check_regression_module.main

_BENCH_PATH = _GATE_PATH.parent / "bench_engine_scaling.py"
_bench_spec = importlib.util.spec_from_file_location(
    "bench_engine_scaling", _BENCH_PATH
)
bench_module = importlib.util.module_from_spec(_bench_spec)
_bench_spec.loader.exec_module(bench_module)


def report(cpus=1, speedup2=1.0, physics_rate=1000.0):
    return {
        "usable_cpus": cpus,
        "speedup_workers2": speedup2,
        "physics": {
            "steps": 1500,
            "pairs": 5,
            "fleet1": {"reference_steps_per_calibration": physics_rate},
            "fleet2": {
                "reference_steps_per_calibration": physics_rate * 0.6,
                "adaptive_steps_per_calibration": physics_rate * 1.5,
            },
        },
    }


class TestGate:
    def test_identical_reports_pass(self):
        failures, _ = check_regression(report(), report())
        assert failures == []

    def test_within_tolerance_passes(self):
        # Floor is 1000 / 1.25 = 800.
        failures, _ = check_regression(report(), report(physics_rate=850.0))
        assert failures == []

    def test_baseline_without_physics_axis_still_passes(self):
        # A baseline committed before an axis existed must not fail the
        # gate when the current report carries it.
        old_baseline = report()
        del old_baseline["physics"]
        failures, _ = check_regression(old_baseline, report())
        assert failures == []


class TestPairedCalibration:
    def test_raw_rates_are_not_gated(self):
        # The bench records each sample's rate times its own calibration
        # loop's seconds; the raw steps/s median beside it is for
        # reading only, so a slow runner's raw rates cannot fail it.
        baseline, current = report(), report()
        baseline["physics"]["fleet1"]["reference_steps_per_s"] = 1000.0
        current["physics"]["fleet1"]["reference_steps_per_s"] = 100.0
        failures, notes = check_regression(baseline, current)
        assert failures == []
        assert not any("_steps_per_s" in note for note in notes)

    def test_floors_are_not_rescaled(self):
        # The pairs already cancel machine speed: a top-level
        # calibration in either report does not move the floor.
        baseline = dict(report(), calibration_s=0.1)
        current = dict(report(physics_rate=550.0), calibration_s=0.2)
        failures, _ = check_regression(baseline, current)
        assert any(
            "physics.fleet1.reference_steps_per_calibration" in f for f in failures
        )


class TestPhysicsPairs:
    """The bench's physics axis, with both timers replaced by scripts."""

    def _measure(self, monkeypatch, calibrations, rates):
        calls = []
        calibrations, rates = iter(calibrations), iter(rates)

        def calibration_sample():
            calls.append("calibration")
            return next(calibrations)

        def steps_per_second(fleet_size, stepper):
            calls.append((fleet_size, stepper))
            return next(rates)

        monkeypatch.setattr(bench_module, "_calibration_sample", calibration_sample)
        monkeypatch.setattr(bench_module, "_steps_per_second", steps_per_second)
        return bench_module._measure_physics_axis(), calls

    def test_each_sample_follows_its_own_calibration(self, monkeypatch):
        cells = 3 * 2
        pairs = bench_module.PHYSICS_PAIRS
        _, calls = self._measure(
            monkeypatch, [1.0] * (1 + cells * pairs), [100.0] * (cells * pairs)
        )
        # One warm-up loop, then (calibration, sample) pairs round-robin
        # over the cells, ``PHYSICS_PAIRS`` rounds.
        assert calls[0] == "calibration"
        round_robin = [
            (fleet_size, stepper)
            for fleet_size in bench_module.PHYSICS_FLEET_SIZES
            for stepper in bench_module.STEPPERS
        ]
        expected = []
        for _ in range(pairs):
            for cell in round_robin:
                expected += ["calibration", cell]
        assert calls[1:] == expected

    def test_cells_record_the_median_paired_product(self, monkeypatch):
        cells = 3 * 2
        pairs = bench_module.PHYSICS_PAIRS
        assert pairs == 5
        # Round r slows the machine by factor[r]: calibration grows and
        # the rate shrinks with it, except one outlier pair per cell.
        factors = [1.0, 2.0, 1.5, 1.0, 3.0]
        calibrations, rates = [0.1], []
        for round_index, factor in enumerate(factors):
            for _ in range(cells):
                calibrations.append(0.1 * factor)
                rates.append(1000.0 / factor * (0.5 if round_index == 4 else 1.0))
        axis, _ = self._measure(monkeypatch, calibrations, rates)
        assert axis["pairs"] == pairs
        fleet1 = axis["fleet1"]
        # Products: 100, 100, 100, 100, 50 -> the median ignores the outlier.
        assert fleet1["reference_steps_per_calibration"] == pytest.approx(100.0)
        # Raw rates: 1000, 500, 666.7, 1000, 166.7 -> median 666.7.
        assert fleet1["reference_steps_per_s"] == pytest.approx(1000.0 / 1.5)


class TestSpeedupGating:
    def test_single_core_skips_speedup_assertions(self):
        failures, notes = check_regression(report(), report(cpus=1, speedup2=0.5))
        assert failures == []
        assert any("speedup assertions skipped" in note for note in notes)

    def test_multi_core_asserts_speedup_floor(self):
        failures, _ = check_regression(report(), report(cpus=4, speedup2=0.7))
        assert any("speedup_workers2" in failure for failure in failures)

    def test_multi_core_healthy_speedups_pass(self):
        failures, _ = check_regression(report(), report(cpus=4, speedup2=1.8))
        assert failures == []

    def test_missing_speedup_fails_even_on_one_core(self):
        # The bench always records the speedup; only the floor depends
        # on the core count.
        current = report(cpus=1)
        del current["speedup_workers2"]
        failures, _ = check_regression(report(), current)
        assert any("speedup_workers2" in f and "missing" in f for f in failures)


class TestPhysicsFloors:
    def test_physics_rate_regression_fails(self):
        failures, _ = check_regression(
            report(physics_rate=1000.0), report(physics_rate=500.0)
        )
        assert any(
            "physics.fleet1.reference_steps_per_calibration" in f for f in failures
        )

    def test_missing_physics_entry_fails(self):
        current = report()
        del current["physics"]["fleet2"]
        failures, _ = check_regression(report(), current)
        assert any("physics.fleet2" in f and "missing" in f for f in failures)

    def test_all_steppers_in_an_entry_are_gated(self):
        current = report()
        current["physics"]["fleet2"]["adaptive_steps_per_calibration"] = 100.0
        failures, _ = check_regression(report(), current)
        assert any(
            "physics.fleet2.adaptive_steps_per_calibration" in f for f in failures
        )


class TestCli:
    def test_main_passes_on_committed_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(report()))
        current.write_text(json.dumps(report(physics_rate=900.0)))
        assert main(["--baseline", str(baseline), "--current", str(current)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_main_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(report(physics_rate=1000.0)))
        current.write_text(json.dumps(report(physics_rate=500.0)))
        assert main(["--baseline", str(baseline), "--current", str(current)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_main_reports_unreadable_baseline(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(report()))
        code = main(
            ["--baseline", str(tmp_path / "missing.json"), "--current", str(current)]
        )
        assert code == 2

    def test_tolerance_flag_widens_the_gate(self, tmp_path):
        # 700: below the 25% floor (800), above the 75% one (571).
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(report(physics_rate=1000.0)))
        current.write_text(json.dumps(report(physics_rate=700.0)))
        args = ["--baseline", str(baseline), "--current", str(current)]
        assert main(args) == 1
        assert main(args + ["--tolerance", "0.75"]) == 0

    def test_committed_baseline_is_gate_clean(self):
        # The committed baseline must parse and pass the gate against
        # itself; comparing against a live BENCH_engine.json is CI's job
        # (a stale local artifact from another machine must not fail
        # plain `pytest`).
        repo_root = Path(__file__).resolve().parent.parent
        baseline = repo_root / "BENCH_baseline.json"
        assert baseline.exists(), "BENCH_baseline.json must be committed"
        assert main(["--current", str(baseline)]) == 0

    def test_committed_baseline_holds_only_the_gated_axes(self):
        # One writer, two axes: the pool timings and speedups, and
        # physics.  Per-simulation seconds live in perfbench.
        repo_root = Path(__file__).resolve().parent.parent
        baseline = json.loads((repo_root / "BENCH_baseline.json").read_text())
        axes = {key for key, value in baseline.items() if isinstance(value, dict)}
        assert axes == {"physics"}
