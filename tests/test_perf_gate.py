"""Unit tests for the CI perf-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import sys
from pathlib import Path

_GATE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
check_regression_module = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression_module)
_spec.loader.exec_module(check_regression_module)

check_regression = check_regression_module.check_regression
main = check_regression_module.main


def report(calibration=0.1, cpus=1, speedup2=1.0, physics_rate=1000.0):
    return {
        "usable_cpus": cpus,
        "calibration_s": calibration,
        "speedup_workers2": speedup2,
        "physics": {
            "steps": 1500,
            "fleet1": {"reference_steps_per_s": physics_rate},
            "fleet2": {
                "reference_steps_per_s": physics_rate * 0.6,
                "adaptive_steps_per_s": physics_rate * 1.5,
            },
        },
    }


class TestGate:
    def test_identical_reports_pass(self):
        failures, _ = check_regression(report(), report())
        assert failures == []

    def test_within_tolerance_passes(self):
        # Floor is 1000 / 1.25 = 800 steps/s.
        failures, _ = check_regression(report(), report(physics_rate=850.0))
        assert failures == []

    def test_baseline_without_physics_axis_still_passes(self):
        # A baseline committed before an axis existed must not fail the
        # gate when the current report carries it.
        old_baseline = report()
        del old_baseline["physics"]
        failures, _ = check_regression(old_baseline, report())
        assert failures == []


class TestCalibrationScaling:
    def test_slower_runner_is_not_flagged(self):
        # The current machine is 2x slower overall (calibration doubled):
        # halved rates are expected, not a regression.
        failures, notes = check_regression(
            report(calibration=0.1),
            report(calibration=0.2, physics_rate=500.0),
        )
        assert failures == []
        assert any("scaled by 2.00x" in note for note in notes)

    def test_faster_hardware_cannot_mask_a_regression(self):
        # Calibration halved (machine 2x faster) but the stepper got
        # barely faster: relative to the machine, that is a regression.
        failures, _ = check_regression(
            report(calibration=0.2, physics_rate=1000.0),
            report(calibration=0.1, physics_rate=1100.0),
        )
        assert any("physics.fleet1.reference_steps_per_s" in f for f in failures)


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
        assert any("physics.fleet1.reference_steps_per_s" in f for f in failures)

    def test_physics_rate_scales_with_calibration(self):
        # 2x slower machine: floor halves, so 550 steps/s against a
        # 1000 steps/s baseline still clears 1000 / 2 / 1.25 = 400.
        failures, _ = check_regression(
            report(physics_rate=1000.0, calibration=0.1),
            report(physics_rate=550.0, calibration=0.2),
        )
        assert not any("physics" in f for f in failures)

    def test_missing_physics_entry_fails(self):
        current = report()
        del current["physics"]["fleet2"]
        failures, _ = check_regression(report(), current)
        assert any("physics.fleet2" in f and "missing" in f for f in failures)

    def test_all_steppers_in_an_entry_are_gated(self):
        current = report()
        current["physics"]["fleet2"]["adaptive_steps_per_s"] = 100.0
        failures, _ = check_regression(report(), current)
        assert any("physics.fleet2.adaptive_steps_per_s" in f for f in failures)


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
        # 700 steps/s: below the 25% floor (800), above the 75% one (571).
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
