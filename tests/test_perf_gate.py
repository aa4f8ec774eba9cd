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


def report(
    seconds=1.0,
    fleet2=2.0,
    traffic=2.5,
    burst=2.5,
    sabre=1.5,
    calibration=0.1,
    cpus=1,
    speedup2=1.0,
    sabre_speedup=1.0,
    adaptive_traffic=2.4,
    adaptive_burst=2.2,
    physics_rate=1000.0,
):
    return {
        "usable_cpus": cpus,
        "calibration_s": calibration,
        "seconds_per_simulation": seconds,
        "speedup_workers2": speedup2,
        "fleet_scaling": {
            "fleet2": {"seconds_per_simulation": fleet2},
        },
        "traffic": {
            "seconds_per_simulation": traffic,
            "seconds_per_simulation_adaptive": traffic / adaptive_traffic,
            "adaptive_speedup": adaptive_traffic,
        },
        "burst": {
            "seconds_per_simulation": burst,
            "seconds_per_simulation_adaptive": burst / adaptive_burst,
            "adaptive_speedup": adaptive_burst,
        },
        "sabre": {
            "seconds_per_simulation": sabre,
            "speedup_pool4": sabre_speedup,
        },
        "physics": {
            "fleet1": {"reference_steps_per_s": physics_rate},
            "fleet2": {
                "reference_steps_per_s": physics_rate * 0.6,
                "adaptive_steps_per_s": physics_rate * 1.5,
            },
        },
    }


class TestSecondsGate:
    def test_identical_reports_pass(self):
        failures, _ = check_regression(report(), report())
        assert failures == []

    def test_within_tolerance_passes(self):
        failures, _ = check_regression(report(seconds=1.0), report(seconds=1.2))
        assert failures == []

    def test_regression_beyond_tolerance_fails(self):
        failures, _ = check_regression(report(seconds=1.0), report(seconds=1.3))
        assert any("seconds_per_simulation" in failure for failure in failures)

    def test_fleet_axis_is_gated(self):
        failures, _ = check_regression(report(fleet2=1.0), report(fleet2=1.4))
        assert any("fleet_scaling.fleet2" in failure for failure in failures)

    def test_sabre_axis_is_gated(self):
        failures, _ = check_regression(report(sabre=1.0), report(sabre=1.4))
        assert any("sabre.seconds_per_simulation" in f for f in failures)

    def test_traffic_axis_is_gated(self):
        failures, _ = check_regression(report(traffic=1.0), report(traffic=1.4))
        assert any("traffic.seconds_per_simulation" in f for f in failures)

    def test_burst_axis_is_gated(self):
        failures, _ = check_regression(report(burst=1.0), report(burst=1.4))
        assert any("burst.seconds_per_simulation" in f for f in failures)

    def test_adaptive_seconds_are_gated_as_timing_axes(self):
        # seconds_per_simulation_adaptive regressing past tolerance
        # trips the gate even while the speedup ratio stays above 2x
        # (both steppers slowing down together is still a regression).
        slow = report(traffic=5.0)
        slow["traffic"]["seconds_per_simulation"] = report()["traffic"][
            "seconds_per_simulation"
        ]
        failures, _ = check_regression(report(), slow)
        assert any("traffic.seconds_per_simulation_adaptive" in f for f in failures)

    def test_baseline_without_burst_axis_still_passes(self):
        # Baselines committed before the burst axis existed must not
        # fail the gate when the current report carries the new field.
        old_baseline = report()
        del old_baseline["burst"]
        failures, _ = check_regression(old_baseline, report())
        assert failures == []

    def test_baseline_without_adaptive_or_physics_axes_still_passes(self):
        old_baseline = report()
        del old_baseline["physics"]
        del old_baseline["traffic"]["adaptive_speedup"]
        del old_baseline["traffic"]["seconds_per_simulation_adaptive"]
        failures, _ = check_regression(old_baseline, report())
        assert failures == []

    def test_missing_current_metric_fails(self):
        # An axis the baseline measures but the fresh report lacks is a
        # hard failure: a silently dropped benchmark would otherwise
        # read as a pass forever.
        current = report()
        del current["sabre"]
        failures, _ = check_regression(report(), current)
        assert any("sabre.seconds_per_simulation" in f for f in failures)
        assert any("missing from the current report" in f for f in failures)


class TestCalibrationScaling:
    def test_slower_runner_is_not_flagged(self):
        # The current machine is 2x slower overall (calibration doubled):
        # doubled campaign timings are expected, not a regression.
        failures, notes = check_regression(
            report(seconds=1.0, calibration=0.1),
            report(seconds=2.0, calibration=0.2, physics_rate=500.0),
        )
        assert failures == []
        assert any("scaled by 2.00x" in note for note in notes)

    def test_faster_hardware_cannot_mask_a_regression(self):
        # Calibration halved (machine 2x faster) but the campaign got
        # barely faster: relative to the machine, that is a regression.
        failures, _ = check_regression(
            report(seconds=1.0, calibration=0.2),
            report(seconds=0.9, calibration=0.1),
        )
        assert any("seconds_per_simulation" in failure for failure in failures)


class TestSpeedupGating:
    def test_single_core_skips_speedup_assertions(self):
        failures, notes = check_regression(
            report(), report(cpus=1, speedup2=0.5, sabre_speedup=0.5)
        )
        assert failures == []
        assert any("speedup assertions skipped" in note for note in notes)

    def test_multi_core_asserts_speedup_floor(self):
        failures, _ = check_regression(report(), report(cpus=4, speedup2=0.7))
        assert any("speedup_workers2" in failure for failure in failures)

    def test_multi_core_healthy_speedups_pass(self):
        failures, _ = check_regression(
            report(), report(cpus=4, speedup2=1.8, sabre_speedup=1.6)
        )
        assert failures == []


class TestAdaptiveFloors:
    def test_adaptive_speedup_below_the_floor_fails_even_on_one_core(self):
        # The adaptive floor compares two serial runs, so it is
        # asserted regardless of usable_cpus.
        failures, _ = check_regression(report(), report(cpus=1, adaptive_traffic=1.2))
        assert any("traffic.adaptive_speedup" in f for f in failures)
        assert any("1.20x is below the 1.50x floor" in f for f in failures)

    def test_burst_adaptive_floor_is_gated_too(self):
        failures, _ = check_regression(report(), report(adaptive_burst=1.4))
        assert any("burst.adaptive_speedup" in f for f in failures)

    def test_ratio_shrunk_by_a_faster_reference_stepper_passes(self):
        # Cheaper sensor reads speed up both steppers and shrink the
        # ratio below 2x; the absolute adaptive timing still improved.
        faster = report(traffic=1.6, burst=1.6, adaptive_traffic=1.9, adaptive_burst=1.9)
        failures, notes = check_regression(report(), faster)
        assert failures == []
        assert any("traffic.adaptive_speedup: 1.90x >= 1.50x" in n for n in notes)

    def test_adaptive_seconds_stay_gated_above_the_floor(self):
        # A ratio comfortably above the floor does not excuse an adaptive
        # stepper that got slower in absolute terms.
        slower = report(traffic=5.0, adaptive_traffic=3.0)
        failures, _ = check_regression(report(), slower)
        assert not any("adaptive_speedup" in f for f in failures)
        assert any("traffic.seconds_per_simulation_adaptive" in f for f in failures)

    def test_missing_adaptive_speedup_fails_when_baseline_has_it(self):
        current = report()
        del current["traffic"]["adaptive_speedup"]
        failures, _ = check_regression(report(), current)
        assert any(
            "traffic.adaptive_speedup" in f and "missing" in f for f in failures
        )

    def test_healthy_adaptive_speedups_pass(self):
        failures, notes = check_regression(
            report(), report(adaptive_traffic=2.3, adaptive_burst=2.1)
        )
        assert failures == []
        assert any("traffic.adaptive_speedup: 2.30x >= 1.50x" in n for n in notes)


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
            report(physics_rate=550.0, calibration=0.2, seconds=2.0),
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
        current.write_text(json.dumps(report(seconds=1.1)))
        assert main(["--baseline", str(baseline), "--current", str(current)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_main_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(report(seconds=1.0)))
        current.write_text(json.dumps(report(seconds=2.0)))
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
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps(report(seconds=1.0)))
        current.write_text(json.dumps(report(seconds=1.6)))
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
