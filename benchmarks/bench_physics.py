"""Raw core-loop throughput: reference vs adaptive steppers.

The engine-scaling benchmark times whole campaigns; this one isolates
the inner simulation loop.  For each fleet size it builds a bare
:class:`SimulationHarness` (no faults, no monitor, workload never
bound) and steps it a fixed number of micro-steps under each stepper,
recording steps/sec:

* ``reference`` -- one micro-step per control period, the stepper every
  verdict is pinned to;
* ``adaptive`` -- the quiescence-skipping planner over the same physics
  core.  With no fault windows or mode changes the plan is maximally
  quiescent, so this row shows the stepper's ceiling: sensor reads and
  firmware updates amortised over the full stride.

Rates are merged into ``BENCH_engine.json`` as the ``physics`` axis
(read-modify-write, so ordering against bench_engine_scaling.py does
not matter) and gated by ``benchmarks/check_regression.py`` as
calibration-scaled floors: higher is better, so a rate falling below
``baseline / scale / (1 + tolerance)`` fails CI.
"""

import json
import time
from pathlib import Path

from repro.core.config import RunConfiguration
from repro.core.runner import SimulationHarness
from repro.firmware.ardupilot import ArduPilotFirmware

FLEET_SIZES = (1, 2, 3)
STEPPERS = ("reference", "adaptive")
WARMUP_STEPS = 50
MEASURED_STEPS = 1500
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _config(fleet_size: int, stepper: str) -> RunConfiguration:
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        fleet_size=fleet_size,
        stepper=stepper,
    )


def _steps_per_second(fleet_size: int, stepper: str) -> float:
    """Micro-steps per wall-second for one (fleet size, stepper) cell.

    The count passed to ``step`` is always in micro-steps, so the
    adaptive stepper advances exactly as much simulated time as the
    others -- its higher rate comes from fusing work across strides,
    not from doing less simulation.
    """
    harness = SimulationHarness(_config(fleet_size, stepper))
    harness.step(WARMUP_STEPS)
    started = time.perf_counter()
    harness.step(MEASURED_STEPS)
    elapsed = time.perf_counter() - started
    return MEASURED_STEPS / elapsed


def _measure_axis() -> dict:
    axis = {"steps": MEASURED_STEPS}
    for fleet_size in FLEET_SIZES:
        entry = {}
        for stepper in STEPPERS:
            entry[f"{stepper}_steps_per_s"] = _steps_per_second(fleet_size, stepper)
        axis[f"fleet{fleet_size}"] = entry
    return axis


def _merge_axis(axis: dict) -> None:
    """Fold the ``physics`` axis into BENCH_engine.json, keeping any
    axes another benchmark already wrote there."""
    report = {}
    if OUTPUT_PATH.exists():
        try:
            report = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            report = {}
    if not isinstance(report, dict):
        report = {}
    report["physics"] = axis
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def test_physics_throughput(benchmark, capsys):
    axis = benchmark.pedantic(_measure_axis, rounds=1, iterations=1)
    _merge_axis(axis)

    with capsys.disabled():
        print(f"\n\nStepper throughput ({MEASURED_STEPS} micro-steps per cell):")
        for fleet_size in FLEET_SIZES:
            entry = axis[f"fleet{fleet_size}"]
            reference = entry["reference_steps_per_s"]
            row = "  ".join(
                f"{stepper} {entry[f'{stepper}_steps_per_s']:>7.0f}/s"
                for stepper in STEPPERS
            )
            adaptive_gain = entry["adaptive_steps_per_s"] / reference
            print(f"  fleet {fleet_size}: {row}  (adaptive {adaptive_gain:.2f}x)")
        print(f"  merged into {OUTPUT_PATH}")

    # Sanity, not performance: every cell produced a finite rate.
    for fleet_size in FLEET_SIZES:
        for stepper in STEPPERS:
            assert axis[f"fleet{fleet_size}"][f"{stepper}_steps_per_s"] > 0
