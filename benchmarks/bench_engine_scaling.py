"""Engine microbenchmark: process-pool speedup and raw stepper throughput.

The one writer of ``BENCH_engine.json`` (next to the repository root),
which ``benchmarks/check_regression.py`` gates against the committed
``BENCH_baseline.json``.  It measures the two things the campaign
benchmark (``perfbench/``) does not:

* **Pool** -- a fixed, seeded 32-scenario campaign (the same scenarios,
  in the same order) executed through :class:`SerialBackend` and
  through :class:`ProcessPoolBackend` with 2 and 4 workers, with the
  backends asserted to agree on every per-scenario outcome (the
  determinism contract) before the speedups are recorded.  perfbench
  runs every workload serially, so this is the only pool measurement.
* **Physics** -- a bare :class:`SimulationHarness` (no faults, no
  monitor, workload never bound) stepped a fixed number of micro-steps
  at fleet sizes 1-3 under each stepper, recorded as steps/sec:
  ``reference`` (one micro-step per control period, the stepper every
  verdict is pinned to) and ``adaptive`` (the quiescence-skipping
  planner; with no fault windows or mode changes the plan is maximally
  quiescent, so this row is the stepper's ceiling).

Per-simulation and per-campaign seconds (single vehicle, convoy,
SABRE) are perfbench's workloads, not axes here; that the adaptive
stepper keeps the reference verdicts is a tier-1 test
(``tests/test_fast_core.py::TestAdaptiveRun``), not a timing.

The report also records ``calibration_s`` -- the wall-clock of a fixed
pure-python workload -- so the gate can scale the baseline's physics
floors to the speed of the machine actually running it.

Speedups are *asserted* only on machines with at least two usable cores
(a process pool cannot beat serial execution of CPU-bound simulations
on a single core, and CI containers are frequently single-core); on a
single core the measured numbers are annotated in the JSON and the
console instead.

Run with ``python -m pytest benchmarks/bench_engine_scaling.py -q``.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.core.config import RunConfiguration
from repro.core.runner import SimulationHarness
from repro.engine.backends import ProcessPoolBackend, SerialBackend
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.suite import iris_sensor_suite
from repro.workloads.builtin import AutoWorkload

SCENARIO_COUNT = 32
RNG_SEED = 17
PHYSICS_FLEET_SIZES = (1, 2, 3)
STEPPERS = ("reference", "adaptive")
WARMUP_STEPS = 50
MEASURED_STEPS = 1500
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _calibrate() -> float:
    """Wall-clock of a fixed pure-python workload (machine speed probe).

    The regression gate scales the committed baseline's rates by the
    ratio of this number across machines, so a slower CI runner does
    not read as a regression and a faster one does not mask one.
    """
    def spin() -> float:
        started = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        return time.perf_counter() - started

    spin()  # warm-up
    return min(spin() for _ in range(3))


def _config() -> RunConfiguration:
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=8.0, init_wait_ms=1000.0),
        max_sim_time_s=90.0,
    )


def _fixed_scenarios() -> list:
    """32 deterministic scenarios over the full sensor suite."""
    rng = random.Random(RNG_SEED)
    sensors = iris_sensor_suite().sensor_ids
    scenarios = []
    while len(scenarios) < SCENARIO_COUNT:
        count = rng.randint(1, 2)
        chosen = rng.sample(sensors, count)
        scenario = FaultScenario(
            FaultSpec(sensor_id, round(rng.uniform(0.0, 30.0), 2))
            for sensor_id in chosen
        )
        if scenario not in scenarios:
            scenarios.append(scenario)
    return scenarios


def _outcome_signature(results) -> list:
    return [
        (str(result.scenario), result.steps, len(result.collisions),
         tuple(result.triggered_bugs))
        for result in results
    ]


def _steps_per_second(fleet_size: int, stepper: str) -> float:
    """Micro-steps per wall-second for one (fleet size, stepper) cell.

    The count passed to ``step`` is always in micro-steps, so the
    adaptive stepper advances exactly as much simulated time as the
    reference one -- its higher rate comes from fusing work across
    strides, not from doing less simulation.
    """
    harness = SimulationHarness(
        RunConfiguration(
            firmware_class=ArduPilotFirmware, fleet_size=fleet_size, stepper=stepper
        )
    )
    harness.step(WARMUP_STEPS)
    started = time.perf_counter()
    harness.step(MEASURED_STEPS)
    return MEASURED_STEPS / (time.perf_counter() - started)


def _measure_physics_axis() -> dict:
    axis = {"steps": MEASURED_STEPS}
    for fleet_size in PHYSICS_FLEET_SIZES:
        axis[f"fleet{fleet_size}"] = {
            f"{stepper}_steps_per_s": _steps_per_second(fleet_size, stepper)
            for stepper in STEPPERS
        }
    return axis


def test_engine_scaling(benchmark, capsys):
    config = _config()
    scenarios = _fixed_scenarios()

    def measure():
        timings = {}
        signatures = {}
        for label, backend in (
            ("serial", SerialBackend()),
            ("workers2", ProcessPoolBackend(max_workers=2)),
            ("workers4", ProcessPoolBackend(max_workers=4)),
        ):
            started = time.perf_counter()
            results = backend.run_scenarios(config, None, scenarios)
            timings[label] = time.perf_counter() - started
            backend.close()
            signatures[label] = _outcome_signature(results)
        return timings, signatures

    timings, signatures = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Determinism: every backend produced identical per-scenario outcomes.
    assert signatures["workers2"] == signatures["serial"]
    assert signatures["workers4"] == signatures["serial"]

    physics = _measure_physics_axis()

    cpus = _usable_cpus()
    single_core = cpus < 2
    report = {
        "scenario_count": SCENARIO_COUNT,
        "usable_cpus": cpus,
        "calibration_s": _calibrate(),
        "serial_s": timings["serial"],
        "workers2_s": timings["workers2"],
        "workers4_s": timings["workers4"],
        "seconds_per_simulation": timings["serial"] / SCENARIO_COUNT,
        "speedup_workers2": timings["serial"] / timings["workers2"],
        "speedup_workers4": timings["serial"] / timings["workers4"],
        "speedup_note": (
            "single-core runner: speedups annotated, not asserted"
            if single_core
            else None
        ),
        "physics": physics,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    with capsys.disabled():
        print(f"\n\nEngine scaling ({SCENARIO_COUNT} scenarios, {cpus} cpu(s)):")
        print(f"  serial    : {report['serial_s']:.2f}s")
        print(f"  2 workers : {report['workers2_s']:.2f}s "
              f"({report['speedup_workers2']:.2f}x)")
        print(f"  4 workers : {report['workers4_s']:.2f}s "
              f"({report['speedup_workers4']:.2f}x)")
        if single_core:
            print(f"  note      : {report['speedup_note']}")
        print(f"Stepper throughput ({MEASURED_STEPS} micro-steps per cell):")
        for fleet_size in PHYSICS_FLEET_SIZES:
            entry = physics[f"fleet{fleet_size}"]
            row = "  ".join(
                f"{stepper} {entry[f'{stepper}_steps_per_s']:>7.0f}/s"
                for stepper in STEPPERS
            )
            gain = entry["adaptive_steps_per_s"] / entry["reference_steps_per_s"]
            print(f"  fleet {fleet_size}: {row}  (adaptive {gain:.2f}x)")
        print(f"  written to {OUTPUT_PATH}")

    # Speedups are annotations on single-core runners, assertions
    # everywhere else.
    if cpus >= 4:
        assert report["speedup_workers4"] > 1.5
    elif cpus >= 2:
        assert report["speedup_workers2"] > 1.2
