"""Engine microbenchmark: process-pool speedup and raw stepper throughput.

The one writer of ``BENCH_engine.json`` (next to the repository root),
which ``benchmarks/check_regression.py`` gates against the committed
``BENCH_baseline.json``.  It measures the two things the campaign
benchmark (``perfbench/``) does not:

* **Pool** -- a fixed, seeded 32-scenario campaign (the same scenarios,
  in the same order) executed through :class:`SerialBackend` and
  through :class:`ProcessPoolBackend` with 2 and 4 workers, in
  ``POOL_ROUNDS`` interleaved rounds (serial, 2 workers, 4 workers,
  then again), with the backends asserted to agree on every
  per-scenario outcome (the determinism contract) in every round.
  Each round gives one speedup per pool size; the recorded and
  asserted speedup is the median over the rounds, because on a shared
  2-CPU machine a single round's ``speedup_workers2`` swings from 1.0x
  to 1.9x on unchanged code.  perfbench runs every workload serially,
  so this is the only pool measurement.
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

Machine speed drifts on a shared runner, so every physics sample is
paired with a calibration sample -- the wall-clock of a fixed
pure-python loop -- taken just before it.  Each cell takes
``PHYSICS_PAIRS`` pairs, round-robin across the cells so a burst of
contention lands on one pair of each rather than on one whole cell.  A
pair's rate times its calibration seconds is the number of steps the
stepper runs in the time of one calibration loop.  Machine speed
cancels out of that number as long as the loop and the stepper slow
down together, which taking them back to back makes likely; the gate
checks the median of these ``*_steps_per_calibration`` numbers.  The
median raw rate is recorded beside it as ``*_steps_per_s`` for
reading, not gated.

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
import statistics
import time
from pathlib import Path

from repro.core.config import RunConfiguration
from repro.core.runner import SimulationHarness, TestRunner
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
PHYSICS_PAIRS = 5
POOL_ROUNDS = 3
BACKENDS = (("serial", None), ("workers2", 2), ("workers4", 4))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _calibration_sample() -> float:
    """Wall-clock of one pass of a fixed pure-python loop (machine speed
    probe, paired with the physics sample taken right after it)."""
    started = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return time.perf_counter() - started


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
    cells = [
        (fleet_size, stepper)
        for fleet_size in PHYSICS_FLEET_SIZES
        for stepper in STEPPERS
    ]
    rates = {cell: [] for cell in cells}
    normalised = {cell: [] for cell in cells}
    _calibration_sample()  # warm-up
    for _ in range(PHYSICS_PAIRS):
        for cell in cells:
            calibration_s = _calibration_sample()
            rate = _steps_per_second(*cell)
            rates[cell].append(rate)
            normalised[cell].append(rate * calibration_s)
    axis = {"steps": MEASURED_STEPS, "pairs": PHYSICS_PAIRS}
    for cell in cells:
        fleet_size, stepper = cell
        entry = axis.setdefault(f"fleet{fleet_size}", {})
        entry[f"{stepper}_steps_per_s"] = statistics.median(rates[cell])
        entry[f"{stepper}_steps_per_calibration"] = statistics.median(
            normalised[cell]
        )
    return axis


def _measure_pool_rounds(config, scenarios) -> dict:
    """Seconds of every backend in each of ``POOL_ROUNDS`` interleaved
    rounds, asserting in every round that the pools reproduce the serial
    per-scenario outcomes."""
    timings = {label: [] for label, _ in BACKENDS}
    for _ in range(POOL_ROUNDS):
        signatures = {}
        for label, workers in BACKENDS:
            backend = (
                SerialBackend() if workers is None else ProcessPoolBackend(max_workers=workers)
            )
            started = time.perf_counter()
            results = backend.run_scenarios(TestRunner(config), scenarios)
            timings[label].append(time.perf_counter() - started)
            backend.close()
            signatures[label] = _outcome_signature(results)
        # Determinism: every backend produced identical per-scenario outcomes.
        assert signatures["workers2"] == signatures["serial"]
        assert signatures["workers4"] == signatures["serial"]
    return timings


def test_engine_scaling(benchmark, capsys):
    config = _config()
    scenarios = _fixed_scenarios()

    timings = benchmark.pedantic(
        _measure_pool_rounds, args=(config, scenarios), rounds=1, iterations=1
    )
    # One speedup per round and pool size, each against its own round's
    # serial time.
    speedups = {
        label: [serial / pooled for serial, pooled in zip(timings["serial"], timings[label])]
        for label in ("workers2", "workers4")
    }

    physics = _measure_physics_axis()

    cpus = _usable_cpus()
    single_core = cpus < 2
    serial_s = statistics.median(timings["serial"])
    report = {
        "scenario_count": SCENARIO_COUNT,
        "usable_cpus": cpus,
        "pool_rounds": POOL_ROUNDS,
        "serial_s": serial_s,
        "workers2_s": statistics.median(timings["workers2"]),
        "workers4_s": statistics.median(timings["workers4"]),
        "seconds_per_simulation": serial_s / SCENARIO_COUNT,
        "speedup_workers2": statistics.median(speedups["workers2"]),
        "speedup_workers4": statistics.median(speedups["workers4"]),
        "speedup_workers2_rounds": speedups["workers2"],
        "speedup_workers4_rounds": speedups["workers4"],
        "speedup_note": (
            "single-core runner: speedups annotated, not asserted"
            if single_core
            else None
        ),
        "physics": physics,
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    with capsys.disabled():
        print(
            f"\n\nEngine scaling ({SCENARIO_COUNT} scenarios, {cpus} cpu(s), "
            f"medians of {POOL_ROUNDS} rounds):"
        )
        print(f"  serial    : {report['serial_s']:.2f}s")
        for label, name in (("workers2", "2 workers"), ("workers4", "4 workers")):
            rounds = " ".join(f"{speedup:.2f}" for speedup in speedups[label])
            print(
                f"  {name} : {report[f'{label}_s']:.2f}s "
                f"({report[f'speedup_{label}']:.2f}x; rounds {rounds})"
            )
        if single_core:
            print(f"  note      : {report['speedup_note']}")
        print(
            f"Stepper throughput (median of {PHYSICS_PAIRS} samples of "
            f"{MEASURED_STEPS} micro-steps per cell):"
        )
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
    # everywhere else -- on the median over the rounds.
    if cpus >= 4:
        assert report["speedup_workers4"] > 1.5
    elif cpus >= 2:
        assert report["speedup_workers2"] > 1.2
