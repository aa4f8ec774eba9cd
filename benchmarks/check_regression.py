"""Perf-regression gate: compare ``BENCH_engine.json`` to the baseline.

CI runs the engine-scaling microbenchmark and then this script.  The
gate fails (exit code 1) when any ``seconds_per_simulation`` metric --
the single-vehicle campaign, the fleet-scaling axis, the traffic-fault
convoy axis, the intermittent-fault (burst) convoy axis, the adaptive
re-runs of the convoy axes, or the batched SABRE campaign -- regresses
more than ``--tolerance`` (default 25%) against the committed
``BENCH_baseline.json``.

Beyond the timing axes the gate asserts three kinds of floors:

* **Missing axes fail.**  A metric the baseline carries but the fresh
  report does not is a gate failure, not a note: a benchmark axis that
  silently stopped being measured would otherwise read as a pass
  forever.  (The reverse -- a baseline from before an axis existed --
  is fine; only baseline metrics are enumerated.)
* **Adaptive speedup floors.**  The quiescence-skipping stepper must
  stay at least ``1.5x`` faster than the reference stepper on the
  traffic and burst convoy axes.  These are single-process ratios
  measured in the same run, so they are asserted on every runner,
  including single-core CI.
* **Physics throughput floors.**  The ``physics`` axis records
  harness steps/sec per stepper and fleet size; each rate must stay
  above ``baseline / scale / (1 + tolerance)``.

Two things keep the gate honest across heterogeneous runners:

* **Calibration scaling** -- both reports record ``calibration_s``, the
  wall-clock of a fixed pure-python workload.  Thresholds are scaled by
  the ratio of the two calibrations, so a slower CI runner is not
  flagged for being slow and a faster one cannot hide a real
  regression behind raw hardware speed.
* **Core-count gating** -- parallel speedup assertions are skipped when
  ``usable_cpus < 2``: a process pool cannot beat serial execution of
  CPU-bound simulations on a single core, which is why single-core CI
  speedups read ~1.0x.  (Adaptive-stepper speedups are exempt: they
  compare two serial runs.)

Usage::

    python benchmarks/check_regression.py \
        [--baseline BENCH_baseline.json] [--current BENCH_engine.json] \
        [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_baseline.json"
DEFAULT_CURRENT = REPO_ROOT / "BENCH_engine.json"
DEFAULT_TOLERANCE = 0.25

#: Parallel-speedup metrics and the floor each must clear on machines
#: with at least two usable cores.  The floors are deliberately loose --
#: they catch "the pool stopped helping at all", not scheduler noise.
SPEEDUP_FLOORS: Sequence[Tuple[Tuple[str, ...], float]] = (
    (("speedup_workers2",), 1.0),
    (("sabre", "speedup_pool4"), 0.9),
)

#: Adaptive-stepper speedups and the floor each must clear on every
#: runner.  Both sides of the ratio are serial runs from the same
#: process, so core count is irrelevant.  The adaptive stepper saves
#: the sensor reads and firmware updates of fused ticks, so the ratio
#: shrinks whenever those layers get cheaper: with the compiled fault
#: table and flat sensor readings both steppers got faster and the
#: ratio fell from 2.2-2.4x to 1.9-2.2x, and one run before that
#: change already read 1.6x on ``burst``.  The floor therefore only
#: catches "fusing stopped paying" (which reads ~1.0x); the adaptive
#: stepper's own speed is gated in absolute terms through
#: ``seconds_per_simulation_adaptive``.
ADAPTIVE_FLOORS: Sequence[Tuple[Tuple[str, ...], float]] = (
    (("traffic", "adaptive_speedup"), 1.5),
    (("burst", "adaptive_speedup"), 1.5),
)


def _lookup(report: dict, path: Tuple[str, ...]) -> Optional[float]:
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def _seconds_metrics(report: dict) -> Iterator[Tuple[str, float]]:
    """Every ``seconds_per_simulation`` metric a report carries."""
    value = _lookup(report, ("seconds_per_simulation",))
    if value is not None:
        yield "seconds_per_simulation", value
    for axis_key in ("fleet_scaling",):
        axis = report.get(axis_key)
        if isinstance(axis, dict):
            for entry_key in sorted(axis):
                value = _lookup(axis, (entry_key, "seconds_per_simulation"))
                if value is not None:
                    yield f"{axis_key}.{entry_key}.seconds_per_simulation", value
    for flat_axis in ("traffic", "burst", "sabre"):
        value = _lookup(report, (flat_axis, "seconds_per_simulation"))
        if value is not None:
            yield f"{flat_axis}.seconds_per_simulation", value
    for flat_axis in ("traffic", "burst"):
        value = _lookup(report, (flat_axis, "seconds_per_simulation_adaptive"))
        if value is not None:
            yield f"{flat_axis}.seconds_per_simulation_adaptive", value


def _rate_metrics(report: dict) -> Iterator[Tuple[str, float]]:
    """Every ``*_steps_per_s`` throughput metric (the ``physics`` axis).

    Rates invert the timing logic: higher is better, so the gate
    asserts a *floor* rather than a ceiling.
    """
    axis = report.get("physics")
    if not isinstance(axis, dict):
        return
    for entry_key in sorted(axis):
        entry = axis[entry_key]
        if not isinstance(entry, dict):
            continue
        for metric_key in sorted(entry):
            if not metric_key.endswith("_steps_per_s"):
                continue
            value = _lookup(entry, (metric_key,))
            if value is not None:
                yield f"physics.{entry_key}.{metric_key}", value


def check_regression(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[str], List[str]]:
    """Compare ``current`` against ``baseline``.

    Returns ``(failures, notes)``: a non-empty ``failures`` list means
    the gate must fail; ``notes`` document skipped or scaled checks and
    the measured-vs-baseline numbers of every passing axis.  Every axis
    is always checked -- the gate reports all failures, never just the
    first one.
    """
    failures: List[str] = []
    notes: List[str] = []

    scale = 1.0
    base_cal = _lookup(baseline, ("calibration_s",))
    cur_cal = _lookup(current, ("calibration_s",))
    if base_cal and cur_cal and base_cal > 0:
        scale = cur_cal / base_cal
        notes.append(
            f"calibration: baseline {base_cal:.4f}s, current {cur_cal:.4f}s "
            f"-> thresholds scaled by {scale:.2f}x"
        )
    else:
        notes.append("calibration missing from a report: raw thresholds used")

    current_seconds = dict(_seconds_metrics(current))
    for name, base_value in _seconds_metrics(baseline):
        cur_value = current_seconds.get(name)
        if cur_value is None:
            failures.append(
                f"{name}: present in baseline but missing from the current "
                "report -- the axis stopped being measured"
            )
            continue
        allowed = base_value * scale * (1.0 + tolerance)
        if cur_value > allowed:
            failures.append(
                f"{name}: {cur_value:.4f}s/sim exceeds allowed "
                f"{allowed:.4f}s/sim (baseline {base_value:.4f}s/sim, "
                f"scale {scale:.2f}x, tolerance {tolerance:.0%})"
            )
        else:
            # Passing axes explain themselves too: measured vs baseline
            # is what lets a reviewer spot a creeping (sub-tolerance)
            # regression before it trips the gate.
            notes.append(
                f"{name}: measured {cur_value:.4f}s/sim vs baseline "
                f"{base_value:.4f}s/sim, within allowed {allowed:.4f}s/sim"
            )

    current_rates = dict(_rate_metrics(current))
    for name, base_value in _rate_metrics(baseline):
        cur_value = current_rates.get(name)
        if cur_value is None:
            failures.append(
                f"{name}: present in baseline but missing from the current "
                "report -- the axis stopped being measured"
            )
            continue
        floor = base_value / scale / (1.0 + tolerance)
        if cur_value < floor:
            failures.append(
                f"{name}: {cur_value:.0f} steps/s is below the allowed floor "
                f"{floor:.0f} steps/s (baseline {base_value:.0f} steps/s, "
                f"scale {scale:.2f}x, tolerance {tolerance:.0%})"
            )
        else:
            notes.append(
                f"{name}: measured {cur_value:.0f} steps/s vs baseline "
                f"{base_value:.0f} steps/s, above floor {floor:.0f} steps/s"
            )

    for path, floor in ADAPTIVE_FLOORS:
        name = ".".join(path)
        value = _lookup(current, path)
        if value is None:
            if _lookup(baseline, path) is not None:
                failures.append(
                    f"{name}: present in baseline but missing from the "
                    "current report -- the axis stopped being measured"
                )
            else:
                notes.append(f"{name}: not in either report, skipped")
            continue
        if value < floor:
            failures.append(
                f"{name}: {value:.2f}x is below the {floor:.2f}x floor "
                "(adaptive stepper stopped paying for itself)"
            )
        else:
            notes.append(f"{name}: {value:.2f}x >= {floor:.2f}x floor")

    cpus = _lookup(current, ("usable_cpus",)) or 1
    if cpus < 2:
        notes.append(
            "usable_cpus < 2: parallel speedup assertions skipped "
            "(a pool cannot beat serial on one core; speedups read ~1.0x)"
        )
    else:
        for path, floor in SPEEDUP_FLOORS:
            name = ".".join(path)
            value = _lookup(current, path)
            if value is None:
                if _lookup(baseline, path) is not None:
                    failures.append(
                        f"{name}: present in baseline but missing from the "
                        "current report -- the axis stopped being measured"
                    )
                else:
                    notes.append(f"{name}: not in either report, skipped")
                continue
            if value < floor:
                failures.append(
                    f"{name}: {value:.2f}x is below the {floor:.2f}x floor "
                    f"on a {cpus}-cpu runner"
                )
            else:
                notes.append(f"{name}: {value:.2f}x >= {floor:.2f}x floor")

    return failures, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline report (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=DEFAULT_CURRENT,
        help=f"freshly measured report (default: {DEFAULT_CURRENT.name})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression (default: 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read baseline {args.baseline}: {error}", file=sys.stderr)
        return 2
    try:
        current = json.loads(args.current.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read current report {args.current}: {error}", file=sys.stderr)
        return 2

    failures, notes = check_regression(baseline, current, args.tolerance)
    for note in notes:
        print(f"  note: {note}")
    if failures:
        print("PERF REGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
