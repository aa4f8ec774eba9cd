"""Perf-regression gate: compare ``BENCH_engine.json`` to the baseline.

CI and the nightly run ``benchmarks/bench_engine_scaling.py`` (the one
writer of ``BENCH_engine.json``) and then this script.  The gate fails
(exit code 1) on any of three checks against the committed
``BENCH_baseline.json``:

* **Physics throughput floors.**  The ``physics`` axis records harness
  steps/sec per stepper and fleet size; each rate must stay above
  ``baseline / scale / (1 + tolerance)`` (default tolerance 25%).
  Higher is better, so these are floors, not ceilings.  The
  ``adaptive_steps_per_s`` floors also catch "fusing stopped paying".
* **Pool speedup floor.**  On a runner with at least two usable cores,
  ``speedup_workers2`` must stay at or above 1.0x.  The floor is
  deliberately loose: it catches "the pool stopped helping at all",
  not scheduler noise.
* **Missing metrics fail.**  A gated metric the baseline carries but
  the fresh report does not is a gate failure, not a note: a benchmark
  axis that silently stopped being measured would otherwise read as a
  pass forever.  (The reverse -- a baseline from before a metric
  existed -- is fine; only baseline metrics are enumerated.)

Seconds per simulation and per campaign are not gated here: the
campaign benchmark (``perfbench/``) measures them end to end.

Two things keep the gate honest across heterogeneous runners:

* **Calibration scaling** -- both reports record ``calibration_s``, the
  wall-clock of a fixed pure-python workload.  Floors are scaled by
  the ratio of the two calibrations, so a slower CI runner is not
  flagged for being slow and a faster one cannot hide a real
  regression behind raw hardware speed.
* **Core-count gating** -- the speedup floor is skipped when
  ``usable_cpus < 2``: a process pool cannot beat serial execution of
  CPU-bound simulations on a single core, which is why single-core CI
  speedups read ~1.0x.

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

#: The parallel-speedup metric and the floor it must clear on machines
#: with at least two usable cores.
SPEEDUP_METRIC = "speedup_workers2"
SPEEDUP_FLOOR = 1.0


def _number(node: object, key: str) -> Optional[float]:
    """``node[key]`` when ``node`` is a dict holding a number there."""
    if not isinstance(node, dict):
        return None
    value = node.get(key)
    return value if isinstance(value, (int, float)) else None


def _missing(name: str) -> str:
    return (
        f"{name}: present in baseline but missing from the current "
        "report -- the axis stopped being measured"
    )


def _rate_metrics(report: dict) -> Iterator[Tuple[str, float]]:
    """Every ``*_steps_per_s`` throughput metric (the ``physics`` axis)."""
    axis = report.get("physics")
    if not isinstance(axis, dict):
        return
    for entry_key in sorted(axis):
        entry = axis[entry_key]
        if not isinstance(entry, dict):
            continue
        for metric_key in sorted(entry):
            value = _number(entry, metric_key)
            if metric_key.endswith("_steps_per_s") and value is not None:
                yield f"physics.{entry_key}.{metric_key}", value


def check_regression(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[str], List[str]]:
    """Compare ``current`` against ``baseline``.

    Returns ``(failures, notes)``: a non-empty ``failures`` list means
    the gate must fail; ``notes`` document skipped or scaled checks and
    the measured-vs-baseline numbers of every passing metric.  Every
    metric is always checked -- the gate reports all failures, never
    just the first one.
    """
    failures: List[str] = []
    notes: List[str] = []

    scale = 1.0
    base_cal = _number(baseline, "calibration_s")
    cur_cal = _number(current, "calibration_s")
    if base_cal and cur_cal and base_cal > 0:
        scale = cur_cal / base_cal
        notes.append(
            f"calibration: baseline {base_cal:.4f}s, current {cur_cal:.4f}s "
            f"-> thresholds scaled by {scale:.2f}x"
        )
    else:
        notes.append("calibration missing from a report: raw thresholds used")

    current_rates = dict(_rate_metrics(current))
    for name, base_value in _rate_metrics(baseline):
        cur_value = current_rates.get(name)
        if cur_value is None:
            failures.append(_missing(name))
            continue
        floor = base_value / scale / (1.0 + tolerance)
        if cur_value < floor:
            failures.append(
                f"{name}: {cur_value:.0f} steps/s is below the allowed floor "
                f"{floor:.0f} steps/s (baseline {base_value:.0f} steps/s, "
                f"scale {scale:.2f}x, tolerance {tolerance:.0%})"
            )
        else:
            # Passing metrics explain themselves too: measured vs
            # baseline is what lets a reader spot a creeping
            # (sub-tolerance) regression before it trips the gate.
            notes.append(
                f"{name}: measured {cur_value:.0f} steps/s vs baseline "
                f"{base_value:.0f} steps/s, above floor {floor:.0f} steps/s"
            )

    speedup = _number(current, SPEEDUP_METRIC)
    cpus = _number(current, "usable_cpus") or 1
    if speedup is None:
        if _number(baseline, SPEEDUP_METRIC) is not None:
            failures.append(_missing(SPEEDUP_METRIC))
    elif cpus < 2:
        notes.append(
            "usable_cpus < 2: parallel speedup assertions skipped "
            "(a pool cannot beat serial on one core; speedups read ~1.0x)"
        )
    elif speedup < SPEEDUP_FLOOR:
        failures.append(
            f"{SPEEDUP_METRIC}: {speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.2f}x floor on a {cpus}-cpu runner"
        )
    else:
        notes.append(f"{SPEEDUP_METRIC}: {speedup:.2f}x >= {SPEEDUP_FLOOR:.2f}x floor")

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
