"""``python -m repro.engine``: campaign grids.

Build the (firmware x workload x strategy x budget) matrix from the
flags, shard it across worker processes, stream one progress line per
finished campaign, and print (or write) a JSON summary.

Examples
--------
Run the Table III strategy grid on both firmwares with 4 workers::

    python -m repro.engine --firmware ardupilot px4 \
        --strategy avis stratified-bfi bfi random \
        --workload waypoint --budget 60 --workers 4 --json table3.json

Quick smoke campaign::

    python -m repro.engine --strategy random --budget 6 --workers 2

Heterogeneous convoy (ArduPilot lead, PX4 wing) under coordination
faults, with the separation-aware SABRE dequeue::

    python -m repro.engine --workload convoy \
        --vehicle firmware=ardupilot --vehicle firmware=px4,airframe=solo \
        --traffic-faults --separation-aware --strategy avis --budget 20

Stream every finished campaign, and resume the grid after a kill::

    python -m repro.engine --strategy random --budget 6 --stream runs.jsonl
    python -m repro.engine --strategy random --budget 6 --resume runs.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Callable, Optional, Sequence

from repro.engine.api import (
    AIRFRAMES,
    BURST_STRATEGIES,
    FIRMWARES,
    STEPPERS,
    STRATEGIES,
    TRAFFIC_STRATEGIES,
    WORKLOADS,
    CampaignRequest,
    build_cells,
)
from repro.engine.backends import BACKEND_SPEC_HELP
from repro.engine.grid import (
    CampaignGrid,
    GridOutcome,
    filter_completed,
    load_completed_cells,
)
from repro.obs.metrics import merge_snapshots
from repro.obs.runtime import Observability, observed


def build_parser() -> argparse.ArgumentParser:
    """The grid CLI parser.  Every campaign-matrix flag's ``dest`` is
    the :class:`CampaignRequest` field it sets, so the flags expand
    through the one matrix expansion
    (:func:`repro.engine.api.build_cells`)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Shard a (firmware x workload x strategy x budget) "
        "campaign matrix across worker processes.",
    )
    parser.add_argument(
        "--firmware", dest="firmwares", nargs="+", choices=sorted(FIRMWARES),
        default=["ardupilot"], help="firmware flavours to check",
    )
    parser.add_argument(
        "--workload", dest="workloads", nargs="+",
        choices=list(WORKLOADS),
        default=["waypoint"],
        help="workloads to fly (convoy/crossing/multi-pad need --fleet-size >= 2)",
    )
    parser.add_argument(
        "--fleet-size", type=int, default=1,
        help="vehicles per fleet-workload simulation (convoy/crossing/"
        "multi-pad; classic workloads in the same grid always fly solo)",
    )
    parser.add_argument(
        "--vehicle", dest="vehicles", action="append", default=[],
        metavar="SPEC",
        help="per-vehicle spec for fleet workloads, one flag per fleet "
        "member in vehicle order: comma-separated key=value pairs with "
        f"keys 'firmware' ({'/'.join(sorted(FIRMWARES))}) and 'airframe' "
        f"({'/'.join(sorted(AIRFRAMES))}), e.g. "
        "--vehicle firmware=ardupilot --vehicle firmware=px4,airframe=solo. "
        "Defines the fleet size; overrides --firmware for fleet workloads.",
    )
    parser.add_argument(
        "--traffic-faults", action="store_true",
        help="open the inter-vehicle traffic channel to injection: adds "
        "the coordination fault family (beacon dropout/freeze/delay, one "
        "handle per vehicle) to the fault space of fleet campaigns. "
        f"Only the strategies that draw from the extended space "
        f"({'/'.join(sorted(TRAFFIC_STRATEGIES))}) may be combined with it.",
    )
    parser.add_argument(
        "--separation-aware", action="store_true",
        help="SABRE: dequeue transition windows tightest-profiled-fleet-"
        "geometry first instead of FIFO (fleet campaigns with the 'avis' "
        "strategy)",
    )
    parser.add_argument(
        "--burst-duration", dest="burst_durations", nargs="+", type=float,
        default=[], metavar="SECONDS",
        help="explore intermittent faults: besides the latched faults, "
        "sweep recovering variants whose fault window closes after the "
        "given duration(s).  The default fault model (latched, never "
        "recovering) is unchanged.  Applies to the strategies that "
        f"enumerate burst windows ({'/'.join(sorted(BURST_STRATEGIES))}).",
    )
    parser.add_argument(
        "--stepper", choices=list(STEPPERS),
        default="reference",
        help="simulation stepping mode for every cell: 'reference' is "
        "the lock-step loop at one micro-step per control period, "
        "'adaptive' additionally fuses micro-steps while no fault "
        "window, checkpoint, mode transition or proximity hazard is near "
        "(same verdicts, own cache keys)",
    )
    parser.add_argument(
        "--strategy", dest="strategies", nargs="+", choices=sorted(STRATEGIES),
        default=["avis", "stratified-bfi", "bfi", "random"],
        help="search strategies to compare",
    )
    parser.add_argument(
        "--budget", dest="budgets", metavar="BUDGET", nargs="+", type=float,
        default=[30.0],
        help="budget(s) in simulation-cost units; one grid axis per value",
    )
    parser.add_argument(
        "--per-dequeue", type=int, default=None, metavar="N",
        help="SABRE: candidate scenarios expanded (and simulated "
        "concurrently) per transition dequeue before the entry is "
        "re-queued; 0 disables the bound (exact Algorithm 1). "
        "Default: the AvisStrategy default (6). "
        "Only the 'avis' strategy consumes this.",
    )
    parser.add_argument("--profiling-runs", type=int, default=2)
    parser.add_argument("--altitude", type=float, default=15.0)
    parser.add_argument("--box-side", type=float, default=15.0)
    fabric = parser.add_argument_group("execution fabric")
    fabric.add_argument(
        "--backend", metavar="SPEC", default="serial",
        help="execution backend for every cell's campaign engine: "
        + BACKEND_SPEC_HELP,
    )
    fabric.add_argument(
        "--cache", metavar="DIR", default=None,
        help="shared result cache directory (local, or on a mount "
        "every host sees); default: a private in-memory cache per cell",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count, capped at 4)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the JSON summary here instead of stdout",
    )
    parser.add_argument(
        "--stream", metavar="PATH", default=None,
        help="append one JSON line per finished campaign to this file "
        "(a killed grid can later resume from it)",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="skip campaigns already recorded in this stream file and "
        "keep appending new ones to it",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-campaign progress lines"
    )
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record structured spans across every campaign and write a "
        "Chrome-trace JSON file here (open in chrome://tracing or "
        "https://ui.perfetto.dev); a path ending in .jsonl writes the "
        "event stream form instead.  Observing never changes campaign "
        "outcomes or cell fingerprints.",
    )
    observability.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write the merged metrics snapshot (engine rounds, cache "
        "traffic, worker utilisation, SABRE prune reasons, per-run phase "
        "timings) of every campaign here as JSON",
    )
    return parser


def request_from_args(args: argparse.Namespace) -> CampaignRequest:
    """The :class:`CampaignRequest` a flag namespace describes.

    This is the flags -> API bridge: every request field is the
    ``dest`` of one grid flag.  Everything downstream (expansion,
    validation, execution) happens on the request, so the CLI and
    :func:`repro.engine.api.run_campaign` expand and validate a matrix
    identically.
    """
    return CampaignRequest(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(CampaignRequest)
    })


def _stats_line(outcome: GridOutcome) -> Optional[str]:
    """The final scheduling-stats summary line (None when unavailable,
    e.g. every cell was resumed from a pre-stats stream file)."""

    def fmt(value: object) -> str:
        return f"{value:g}" if isinstance(value, (int, float)) else "?"

    parts = []
    engine = outcome.engine_totals()
    if engine:
        parts.append(
            "engine: rounds={} proposed={} cache_hits={} unfired={} "
            "executed={}".format(
                *(fmt(engine.get(key)) for key in
                  ("rounds", "proposed", "cache_hits", "unfired", "executed"))
            )
        )
    cache = outcome.cache_totals()
    if cache:
        parts.append(
            "cache: hits={} misses={}".format(
                *(fmt(cache.get(key)) for key in ("hits", "misses"))
            )
        )
    return " | ".join(parts) if parts else None


def _json_writer(document: object) -> Callable[[str], None]:
    """A path writer for ``document`` as indented, key-sorted JSON."""

    def write(path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    return write


def _write_output(
    path: str, label: str, write: Callable[[str], None], quiet: bool
) -> bool:
    """Write one output file, reporting on stderr; False when it failed
    (never raises: the campaigns behind an output are already finished)."""
    try:
        write(path)
    except OSError as error:
        print(f"could not write {path}: {error}", file=sys.stderr)
        return False
    if not quiet:
        print(f"{label} written to {path}", file=sys.stderr)
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Fail fast on every output path: campaigns can run for minutes; an
    # unwritable path must not surface only after the grid has finished.
    for flag, value in (("--json", args.json), ("--stream", args.stream),
                        ("--resume", args.resume), ("--trace", args.trace),
                        ("--metrics-json", args.metrics_json)):
        if not value:
            continue
        directory = os.path.dirname(os.path.abspath(value))
        if not os.path.isdir(directory):
            parser.error(f"{flag}: directory does not exist: {directory}")
        if not os.access(directory, os.W_OK):
            parser.error(f"{flag}: directory is not writable: {directory}")
    stream_path = args.stream
    completed = {}
    if args.resume:
        stream_path = stream_path or args.resume
        try:
            completed = load_completed_cells(args.resume)
        except OSError as error:
            parser.error(f"--resume: cannot read {args.resume}: {error}")
    try:
        cells = build_cells(request_from_args(args))
    except ValueError as error:
        parser.error(str(error))
    # Observed cells run under fresh per-cell runtimes and return their
    # metrics/trace with the summary; 'observe' is never part of the
    # cell fingerprint, so --resume semantics are unchanged.
    obs = Observability() if args.trace or args.metrics_json else None
    for cell in cells:
        cell.observe = obs is not None
    grid = CampaignGrid(cells, max_workers=args.workers)
    # Only for the header: grid.run makes the same resume decision.
    completed = filter_completed(cells, completed)
    pending = [cell for cell in cells if cell.cell_id not in completed]
    if not args.quiet:
        skipped = len(cells) - len(pending)
        resumed = f" ({skipped} resumed from {args.resume})" if skipped else ""
        print(
            f"campaign grid: {len(pending)} campaigns across "
            f"{min(grid.max_workers, len(pending)) or 1} worker(s){resumed}",
            file=sys.stderr,
        )

    def progress(cell_id: str, campaign) -> None:
        if not args.quiet:
            print(f"  done {cell_id}: {campaign.summary().strip()}", file=sys.stderr)

    with contextlib.ExitStack() as stack:
        if obs is not None:
            # A grid-level runtime adopts each observed cell's trace
            # events as they are collected, so one --trace file covers
            # every cell.
            stack.enter_context(observed(obs))
            stack.enter_context(obs.tracer.span("grid.run", cells=len(pending)))
        outcome = grid.run(
            on_progress=progress,
            stream_path=stream_path,
            completed=completed,
        )

    failures = 0
    if args.trace:
        write_trace = (
            obs.tracer.write_jsonl if args.trace.endswith(".jsonl")
            else obs.tracer.write_chrome
        )
        if not _write_output(args.trace, "trace", write_trace, args.quiet):
            failures += 1
    if args.metrics_json:
        snapshots = [obs.metrics.snapshot()] + [
            record["metrics"]
            for record in outcome.cell_summaries.values()
            if isinstance(record.get("metrics"), dict)
        ]
        if not _write_output(
            args.metrics_json, "metrics",
            _json_writer(merge_snapshots(snapshots)), args.quiet,
        ):
            failures += 1

    if not args.quiet:
        line = _stats_line(outcome)
        if line:
            print(line, file=sys.stderr)

    summary = outcome.summary()
    if args.json and _write_output(
        args.json, "summary", _json_writer(summary), args.quiet
    ):
        return 1 if failures else 0
    # Never lose finished campaigns to an output error: an unwritable
    # --json summary goes to stdout, and the run still fails.
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if failures or args.json else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
