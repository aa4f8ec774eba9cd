"""Campaign grids: sharding a campaign matrix across worker processes.

A *grid* is the (firmware x workload x strategy x budget) matrix behind
the paper's evaluation tables: Table III/IV run every strategy on every
firmware, Table V runs two strategies per re-inserted bug.  Each cell is
one full campaign -- profile the fault-free mission, calibrate the
monitor, run the strategy to budget exhaustion -- and cells are
completely independent, so the grid shards them across a forked worker
pool, one campaign per worker at a time.

Inside a grid worker every campaign uses the :class:`SerialBackend`
(nesting process pools inside pool workers is not supported by
``multiprocessing`` daemonic processes, and cell-level sharding already
saturates the machine).  Because each cell is deterministic, a sharded
grid produces exactly the results of the equivalent sequential loop.

Long grids can stream every finished cell to a JSONL file
(``run(stream_path=...)``); a killed run then resumes by loading the
stream with :func:`load_completed_cells` and passing the mapping back as
``run(completed=...)`` -- already-finished cells are skipped and their
streamed summaries are merged into the final grid summary.  The CLI
exposes this as ``--stream`` / ``--resume``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.avis import (
    DEFAULT_LABELLING_COST,
    DEFAULT_SIMULATION_COST,
    Avis,
    CampaignResult,
)
from repro.core.config import RunConfiguration
from repro.engine.backends import _fork_available
from repro.engine.cache import (
    ResultCache,
    config_fingerprint,
    workload_fingerprint,
)
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Observability, observed

#: Version stamped into every streamed cell record (the ``schema``
#: field).  Version 1 is the implicit schema of records written before
#: the field existed; :func:`validate_stream_record` accepts both, and
#: resume matching stays fingerprint-based, so old stream files keep
#: resuming.  Bump this when a record key changes meaning or type.
STREAM_SCHEMA_VERSION = 2


@dataclass
class GridCell:
    """One campaign of the matrix.

    ``strategy_factory`` (rather than a strategy instance) because
    strategies carry per-campaign state (RNG position, enumeration
    cursors); every cell must start from a fresh instance.
    """

    cell_id: str
    config: RunConfiguration
    strategy_factory: Callable[[], object]
    budget_units: float = 60.0
    profiling_runs: int = 2
    #: Open the inter-vehicle traffic channel to injection: the cell's
    #: session gets the coordination fault space (fleet cells only).
    traffic_faults: bool = False
    #: Run the cell under a fresh observability runtime and return its
    #: metrics snapshot and trace events with the campaign.  Never part
    #: of :func:`cell_fingerprint` -- observing a cell cannot change its
    #: outcome, so it must not invalidate resumable stream records.
    observe: bool = False
    #: Execution backend spec for the cell's campaign engine ("serial",
    #: "pool[:N]", "remote:...").  Like ``observe``, never part of
    #: :func:`cell_fingerprint`: backends are bit-identical by contract,
    #: so where a cell ran must not invalidate its stream record.
    backend_spec: str = "serial"
    #: Result-cache spec: None (private in-memory cache) or a cache
    #: directory, shared by every cell and shard that names it.  Never
    #: part of the fingerprint -- caching cannot change outcomes.
    cache_spec: Optional[str] = None


def cell_fingerprint(cell: GridCell) -> str:
    """A short content hash of everything that shapes a cell's outcome.

    Streamed alongside each finished cell so a ``--resume`` only skips a
    cell when the stored result really came from the same configuration
    -- the cell id alone omits parameters like the workload geometry.
    """
    terms = [
        config_fingerprint(cell.config, workload_fingerprint(cell.config)),
        f"budget={cell.budget_units!r}",
        f"profiling={cell.profiling_runs!r}",
        # Every cell runs at the Avis default costs; the term stays so
        # existing stream records keep resuming.
        f"costs={DEFAULT_SIMULATION_COST!r}/{DEFAULT_LABELLING_COST!r}",
    ]
    if cell.traffic_faults:
        # Rendered only when enabled, so pre-traffic stream files keep
        # resuming their cells.
        terms.append("traffic_faults=True")
    payload = "|".join(terms)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def summarize_campaign(
    cell_id: str,
    campaign: CampaignResult,
    wall_seconds: Optional[float] = None,
    fleet_size: int = 1,
    fingerprint: Optional[str] = None,
    vehicles: Optional[List[str]] = None,
    engine_stats: Optional[dict] = None,
    cache_stats: Optional[dict] = None,
    metrics: Optional[dict] = None,
) -> dict:
    """The JSON-serialisable summary of one finished grid cell.

    ``wall_s`` duplicates ``wall_seconds`` under the streamed-record
    schema name; resume matching is fingerprint-based, so stream files
    written before (or after) either key exist stay resumable.
    """
    summary = {
        "schema": STREAM_SCHEMA_VERSION,
        "cell": cell_id,
        "fingerprint": fingerprint,
        "firmware": campaign.firmware_name,
        "workload": campaign.workload_name,
        "strategy": campaign.strategy_name,
        "fleet_size": fleet_size,
        "simulations": campaign.simulations,
        "labels": campaign.labels,
        "budget_spent": campaign.budget_spent,
        "unsafe_scenarios": campaign.unsafe_scenario_count,
        "unsafe_conditions": campaign.unsafe_condition_count,
        "triggered_bugs": sorted(campaign.triggered_bug_ids),
        "per_mode": campaign.per_mode_counts,
        "efficiency": campaign.efficiency,
        "wall_seconds": wall_seconds,
        "wall_s": wall_seconds,
    }
    if vehicles is not None:
        summary["vehicles"] = vehicles
    if engine_stats is not None:
        summary["engine"] = engine_stats
    if cache_stats is not None:
        summary["cache"] = cache_stats
    if metrics is not None:
        summary["metrics"] = metrics
    return summary


#: Keys every streamed cell record must carry, with the types a
#: well-formed value may take.  ``schema``-less records predate the
#: version field (schema 1) and are still valid -- resume matching is
#: fingerprint-based, not schema-based.
_RECORD_REQUIRED = {
    "cell": (str,),
    "fingerprint": (str,),
    "firmware": (str,),
    "workload": (str,),
    "strategy": (str,),
    "simulations": (int,),
    "budget_spent": (int, float),
    "unsafe_scenarios": (int,),
    "triggered_bugs": (list,),
}


def validate_stream_record(record: object) -> List[str]:
    """Problems with one streamed cell record (empty when valid).

    Accepts every schema version up to :data:`STREAM_SCHEMA_VERSION`:
    records without a ``schema`` field are treated as version 1 (the
    pre-versioning era), so stream files written by older releases
    validate -- and resume -- unchanged.  A *newer* schema than this
    code knows is reported, not guessed at.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    schema = record.get("schema", 1)
    if not isinstance(schema, int) or schema < 1:
        problems.append(f"schema must be a positive integer, got {schema!r}")
    elif schema > STREAM_SCHEMA_VERSION:
        problems.append(
            f"schema {schema} is newer than supported "
            f"({STREAM_SCHEMA_VERSION}); upgrade to read this stream"
        )
    for key, types in _RECORD_REQUIRED.items():
        if key not in record:
            problems.append(f"missing key '{key}'")
        elif record[key] is not None and not isinstance(record[key], types):
            problems.append(
                f"key '{key}' is {type(record[key]).__name__}, expected "
                + "/".join(t.__name__ for t in types)
            )
    return problems


def validate_campaign_stream(path: str) -> List[str]:
    """Problems with a streamed campaign JSONL file (empty when valid).

    Validates every line against :func:`validate_stream_record`;
    ``repro.obs report --validate`` runs this on files it detects as
    campaign streams (first record carries a ``cell`` key).
    """
    problems: List[str] = []
    records = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                problems.append(f"line {lineno}: invalid JSON ({error})")
                continue
            records += 1
            problems.extend(
                f"line {lineno}: {problem}"
                for problem in validate_stream_record(record)
            )
    if records == 0:
        problems.append("no campaign records in stream")
    return problems


def filter_completed(
    cells: Sequence[GridCell], completed: Dict[str, dict]
) -> Dict[str, dict]:
    """The subset of ``completed`` records trustworthy for ``cells``.

    Only a record whose fingerprint matches the cell's current
    configuration may be reused: ids omit parameters (altitude, box
    side...), so a mismatched or missing fingerprint means the cell must
    rerun.  This is the single place the resume decision is made -- the
    grid calls it, and so does the CLI to report the resumed count
    before running.
    """
    fingerprints = {cell.cell_id: cell_fingerprint(cell) for cell in cells}
    return {
        cell_id: record
        for cell_id, record in completed.items()
        if cell_id in fingerprints
        and record.get("fingerprint") == fingerprints[cell_id]
    }


def load_completed_cells(path: str) -> Dict[str, dict]:
    """Load the per-cell summaries streamed by a previous grid run.

    Lines that fail to parse (for example a partial line written as the
    process died) are skipped; the corresponding cell simply reruns.
    Returns a mapping from cell id to its streamed summary.
    """
    completed: Dict[str, dict] = {}
    if not os.path.exists(path):
        return completed
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            cell_id = record.get("cell") if isinstance(record, dict) else None
            if cell_id:
                completed[cell_id] = record
    return completed


def _open_stream(path: str):
    """Open a stream file for appending, ending a torn last line first.

    A run killed mid-write can leave a partial last line without its
    newline; a record appended straight after it would be glued onto
    the fragment and lost to every later resume.
    """
    with open(path, "a+b") as handle:
        if handle.tell():
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    return open(path, "a", encoding="utf-8")


#: Cells inherited by forked grid workers (set before the pool forks).
_GRID_CELLS: Optional[Sequence[GridCell]] = None

#: One finished cell's ``(result, seconds, stats, obs_payload)``.
CellOutcome = Tuple[CampaignResult, float, dict, Optional[dict]]


def _run_cell(cell: GridCell) -> CellOutcome:
    """Execute one grid cell (in the grid process or a forked worker).

    Returns ``(result, seconds, stats, obs_payload)``: ``stats`` always
    carries the cell's engine and cache counters; ``obs_payload`` is the
    cell's metrics snapshot plus serialized trace events when the cell
    asked to be observed (each observed cell runs under a *fresh*
    runtime, so its snapshot covers that campaign alone), else None.
    """
    started = time.perf_counter()
    obs = Observability() if cell.observe else None
    with observed(obs) if obs is not None else contextlib.nullcontext():
        avis = Avis(
            cell.config,
            profiling_runs=cell.profiling_runs,
            budget_units=cell.budget_units,
            backend=cell.backend_spec,
            # Built inside the (possibly forked) worker so each shard
            # holds its own memory tier over the shared directory.
            cache=ResultCache(directory=cell.cache_spec) if cell.cache_spec else None,
            traffic_faults=cell.traffic_faults,
        )
        avis.profile()
        campaign = avis.check(strategy=cell.strategy_factory())
    stats = {
        "engine": dict(avis.engine.last_stats),
        "cache": dict(avis.cache.stats),
    }
    payload = None if obs is None else {
        "metrics": obs.metrics.snapshot(),
        "trace_events": obs.tracer.events,
    }
    return campaign, time.perf_counter() - started, stats, payload


def _run_forked_cell(index: int) -> Tuple[int, CellOutcome]:
    """Pool entry point: run the inherited cell at ``index``."""
    return index, _run_cell(_GRID_CELLS[index])


@dataclass
class GridOutcome:
    """Everything a grid run produced, ready for JSON summarising.

    ``results`` holds the campaigns executed by *this* run;
    ``cell_summaries`` covers every cell of the matrix in matrix order,
    including cells resumed from a previous run's stream file (for which
    only the summary survives).
    """

    results: Dict[str, CampaignResult]
    wall_seconds: float
    workers: int
    cell_summaries: Dict[str, dict] = field(default_factory=dict)
    resumed_cells: int = 0

    def summary(self) -> dict:
        """A JSON-serialisable summary of the whole grid run."""
        campaigns = list(self.cell_summaries.values())
        totals = {
            "campaigns": len(campaigns),
            "resumed": self.resumed_cells,
            "simulations": sum(c["simulations"] for c in campaigns),
            "unsafe_scenarios": sum(c["unsafe_scenarios"] for c in campaigns),
        }
        engine = self.engine_totals()
        if engine is not None:
            totals["engine"] = engine
        cache = self.cache_totals()
        if cache is not None:
            totals["cache"] = cache
        return {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "campaigns": campaigns,
            "totals": totals,
        }

    def _summed_stats(self, key: str) -> Optional[dict]:
        """Per-cell counter dicts under ``key`` summed across the grid.

        Records resumed from stream files written before the counters
        existed simply don't contribute; None when no cell carried them.
        """
        totals: Dict[str, float] = {}
        seen = False
        for record in self.cell_summaries.values():
            stats = record.get(key)
            if not isinstance(stats, dict):
                continue
            seen = True
            for name, value in stats.items():
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
        return totals if seen else None

    def engine_totals(self) -> Optional[dict]:
        """The grid-wide sum of every cell's ``CampaignEngine.last_stats``."""
        return self._summed_stats("engine")

    def cache_totals(self) -> Optional[dict]:
        """The grid-wide sum of every cell's ``ResultCache.stats``."""
        return self._summed_stats("cache")


class CampaignGrid:
    """Runs a list of grid cells, sharded across worker processes."""

    def __init__(
        self, cells: Sequence[GridCell], max_workers: Optional[int] = None
    ) -> None:
        ids = [cell.cell_id for cell in cells]
        if len(set(ids)) != len(ids):
            raise ValueError("grid cell ids must be unique")
        self._cells = list(cells)
        if max_workers is None:
            max_workers = max(1, min(4, os.cpu_count() or 1))
        self._max_workers = max(1, max_workers)

    @property
    def max_workers(self) -> int:
        """The configured shard count."""
        return self._max_workers

    def run(
        self,
        on_progress: Optional[Callable[[str, CampaignResult], None]] = None,
        stream_path: Optional[str] = None,
        completed: Optional[Dict[str, dict]] = None,
    ) -> GridOutcome:
        """Execute every cell; ``on_progress`` fires as campaigns finish.

        Results are keyed by cell id, so completion order (which the
        pool does not guarantee) never affects the outcome.  When
        ``stream_path`` is given, each finished cell's summary is
        appended to it as one JSON line; cells whose ids appear in
        ``completed`` (a mapping loaded by :func:`load_completed_cells`)
        are skipped and their streamed summaries reused, as far as
        :func:`filter_completed` trusts them.
        """
        started = time.perf_counter()
        completed = filter_completed(self._cells, completed or {})
        results: Dict[str, CampaignResult] = {}
        summaries: Dict[str, dict] = dict(completed)
        pending = [
            index
            for index, cell in enumerate(self._cells)
            if cell.cell_id not in completed
        ]
        workers = min(self._max_workers, len(pending)) or 1

        stream = _open_stream(stream_path) if stream_path is not None else None

        def collect(index: int, outcome: CellOutcome) -> None:
            cell = self._cells[index]
            campaign, seconds, stats, payload = outcome
            results[cell.cell_id] = campaign
            summaries[cell.cell_id] = summarize_campaign(
                cell.cell_id,
                campaign,
                wall_seconds=seconds,
                fleet_size=cell.config.fleet_size,
                fingerprint=cell_fingerprint(cell),
                vehicles=(
                    [spec.describe() for spec in cell.config.vehicle_specs]
                    if cell.config.is_heterogeneous else None
                ),
                engine_stats=stats.get("engine"),
                cache_stats=stats.get("cache"),
                metrics=payload.get("metrics") if payload is not None else None,
            )
            if payload is not None:
                # Adopt the cell's trace into the grid-level tracer (when
                # one is installed) so a single --trace file covers every
                # cell.
                parent = obs_runtime.current()
                if parent is not None:
                    parent.tracer.extend(payload.get("trace_events", ()))
            if stream is not None:
                stream.write(
                    json.dumps(summaries[cell.cell_id], sort_keys=True) + "\n"
                )
                stream.flush()
            if on_progress is not None:
                on_progress(cell.cell_id, campaign)

        try:
            if workers <= 1 or not _fork_available():
                workers = 1
                for index in pending:
                    collect(index, _run_cell(self._cells[index]))
            else:
                global _GRID_CELLS  # repro-lint: disable=FAB003 -- set immediately before fork so workers inherit the parent's cells by design
                _GRID_CELLS = self._cells
                context = multiprocessing.get_context("fork")
                try:
                    with context.Pool(processes=workers) as pool:
                        for index, outcome in pool.imap_unordered(
                            _run_forked_cell, pending
                        ):
                            collect(index, outcome)
                finally:
                    _GRID_CELLS = None
        finally:
            if stream is not None:
                stream.close()

        # Re-key into matrix order for stable summaries; resumed cells
        # keep their streamed summaries in their matrix position.
        return GridOutcome(
            results={
                cell.cell_id: results[cell.cell_id]
                for cell in self._cells
                if cell.cell_id in results
            },
            wall_seconds=time.perf_counter() - started,
            workers=workers,
            cell_summaries={
                cell.cell_id: summaries[cell.cell_id] for cell in self._cells
            },
            resumed_cells=len(completed),
        )
