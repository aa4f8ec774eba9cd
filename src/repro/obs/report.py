"""Trace/metrics summarization behind ``python -m repro.obs report``.

Turns a recorded trace (Chrome JSON or JSONL) and optionally a metrics
snapshot into the triage questions the campaign engine's users actually
ask: where did the wall time go (top spans), how did each harness phase
contribute, how well did the cache work, and how evenly were pool
workers loaded.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import SPAN_PHASE, load_trace_events, validate_chrome_trace


def summarize_spans(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Aggregate complete spans by name, sorted by total duration.

    Expects Chrome-schema events (``ts``/``dur`` in microseconds);
    returns one row per span name with count, total/mean/max seconds.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("ph") != SPAN_PHASE:
            continue
        name = str(event.get("name"))
        duration_s = float(event.get("dur", 0.0)) / 1e6
        row = totals.setdefault(name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration_s
        row["max_s"] = max(row["max_s"], duration_s)
    rows = [
        {
            "name": name,
            "count": int(row["count"]),
            "total_s": row["total_s"],
            "mean_s": row["total_s"] / row["count"] if row["count"] else 0.0,
            "max_s": row["max_s"],
        }
        for name, row in totals.items()
    ]
    rows.sort(key=lambda row: (-row["total_s"], row["name"]))
    return rows


def _counter(metrics: Dict[str, object], prefix: str) -> float:
    """Sum every counter whose key starts with ``prefix`` (labels vary)."""
    counters = metrics.get("counters", {})
    return sum(
        value
        for key, value in counters.items()
        if key == prefix or key.startswith(prefix + "{")
    )


def cache_utilization(metrics: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Cache hit-rate summary from a metrics snapshot, if it has one."""
    hits = _counter(metrics, "cache.hits")
    misses = _counter(metrics, "cache.misses")
    if hits + misses == 0:
        return None
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses),
    }


def worker_utilization(metrics: Dict[str, object]) -> List[Dict[str, object]]:
    """Per-worker task counts and execute time from a metrics snapshot."""
    counters = metrics.get("counters", {})
    workers: Dict[str, Dict[str, float]] = {}
    for key, value in counters.items():
        for metric, field in (
            ("backend.worker_tasks", "tasks"),
            ("backend.worker_execute_seconds", "execute_s"),
            ("backend.worker_queue_wait_seconds", "queue_wait_s"),
        ):
            if key.startswith(metric + "{"):
                label = key[len(metric) + 1 : -1]  # inside {...}
                workers.setdefault(label, {})[field] = value
    rows = [
        {
            "worker": label,
            "tasks": int(fields.get("tasks", 0)),
            "execute_s": fields.get("execute_s", 0.0),
            "queue_wait_s": fields.get("queue_wait_s", 0.0),
        }
        for label, fields in workers.items()
    ]
    rows.sort(key=lambda row: row["worker"])
    return rows


def build_report(
    trace_path: Optional[str],
    metrics_path: Optional[str],
    top: int = 15,
) -> Dict[str, object]:
    """The full report document (the --json output of the CLI)."""
    report: Dict[str, object] = {}
    if trace_path is not None:
        events = load_trace_events(trace_path)
        spans = summarize_spans(events)
        report["trace"] = {
            "path": trace_path,
            "events": len(events),
            "spans": spans[:top],
            "span_names": len(spans),
        }
    if metrics_path is not None:
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        report["metrics"] = {"path": metrics_path}
        cache = cache_utilization(metrics)
        if cache is not None:
            report["metrics"]["cache"] = cache
        workers = worker_utilization(metrics)
        if workers:
            report["metrics"]["workers"] = workers
        phase_totals = {
            key: value
            for key, value in metrics.get("counters", {}).items()
            if key.startswith("run.phase_seconds")
        }
        if phase_totals:
            report["metrics"]["phase_seconds"] = phase_totals
    return report


def render_text(report: Dict[str, object]) -> str:
    """Human-readable rendering of a report document."""
    lines: List[str] = []
    trace = report.get("trace")
    if isinstance(trace, dict):
        lines.append(
            f"trace: {trace['path']} "
            f"({trace['events']} events, {trace['span_names']} span names)"
        )
        spans = trace.get("spans", [])
        if spans:
            lines.append("top spans by total duration:")
            lines.append(
                f"  {'name':<32} {'count':>7} {'total_s':>10} {'mean_s':>10} {'max_s':>10}"
            )
            for row in spans:
                lines.append(
                    f"  {row['name']:<32} {row['count']:>7d} "
                    f"{row['total_s']:>10.4f} {row['mean_s']:>10.4f} "
                    f"{row['max_s']:>10.4f}"
                )
    metrics = report.get("metrics")
    if isinstance(metrics, dict):
        lines.append(f"metrics: {metrics['path']}")
        cache = metrics.get("cache")
        if isinstance(cache, dict):
            lines.append(
                f"  cache: {cache['hits']:.0f} hits / {cache['misses']:.0f} misses "
                f"({cache['hit_rate']:.1%} hit rate)"
            )
        workers = metrics.get("workers")
        if isinstance(workers, list) and workers:
            lines.append("  workers:")
            for row in workers:
                lines.append(
                    f"    {row['worker']}: {row['tasks']} tasks, "
                    f"execute {row['execute_s']:.3f}s, "
                    f"queue wait {row['queue_wait_s']:.3f}s"
                )
        phases = metrics.get("phase_seconds")
        if isinstance(phases, dict) and phases:
            lines.append("  phase seconds:")
            for key in sorted(phases):
                lines.append(f"    {key}: {phases[key]:.3f}")
    if not lines:
        lines.append("nothing to report (no trace or metrics supplied)")
    return "\n".join(lines)


def _is_campaign_stream(text: str) -> bool:
    """Whether a file's text is a streamed-campaign JSONL (vs a trace).

    Campaign records carry a ``cell`` key; trace events never do (they
    have ``ph``/``name``/``ts``).  Only the first parseable line is
    consulted -- mixed files are validated as whatever they lead with.
    """
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return False
        return isinstance(record, dict) and "cell" in record
    return False


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize campaign traces and metrics snapshots.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    report_parser = subparsers.add_parser(
        "report", help="summarize a trace and/or metrics snapshot"
    )
    report_parser.add_argument(
        "trace", nargs="?", default=None,
        help="trace file (Chrome JSON or JSONL event stream)",
    )
    report_parser.add_argument(
        "--metrics", default=None, help="metrics snapshot JSON to summarize"
    )
    report_parser.add_argument(
        "--top", type=int, default=15, help="span rows to show (default 15)"
    )
    report_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    report_parser.add_argument(
        "--validate", action="store_true",
        help="schema-check the input file -- a trace (Chrome JSON or "
        "JSONL) or a streamed campaign JSONL file (--stream records) "
        "-- and exit non-zero on problems",
    )
    options = parser.parse_args(argv)

    if options.trace is None and options.metrics is None:
        report_parser.error("supply a trace file and/or --metrics")

    if options.validate:
        if options.trace is None:
            report_parser.error("--validate needs a trace file")
        with open(options.trace, "r", encoding="utf-8") as handle:
            text = handle.read()
        if _is_campaign_stream(text):
            # Campaign record streams (grid --stream)
            # validate against the versioned record schema instead of
            # the Chrome trace schema.
            from repro.engine.grid import validate_campaign_stream

            problems = validate_campaign_stream(options.trace)
            if problems:
                for problem in problems:
                    print(f"invalid: {problem}")
                return 1
            print(f"valid: {options.trace}")
            if options.metrics is None:
                return 0
            report = build_report(None, options.metrics, top=options.top)
            if options.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(render_text(report))
            return 0
        if text.lstrip().startswith("{"):
            document = json.loads(text)
        else:
            # JSONL streams validate through their Chrome rendering.
            document = {"traceEvents": load_trace_events(options.trace)}
        problems = validate_chrome_trace(document)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}")
            return 1
        # A valid trace still gets its report: --validate gates the
        # summary, it does not replace it.
        print(f"valid: {options.trace}")

    report = build_report(options.trace, options.metrics, top=options.top)
    if options.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    return 0
