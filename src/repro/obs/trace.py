"""Structured span tracing with explicit clocks and Chrome-trace export.

A :class:`Tracer` records two event shapes:

* **spans** -- ``with tracer.span("simulate", scenario=...)`` records a
  complete (begin + duration) event when the block exits;
* **instants** -- ``tracer.instant("mark", note="...")`` marks a
  point in time.

The clock is *injected*: the default is ``time.perf_counter``, but
tests pass a deterministic fake so two traced runs produce
byte-identical trace files.  ``pid`` is likewise injectable (defaults
to the real process id) so multi-process traces keep one track per
worker while deterministic tests pin it to 0.

Export targets:

* :meth:`Tracer.chrome_trace` / :meth:`Tracer.write_chrome` -- the
  Chrome trace event format (the ``{"traceEvents": [...]}`` object
  form), loadable in ``chrome://tracing`` and https://ui.perfetto.dev.
  Span nesting is implied by timestamps on a shared track, exactly how
  the format expects it.
* :meth:`Tracer.write_jsonl` -- one JSON object per event, the stream
  form log-processing pipelines consume.

:func:`validate_chrome_trace` is the schema check the tier-1 smoke test
and ``python -m repro.obs report`` share: it guards the trace format
against silent drift.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: Event kinds a tracer records ("X" = complete span, "i" = instant),
#: mirroring the Chrome trace-event phase letters.
SPAN_PHASE = "X"
INSTANT_PHASE = "i"


def _clean_args(args: Dict[str, object]) -> Dict[str, object]:
    """Arguments rendered JSON-safe (non-scalars become their repr)."""
    cleaned: Dict[str, object] = {}
    for key, value in args.items():
        if isinstance(value, (bool, int, float, str, type(None))):
            cleaned[key] = value
        else:
            cleaned[key] = repr(value)
    return cleaned


class Tracer:
    """Records spans and instants against an injectable clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds as a float.  Defaults
        to ``time.perf_counter``; inject a fake for deterministic
        traces under test.
    pid:
        Track (process) id stamped on every event.  Defaults to the
        real pid; inject 0 for deterministic traces.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        pid: Optional[int] = None,
    ) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self.pid = pid if pid is not None else os.getpid()
        self._events: List[Dict[str, object]] = []
        self._depth = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Dict[str, object]]:
        """Record a complete span around the ``with`` block.

        Yields the (mutable) args dict so the block can attach results
        discovered mid-span (e.g. the number of candidates a round
        produced).
        """
        cleaned = _clean_args(args)
        start = self.clock()
        self._depth += 1
        try:
            yield cleaned
        finally:
            self._depth -= 1
            self.complete(name, start, self.clock(), depth=self._depth, **cleaned)

    def instant(self, name: str, **args: object) -> None:
        """Record a point-in-time event."""
        self._events.append(
            {
                "ph": INSTANT_PHASE,
                "name": name,
                "ts_s": self.clock(),
                "dur_s": 0.0,
                "pid": self.pid,
                "tid": 0,
                "depth": self._depth,
                "args": _clean_args(args),
            }
        )

    def complete(
        self,
        name: str,
        start_s: float,
        end_s: float,
        depth: int = 0,
        **args: object,
    ) -> None:
        """Record an already-measured span (used by span() and by callers
        stitching in events measured elsewhere, e.g. grid cell walls)."""
        self._events.append(
            {
                "ph": SPAN_PHASE,
                "name": name,
                "ts_s": start_s,
                "dur_s": max(end_s - start_s, 0.0),
                "pid": self.pid,
                "tid": 0,
                "depth": depth,
                "args": _clean_args(args),
            }
        )

    def extend(self, events: Iterable[Dict[str, object]]) -> None:
        """Adopt serialized events recorded by another tracer (grid
        workers return theirs to the parent this way)."""
        for event in events:
            self._events.append(dict(event))

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, object]]:
        """The recorded events (internal schema, seconds-based)."""
        return list(self._events)

    def chrome_trace(self) -> Dict[str, object]:
        """The Chrome trace-event object form of the recorded events."""
        trace_events = []
        for event in self._events:
            rendered: Dict[str, object] = {
                "name": event["name"],
                "ph": event["ph"],
                "ts": round(float(event["ts_s"]) * 1e6, 3),
                "pid": event["pid"],
                "tid": event["tid"],
                "args": event["args"],
            }
            if event["ph"] == SPAN_PHASE:
                rendered["dur"] = round(float(event["dur_s"]) * 1e6, 3)
            else:
                rendered["s"] = "t"  # instant scope: thread
            trace_events.append(rendered)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        """Write the Chrome-trace JSON document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True)
            handle.write("\n")

    def write_jsonl(self, path: str) -> None:
        """Write the event stream to ``path``, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")


def load_trace_events(path: str) -> List[Dict[str, object]]:
    """Load trace events from a Chrome-trace JSON file or a JSONL stream.

    Returns events in the *Chrome* schema (``ts``/``dur`` in
    microseconds); JSONL events (the internal seconds schema) are
    converted on the way in, so report tooling handles both formats.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        events = json.loads(text)
        return [event for event in events if isinstance(event, dict)]
    if stripped.startswith("{"):
        # A JSONL stream also starts with "{" -- only treat the text as
        # one Chrome document when it parses whole AND carries the
        # traceEvents envelope; otherwise fall through to line parsing.
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict) and isinstance(
            document.get("traceEvents"), list
        ):
            return [
                event
                for event in document["traceEvents"]
                if isinstance(event, dict)
            ]
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        event = json.loads(line)
        converted: Dict[str, object] = {
            "name": event.get("name"),
            "ph": event.get("ph"),
            "ts": float(event.get("ts_s", 0.0)) * 1e6,
            "pid": event.get("pid", 0),
            "tid": event.get("tid", 0),
            "args": event.get("args", {}),
        }
        if event.get("ph") == SPAN_PHASE:
            converted["dur"] = float(event.get("dur_s", 0.0)) * 1e6
        events.append(converted)
    return events


def validate_chrome_trace(document: object) -> List[str]:
    """Schema-check a Chrome trace document; returns the problems found.

    An empty list means the document is loadable by ``chrome://tracing``
    / Perfetto as far as this reproduction's emitter is concerned: an
    object with a ``traceEvents`` list whose entries carry ``name``,
    ``ph`` (one of the phases we emit), numeric ``ts`` (plus ``dur`` for
    complete spans), ``pid`` and ``tid``.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["trace document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing name")
        phase = event.get("ph")
        if phase not in (SPAN_PHASE, INSTANT_PHASE):
            problems.append(f"{where}: unexpected phase {phase!r}")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: ts is not numeric")
        if phase == SPAN_PHASE and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: complete span without numeric dur")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} is not an integer")
    return problems
