"""The per-run flight recorder: phase timings and a ring of events.

Every traced simulation run carries a :class:`FlightLog` on its
:class:`~repro.core.runner.RunResult`: the wall time each harness phase
consumed (provisioning, physics stepping, sensor reads, monitor
evaluation, ...) plus a bounded, time-ordered stream of
:class:`FlightEvent` records — fault injections and recoveries, flight
mode transitions, proximity conflicts, fence breaches.

The event stream is a *ring buffer*: a run that produces more events
than ``capacity`` keeps the most recent ones and reports how many were
dropped, so pathological runs cannot balloon result payloads (results
travel through the process pool and the result cache as pickles).

Events are assembled from the harness's own deterministic records
(scheduler injections, traffic injections, simulator safety events,
firmware transitions), so a recorded run and an unrecorded run execute
identically — the recorder only *reads* state the run already produced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

#: Default ring capacity — generous for normal runs (a convoy campaign
#: run produces tens of events), tight enough that a runaway fault storm
#: cannot bloat pickled results.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class FlightEvent:
    """One timestamped occurrence during a simulation run.

    ``kind`` is a stable dotted tag (``fault.injected``,
    ``fault.recovered``, ``traffic.injected``, ``traffic.recovered``,
    ``mode.transition``, ``proximity.conflict``, ``safety.collision``,
    ``safety.fence_breach``, ``run.parked``); ``detail`` is a
    human-readable suffix and ``vehicle`` names the aircraft involved
    when there is one.
    """

    time_s: float
    kind: str
    detail: str = ""
    vehicle: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable rendering."""
        rendered: Dict[str, object] = {
            "time_s": self.time_s,
            "kind": self.kind,
            "detail": self.detail,
        }
        if self.vehicle is not None:
            rendered["vehicle"] = self.vehicle
        return rendered


@dataclass
class FlightLog:
    """The finished, immutable-by-convention product of a recorder."""

    events: List[FlightEvent] = field(default_factory=list)
    dropped: int = 0
    capacity: int = DEFAULT_CAPACITY
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: The stepping mode the phase records were produced under
    #: (``reference`` / ``adaptive``), so trace diffs can attribute
    #: per-phase speedups to skipped quiescence.  A plain
    #: class-attribute default: logs pickled by older engines unpickle
    #: against it.
    stepper: str = "reference"

    def count_into(self, metrics) -> None:
        """Add this run to ``metrics``: ``run.phase_seconds`` per phase,
        ``run.flight_events`` per event kind, and ``run.parked`` when
        the run took the parked exit.  Serial runs and pool workers'
        results are counted the same way, from the log."""
        for phase, seconds in self.phase_seconds.items():
            metrics.counter("run.phase_seconds", phase=phase).inc(seconds)
        for event in self.events:
            metrics.counter("run.flight_events", kind=event.kind).inc()
            if event.kind == "run.parked":
                metrics.counter("run.parked").inc()

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable rendering."""
        return {
            "events": [event.as_dict() for event in self.events],
            "dropped": self.dropped,
            "capacity": self.capacity,
            "stepper": self.stepper,
            "phase_seconds": {
                phase: self.phase_seconds[phase]
                for phase in sorted(self.phase_seconds)
            },
        }


class FlightRecorder:
    """Accumulates phase time and events for one run, then seals a log."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._events: Deque[FlightEvent] = deque(maxlen=capacity)
        self._total_events = 0
        self._phase_seconds: Dict[str, float] = {}

    def add_phase(self, phase: str, seconds: float) -> None:
        """Accumulate wall time against a named harness phase."""
        self._phase_seconds[phase] = self._phase_seconds.get(phase, 0.0) + seconds

    def record(
        self,
        time_s: float,
        kind: str,
        detail: str = "",
        vehicle: Optional[str] = None,
    ) -> None:
        """Append one event; the oldest event falls out when full."""
        self._events.append(FlightEvent(time_s, kind, detail, vehicle))
        self._total_events += 1

    def record_all(self, events: List[FlightEvent]) -> None:
        """Append pre-built events (callers sort by time first)."""
        for event in events:
            self._events.append(event)
            self._total_events += 1

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring."""
        return self._total_events - len(self._events)

    def seal(self) -> FlightLog:
        """The finished log for attachment to a RunResult."""
        return FlightLog(
            events=list(self._events),
            dropped=self.dropped,
            capacity=self.capacity,
            phase_seconds=dict(self._phase_seconds),
        )
