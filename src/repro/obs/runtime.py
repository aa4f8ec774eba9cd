"""The observability runtime: one process-wide switch, inert by default.

Instrumentation sites throughout the engine, SABRE and the fault stack
all funnel through one question — :func:`current` — and do nothing when
it returns ``None``.  That is the whole inertness contract: no
:class:`Observability` installed, no clocks read, no objects allocated,
no behaviour perturbed.

``fork``-started pool workers inherit the installed runtime, so a
traced ``ProcessPoolBackend`` campaign records flight logs inside
workers without any plumbing; the parent reads them off the returned
``RunResult``s.  Grid cells install a *fresh* runtime per cell (via
:func:`observed`) so each JSONL record carries that cell's metrics
alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.trace import Tracer


class Observability:
    """A bundle of live instruments: one registry, one tracer.

    ``recorder_capacity`` sizes the per-run flight recorder rings the
    harness creates while this runtime is installed.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        recorder_capacity: int = DEFAULT_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
        pid: Optional[int] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(clock=clock, pid=pid)
        self.recorder_capacity = recorder_capacity

    def new_recorder(self) -> FlightRecorder:
        """A fresh per-run flight recorder sized by this runtime."""
        return FlightRecorder(capacity=self.recorder_capacity)


_ACTIVE: Optional[Observability] = None


def current() -> Optional[Observability]:
    """The installed runtime, or None — the single inertness gate."""
    return _ACTIVE


def install(obs: Observability) -> Observability:
    """Make ``obs`` the process-wide runtime (replacing any prior one)."""
    # Fork safety: the gate's one process-wide slot; workers deliberately
    # inherit the inert default.
    global _ACTIVE
    _ACTIVE = obs
    return obs


def uninstall() -> None:
    """Return the process to the inert default."""
    # Fork safety: the gate's one process-wide slot; workers deliberately
    # inherit the inert default.
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def observed(obs: Optional[Observability] = None) -> Iterator[Observability]:
    """Install a runtime for the duration of a block, then restore.

    The previous runtime (usually None) comes back on exit even if the
    block raises, so tests and grid cells cannot leak instrumentation
    into later work.
    """
    # Fork safety: the gate's one process-wide slot; restored on exit even when
    # the block raises.
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = obs if obs is not None else Observability()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
