"""Firmware instrumentation interface (the ``libhinj`` API surface).

The paper instruments two points in the firmware:

* the function that updates the vehicle's operating mode, where a call to
  ``hinj_update_mode()`` is inserted so Avis learns about every mode
  transition as it happens, and
* the ``read()`` procedure of every sensor driver, where a query to the
  scheduler decides whether the read fails.

:class:`HinjInterface` bundles both: the firmware calls
:meth:`update_mode` from its mode-setting path, and :meth:`install`
hooks the sensor suite's read path up to a :class:`FaultScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.hinj.scheduler import FaultScheduler
from repro.sensors.suite import SensorSuite


@dataclass(frozen=True)
class ModeTransition:
    """One operating-mode transition observed during a run.

    ``label`` is the operating-mode label the firmware reports (for
    example ``takeoff``, ``waypoint-2`` or ``rtl``); ``previous`` is the
    label before the transition (None for the initial mode announcement).
    """

    time: float
    label: str
    previous: Optional[str] = None

    def describe(self) -> str:
        """Human readable form, e.g. ``takeoff -> waypoint-1 @ 12.3s``."""
        if self.previous is None:
            return f"start in {self.label} @ {self.time:.2f}s"
        return f"{self.previous} -> {self.label} @ {self.time:.2f}s"


class HinjInterface:
    """The bridge between the firmware and Avis's fault injection engine."""

    def __init__(self, scheduler: Optional[FaultScheduler] = None) -> None:
        self._scheduler = scheduler if scheduler is not None else FaultScheduler()
        self._transitions: List[ModeTransition] = []
        self._current_mode: Optional[str] = None
        self._mode_listeners: List[Callable[[ModeTransition], None]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> FaultScheduler:
        """The fault scheduler answering read-time queries."""
        return self._scheduler

    def install(self, suite: SensorSuite) -> None:
        """Instrument the sensor drivers in ``suite``.

        Equivalent to linking the firmware against ``libhinj`` and adding
        the API call to each driver's ``read()``; only the instances the
        scheduler's scenario can fail are actually hooked.
        """
        self._scheduler.instrument(suite)

    def uninstall(self, suite: SensorSuite) -> None:
        """Remove the instrumentation from ``suite``."""
        self._scheduler.release(suite)

    def add_mode_listener(self, listener: Callable[[ModeTransition], None]) -> None:
        """Register a callback invoked on every mode transition."""
        self._mode_listeners.append(listener)

    # ------------------------------------------------------------------
    # The hinj_update_mode() API
    # ------------------------------------------------------------------
    def update_mode(self, label: str, time: float) -> None:
        """Report that the firmware's operating mode changed to ``label``.

        Repeated announcements of the same label are ignored, mirroring
        the insertion point in the firmware's set-mode function, which is
        only reached when the mode actually changes.
        """
        if label == self._current_mode:
            return
        transition = ModeTransition(time=time, label=label, previous=self._current_mode)
        self._current_mode = label
        self._transitions.append(transition)
        for listener in self._mode_listeners:
            listener(transition)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_mode(self) -> Optional[str]:
        """The most recently reported operating-mode label."""
        return self._current_mode

    @property
    def transitions(self) -> List[ModeTransition]:
        """Every transition reported so far, in order."""
        return list(self._transitions)

    def mode_at(self, time: float) -> Optional[str]:
        """The operating-mode label in effect at simulation time ``time``."""
        label: Optional[str] = None
        for transition in self._transitions:
            if transition.time <= time:
                label = transition.label
            else:
                break
        return label

    def transition_times(self) -> List[float]:
        """The times of every mode transition (used to seed SABRE)."""
        return [transition.time for transition in self._transitions]
