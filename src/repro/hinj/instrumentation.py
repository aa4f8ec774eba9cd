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
from typing import List, Optional

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
    """The bridge between the firmware and Avis's fault injection engine.

    Built for one run: :meth:`install` hooks one sensor suite once, and
    :attr:`transitions` is that run's mode log.
    """

    def __init__(self, scheduler: Optional[FaultScheduler] = None) -> None:
        self._scheduler = scheduler if scheduler is not None else FaultScheduler()
        self._transitions: List[ModeTransition] = []
        self._label: Optional[str] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, suite: SensorSuite) -> None:
        """Instrument the sensor drivers in ``suite``.

        Equivalent to linking the firmware against ``libhinj`` and adding
        the API call to each driver's ``read()``; only the instances the
        scheduler's scenario can fail are actually hooked.
        """
        self._scheduler.instrument(suite)

    # ------------------------------------------------------------------
    # The hinj_update_mode() API
    # ------------------------------------------------------------------
    def update_mode(self, label: str, time: float) -> None:
        """Report that the firmware's operating mode changed to ``label``.

        Repeated announcements of the same label are ignored, mirroring
        the insertion point in the firmware's set-mode function, which is
        only reached when the mode actually changes.
        """
        if label == self._label:
            return
        self._transitions.append(
            ModeTransition(time=time, label=label, previous=self._label)
        )
        self._label = label

    @property
    def transitions(self) -> List[ModeTransition]:
        """Every transition reported so far, in order."""
        return list(self._transitions)
