"""The fault scheduler: decides, per sensor read, whether to inject.

This is the Python analogue of the paper's scheduler process.  The real
scheduler answers RPCs issued from ``libhinj`` calls embedded in the
driver ``read()`` procedures; here the scheduler object is handed to the
sensor suite as the fail-decision hook, so the query happens in-process
with identical semantics: when the scenario schedules a failure for an
instance at or before the current time, the read fails and the instance
stays failed (until an intermittent fault's window closes).

A scheduler executes exactly one scenario, as the paper's scheduler
executes one per run: the harness builds a fresh scheduler, sensor
suite and firmware for every vehicle of every run, and there is no way
to load another scenario into a live one.  The constructor compiles the
scenario's sensor faults into a table of fault windows per instance,
and only the instances that table names are hooked: a read of any
other instance would be answered "no" and is not queried at all.  The answers for faulted instances are exactly those of
:meth:`FaultScenario.active_fault_for`.

The scheduler also keeps the record of injections it actually performed
(the first read at which each fault took effect), which is what bug
replay uses to line injections up with mode transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.obs.recorder import FlightEvent
from repro.sensors.base import SensorId
from repro.sensors.suite import SensorSuite


@dataclass(frozen=True)
class InjectionRecord:
    """A fault the scheduler actually injected during a run.

    ``duration_s`` and ``recovered_time`` describe intermittent faults:
    the scheduled recovery window, and the first read at which the
    instance actually reported healthy again after having failed.  Both
    stay ``None`` for the paper's latched faults.
    """

    sensor_id: SensorId
    scheduled_time: float
    injected_time: float
    duration_s: Optional[float] = None
    recovered_time: Optional[float] = None

    @property
    def delay(self) -> float:
        """Latency between the scheduled time and the read that applied it."""
        return self.injected_time - self.scheduled_time

    @property
    def recovered(self) -> bool:
        """True once the fault's recovery has taken effect."""
        return self.recovered_time is not None


def injection_flight_events(records: List[InjectionRecord]) -> List[FlightEvent]:
    """Flight-recorder events for a run's sensor-fault injection log.

    One ``fault.injected`` event per applied fault, plus a
    ``fault.recovered`` event for every intermittent fault whose window
    actually closed during the run.
    """
    events = []
    for record in records:
        detail = record.sensor_id.label
        if record.duration_s is not None:
            detail += f" (window {record.duration_s:g}s)"
        events.append(
            FlightEvent(record.injected_time, "fault.injected", detail)
        )
        if record.recovered_time is not None:
            events.append(
                FlightEvent(
                    record.recovered_time, "fault.recovered", record.sensor_id.label
                )
            )
    return events


class FaultScheduler:
    """Executes one :class:`FaultScenario` during a simulated run.

    A scheduler is built for one scenario and thrown away with its run,
    as Avis provisions a fresh firmware and simulator for every test.
    """

    def __init__(self, scenario: FaultScenario = EMPTY_SCENARIO) -> None:
        self._scenario = scenario
        # The sensor faults in scenario order, and per instance the
        # (start, end, index) window of each, in that order: the first
        # window containing a read's time is the earliest-starting active
        # fault (ties go to the shorter window), as ``active_fault_for``
        # decides.  Latched faults end at infinity.
        self._faults: Tuple[FaultSpec, ...] = tuple(scenario.sensor_faults)
        windows: Dict[SensorId, List[Tuple[float, float, int]]] = {}
        for index, fault in enumerate(self._faults):
            end = fault.end_time
            windows.setdefault(fault.sensor_id, []).append(
                (fault.start_time, math.inf if end is None else end, index)
            )
        self._windows: Dict[SensorId, Tuple[Tuple[float, float, int], ...]] = {
            sensor_id: tuple(entries) for sensor_id, entries in windows.items()
        }
        # One record per applied fault (by index), not per sensor id: a
        # scenario can schedule several disjoint recovery windows on one
        # instance, and each applied window gets its own record --
        # mirroring the traffic channel's per-fault injection log, and
        # keeping replay plans complete for multi-window scenarios.
        self._records: List[Optional[InjectionRecord]] = [None] * len(self._faults)
        self._injection_order: List[int] = []

    @property
    def scenario(self) -> FaultScenario:
        """The scenario this scheduler is executing."""
        return self._scenario

    def instrument(self, suite: SensorSuite) -> None:
        """Hook the read path of ``suite``'s faulted instances to
        :meth:`should_fail`."""
        suite.instrument(self.should_fail, self._windows)

    # ------------------------------------------------------------------
    # The libhinj query (Step 4 of Figure 7)
    # ------------------------------------------------------------------
    def should_fail(self, sensor_id: SensorId, time: float) -> bool:
        """Answer a driver's "should this read fail?" query.

        With latched faults the answer, once positive, stays positive
        for the rest of the run.  An intermittent fault's window can
        close, after which the answer reverts to False -- the driver
        recovers -- and that fault's injection record is stamped with
        the first read at or after the window closed (a latched fault
        never recovers, so its record never gains a recovery stamp).
        """
        windows = self._windows.get(sensor_id)
        if windows is None:
            return False
        records = self._records
        active = None
        for start, end, index in windows:
            if time >= end:
                record = records[index]
                if record is not None and record.recovered_time is None:
                    records[index] = replace(record, recovered_time=time)
            elif active is None and time >= start:
                active = index
        if active is None:
            return False
        if records[active] is None:
            fault = self._faults[active]
            records[active] = InjectionRecord(
                sensor_id=sensor_id,
                scheduled_time=fault.start_time,
                injected_time=time,
                duration_s=fault.duration_s,
            )
            self._injection_order.append(active)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def injections(self) -> List[InjectionRecord]:
        """Faults that have actually been applied, in injection order.

        One record per applied fault spec: a sensor with several
        disjoint recovery windows contributes one record per window
        that fired.
        """
        return sorted(
            (self._records[index] for index in self._injection_order),
            key=lambda record: (record.injected_time, record.sensor_id),
        )

    @property
    def settled(self) -> bool:
        """True once the injection log is complete: every scheduled fault
        has been injected and every recovering one has recovered, so no
        later read can add a record or a recovery stamp."""
        for fault, record in zip(self._faults, self._records):
            if record is None:
                return False
            if fault.recovers and record.recovered_time is None:
                return False
        return True
