"""The fault scheduler: decides, per sensor read, whether to inject.

This is the Python analogue of the paper's scheduler process.  The real
scheduler answers RPCs issued from ``libhinj`` calls embedded in the
driver ``read()`` procedures; here the scheduler object is handed to the
sensor suite as the fail-decision hook, so the query happens in-process
with identical semantics: when the current scenario schedules a failure
for an instance at or before the current time, the read fails and the
instance stays failed (until an intermittent fault's window closes).

The scheduler compiles its scenario's sensor faults once, into a table
of fault windows per instance, and hooks only the instances that table
names: a read of any other instance would be answered "no" and is not
queried at all.  The answers for faulted instances are exactly those of
:meth:`FaultScenario.active_fault_for`.

The scheduler also keeps the record of injections it actually performed
(the first read at which each fault took effect), which is what bug
replay uses to line injections up with mode transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

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
    """Executes one :class:`FaultScenario` during a simulated run."""

    def __init__(self, scenario: FaultScenario = EMPTY_SCENARIO) -> None:
        # Suites whose faulted instances are hooked to this scheduler;
        # ``load_scenario`` re-hooks them for the new scenario.
        self._suites: List[SensorSuite] = []
        self.load_scenario(scenario)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def scenario(self) -> FaultScenario:
        """The scenario this scheduler is executing."""
        return self._scenario

    def load_scenario(self, scenario: FaultScenario) -> None:
        """Replace the scenario and clear the injection record.

        Avis provisions a new firmware + simulator instance per test, so
        in practice a fresh scheduler is created per run; ``load_scenario``
        exists for tests and for replay, which reuses one scheduler.
        """
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
        self._query_count = 0
        for suite in self._suites:
            suite.instrument(self.should_fail, self._windows)

    def instrument(self, suite: SensorSuite) -> None:
        """Hook the read path of ``suite``'s faulted instances to
        :meth:`should_fail` (again after every :meth:`load_scenario`)."""
        if suite not in self._suites:
            self._suites.append(suite)
        suite.instrument(self.should_fail, self._windows)

    def release(self, suite: SensorSuite) -> None:
        """Remove the hooks :meth:`instrument` installed on ``suite``."""
        if suite in self._suites:
            self._suites.remove(suite)
        suite.remove_instrumentation()

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
        self._query_count += 1
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
    def query_count(self) -> int:
        """Number of fail-decision queries answered so far."""
        return self._query_count

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
    def injected_sensor_ids(self) -> Set[SensorId]:
        """The sensor instances failed so far."""
        return {self._records[index].sensor_id for index in self._injection_order}

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

    def pending_faults(self, time: float) -> List[SensorId]:
        """Sensor instances with scheduled faults not yet applied at ``time``."""
        pending = []
        for fault, record in zip(self._faults, self._records):
            if record is None and fault.start_time > time:
                if fault.sensor_id not in pending:
                    pending.append(fault.sensor_id)
        return pending
