"""The inter-vehicle traffic channel: ADS-B-style position beacons.

Fleet members do not read each other's simulator state.  Instead every
vehicle periodically *broadcasts* a :class:`TrafficBeacon` carrying its
position and velocity, and every other vehicle *consumes* the beacons
with a delivery latency -- the same shared-medium, best-effort traffic
picture real fleets fly on (and the SITL follow scripts exercise).  The
channel is deterministic: broadcast times and latencies are fixed
numbers of simulation steps, so runs stay reproducible.

Because the channel is the only path one vehicle's view of another
takes, it is also the fault injection surface for the coordination
fault family (:class:`~repro.hinj.faults.TrafficFaultSpec`):

* **dropout** -- beacons broadcast by the faulted vehicle while the
  fault is active are never delivered; receivers' last view of it ages
  out.
* **freeze** -- beacons keep being delivered on schedule but carry the
  last pre-fault position/velocity payload, so receivers track a
  plausible-but-stale ghost that never moves again.
* **delay** -- beacons are delivered with an extra fixed latency, so
  receivers track where the vehicle *was*.

A fault with a finite ``duration_s`` *recovers*: once its window closes
the dropout ends and beacons resume flowing, a freeze thaws back to the
live payload, and a delay reverts to the channel's base latency.  The
default (``duration_s=None``) latches for the rest of the run, exactly
as before.

Injections are recorded (first beacon each fault affected, plus the
first post-recovery beacon for intermittent faults), mirroring the
sensor scheduler's injection log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.hinj.faults import TrafficFaultKind, TrafficFaultSpec
from repro.obs.recorder import FlightEvent


@dataclass(frozen=True)
class TrafficBeacon:
    """One position/velocity broadcast from a fleet member.

    ``position`` is the (north, east, altitude) offset from the shared
    home in metres; ``velocity`` the (north, east, climb) rates in m/s.
    ``time`` is the simulation time the beacon was emitted (receivers
    compute staleness from it against their own clock).
    """

    vehicle: int
    time: float
    position: Tuple[float, float, float]
    velocity: Tuple[float, float, float]

    def age_at(self, now: float) -> float:
        """Seconds elapsed since this beacon was emitted."""
        return now - self.time


@dataclass(frozen=True)
class TrafficInjectionRecord:
    """A coordination fault the channel actually applied during a run.

    ``recovered_time`` is the time of the first beacon broadcast after
    an intermittent fault's window closed -- the moment the channel's
    behaviour actually reverted.  It stays ``None`` for latched faults
    (and for windows that outlive the run).
    """

    fault: TrafficFaultSpec
    scheduled_time: float
    injected_time: float
    recovered_time: Optional[float] = None

    @property
    def recovered(self) -> bool:
        """True once the fault's recovery has taken effect on the air."""
        return self.recovered_time is not None

    def describe(self) -> str:
        """One-line description for reports."""
        text = (
            f"{self.fault.label} scheduled t={self.scheduled_time:.2f}s, "
            f"first effect t={self.injected_time:.2f}s"
        )
        if self.recovered_time is not None:
            text += f", recovered t={self.recovered_time:.2f}s"
        return text


def traffic_flight_events(records: List[TrafficInjectionRecord]) -> List[FlightEvent]:
    """Flight-recorder events for a run's coordination-fault log.

    One ``traffic.injected`` event per applied fault plus a
    ``traffic.recovered`` event for every intermittent fault whose
    window actually closed on the air.
    """
    events = []
    for record in records:
        vehicle = f"v{record.fault.vehicle}"
        events.append(
            FlightEvent(
                record.injected_time,
                "traffic.injected",
                record.fault.label,
                vehicle=vehicle,
            )
        )
        if record.recovered_time is not None:
            events.append(
                FlightEvent(
                    record.recovered_time,
                    "traffic.recovered",
                    record.fault.label,
                    vehicle=vehicle,
                )
            )
    return events


class TrafficChannel:
    """The shared beacon medium of one fleet simulation.

    The harness drives it in lock-step: :meth:`advance` once per
    simulation step, :meth:`broadcast` whenever a vehicle's beacon
    period elapses, and followers read :meth:`latest` for their view of
    any other vehicle.
    """

    def __init__(
        self,
        fleet_size: int,
        dt: float,
        beacon_interval_s: float = 0.2,
        latency_s: float = 0.1,
        faults: Sequence[TrafficFaultSpec] = (),
    ) -> None:
        if fleet_size < 1:
            raise ValueError("a traffic channel needs at least one vehicle")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.fleet_size = fleet_size
        self.dt = dt
        self.beacon_interval_steps = max(int(round(beacon_interval_s / dt)), 1)
        self.latency_steps = max(int(round(latency_s / dt)), 0)
        self._step = 0
        # In-flight beacons per sender: (delivery step, beacon).
        self._in_flight: Dict[int, Deque[Tuple[int, TrafficBeacon]]] = {
            vehicle: deque() for vehicle in range(fleet_size)
        }
        # The delivered (shared-medium) picture: latest beacon per sender.
        self._delivered: Dict[int, TrafficBeacon] = {}
        # Last pre-fault beacon per frozen sender (the ghost payload).
        self._frozen: Dict[int, TrafficBeacon] = {}
        self._faults: Dict[int, List[TrafficFaultSpec]] = {}
        for fault in faults:
            self._faults.setdefault(fault.vehicle, []).append(fault)
        for vehicle_faults in self._faults.values():
            vehicle_faults.sort(key=lambda fault: fault.sort_key())
        self._injected: Dict[TrafficFaultSpec, TrafficInjectionRecord] = {}
        self.beacons_sent = 0
        self.beacons_delivered = 0
        self.beacons_dropped = 0

    # ------------------------------------------------------------------
    # Clocking and broadcasting
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Advance the channel clock by one simulation step and deliver
        every beacon whose latency has elapsed."""
        self._step += 1
        for vehicle, queue in self._in_flight.items():
            while queue and queue[0][0] <= self._step:
                _, beacon = queue.popleft()
                self._delivered[vehicle] = beacon
                self.beacons_delivered += 1

    def beacon_due(self) -> bool:
        """True when the fleet should broadcast this step.

        The schedule is fleet-wide synchronous: every vehicle broadcasts
        on the same step (per-vehicle stagger would be a channel-model
        extension, not something callers can request today).
        """
        return self._step % self.beacon_interval_steps == 0

    def broadcast(
        self,
        vehicle: int,
        time: float,
        position: Tuple[float, float, float],
        velocity: Tuple[float, float, float],
    ) -> None:
        """Broadcast one beacon from ``vehicle``, applying active faults.

        Every active fault on the sender is *recorded* (and recoveries
        of previously-applied faults stamped) before any effect is
        applied, so the injection log stays complete even when a dropout
        ultimately swallows the beacon -- a co-scheduled freeze or delay
        on the same vehicle still appears in :attr:`injections`, and the
        freeze's ghost payload is still captured.
        """
        beacon = TrafficBeacon(
            vehicle=vehicle, time=time, position=position, velocity=velocity
        )
        self.beacons_sent += 1
        latency = self.latency_steps
        dropped = False
        for fault in self._faults.get(vehicle, ()):
            if not fault.active_at(time):
                # Still in the future, or recovered: record the first
                # post-recovery broadcast, and remember the healthy
                # payload so a (later) freeze can replay it.
                self._record_recovery(fault, time)
                continue
            self._record_injection(fault, time)
            if fault.kind == TrafficFaultKind.DROPOUT:
                dropped = True
            elif fault.kind == TrafficFaultKind.FREEZE:
                ghost = self._frozen.get(vehicle)
                if ghost is not None:
                    # Apparently fresh, payload frozen at the pre-fault state.
                    beacon = TrafficBeacon(
                        vehicle=vehicle,
                        time=time,
                        position=ghost.position,
                        velocity=(0.0, 0.0, 0.0),
                    )
                # Without a pre-fault beacon the first broadcast freezes
                # itself: it becomes the ghost everyone keeps seeing.
            elif fault.kind == TrafficFaultKind.DELAY:
                latency += max(int(round(fault.extra_delay_s / self.dt)), 0)
        if vehicle not in self._frozen or not self._is_frozen(vehicle, time):
            self._frozen[vehicle] = beacon
        if dropped:
            self.beacons_dropped += 1
            return
        self._in_flight[vehicle].append((self._step + latency, beacon))

    def _is_frozen(self, vehicle: int, time: float) -> bool:
        return any(
            fault.kind == TrafficFaultKind.FREEZE and fault.active_at(time)
            for fault in self._faults.get(vehicle, ())
        )

    def _record_injection(self, fault: TrafficFaultSpec, time: float) -> None:
        if fault not in self._injected:
            self._injected[fault] = TrafficInjectionRecord(
                fault=fault, scheduled_time=fault.start_time, injected_time=time
            )

    def _record_recovery(self, fault: TrafficFaultSpec, time: float) -> None:
        """Stamp the first post-recovery broadcast of an applied fault."""
        record = self._injected.get(fault)
        if (
            record is not None
            and record.recovered_time is None
            and fault.end_time is not None
            and time >= fault.end_time
        ):
            self._injected[fault] = replace(record, recovered_time=time)

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def latest(self, receiver: int, sender: int) -> Optional[TrafficBeacon]:
        """The latest delivered beacon of ``sender`` as seen by
        ``receiver`` (None before the first delivery).

        Own-ship queries (``receiver == sender``) raise: real traffic
        receivers filter out their own returns, and a vehicle needing
        its own state has its navigation estimate -- asking the channel
        for it is a workload bug.  Out-of-range indices raise for the
        same reason: a fleet-index typo must not read as "no beacon
        yet" forever.
        """
        for role, index in (("receiver", receiver), ("sender", sender)):
            if not 0 <= index < self.fleet_size:
                raise ValueError(
                    f"{role} {index} is not part of this fleet of "
                    f"{self.fleet_size} vehicle(s)"
                )
        if receiver == sender:
            raise ValueError("a vehicle does not track itself over traffic")
        return self._delivered.get(sender)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def injections(self) -> List[TrafficInjectionRecord]:
        """Coordination faults actually applied, in first-effect order."""
        return sorted(
            self._injected.values(),
            key=lambda record: (record.injected_time, record.fault.sort_key()),
        )

    @property
    def settled(self) -> bool:
        """True once every scheduled coordination fault has been applied
        and every recovering one has recovered on the air."""
        for faults in self._faults.values():
            for fault in faults:
                record = self._injected.get(fault)
                if record is None:
                    return False
                if fault.recovers and record.recovered_time is None:
                    return False
        return True

    @property
    def stats(self) -> Dict[str, int]:
        """Broadcast/delivery/drop counters."""
        return {
            "sent": self.beacons_sent,
            "delivered": self.beacons_delivered,
            "dropped": self.beacons_dropped,
        }
