"""Fault specifications: what to fail, when -- and for how long.

The paper's scheduler "represents a fault injection scenario as a set of
tuples (Timestamp, Fault), where the fault component describes the
injected fault (e.g. sensor and instance) and the timestamp is the
simulation time when the fault was injected".  :class:`FaultSpec` is one
such tuple and :class:`FaultScenario` is the (immutable, hashable) set,
so scenarios can be stored in the scheduler's already-explored hash-set.

Beyond the paper's clean sensor failures, fleet campaigns add a
*coordination* fault family targeting the inter-vehicle traffic channel
(:mod:`repro.mavlink.traffic`): :class:`TrafficFaultSpec` schedules a
beacon dropout, a frozen (stale) beacon, or a delayed beacon on one
fleet member's broadcast, exactly like a sensor fault is scheduled on
one sensor instance.  Both spec kinds live in the same
:class:`FaultScenario`, hash together, and are enumerated by the search
strategies through the same failure-handle interface
(:func:`spec_for`).

Intermittent faults
-------------------

Both spec kinds carry an optional ``duration_s``.  The default of
``None`` is the paper's latched model -- the fault becomes active at
``start_time`` and never recovers, and every hash, label, sort order,
replay plan and cache fingerprint is bit-identical to the pre-window
grammar.  A finite ``duration_s`` makes the fault *intermittent*: it is
active only inside ``[start_time, start_time + duration_s)``, after
which the sensor read path (or the traffic channel) recovers.  Recovery
timing is itself a bug surface -- a GPS glitch that clears just after a
fail-safe engaged, a beacon dropout that ends while the follower is
rushing to catch up -- which is why the search strategies can enumerate
:class:`BurstFailure` handles scheduling bounded fault windows alongside
the latched ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.sensors.base import SensorId, SensorType


def _is_window_length(duration: float) -> bool:
    """True for a usable recovery window: finite and positive.  A NaN
    window would never be active, an infinite one never recover."""
    return math.isfinite(duration) and duration > 0.0


class _WindowedSpec:
    """Shared recovery-window behaviour of both fault spec kinds.

    A spec with ``duration_s=None`` is latched (the classic model); a
    finite duration bounds the active window.  The mixin also supplies a
    total ordering through ``sort_key`` so specs with mixed latched /
    windowed durations sort without comparing ``None`` to a float.
    """

    __slots__ = ()

    def _validate_window(self) -> None:
        """Reject a start that is negative or not finite, and a
        ``duration_s`` that is given but not finite and positive."""
        if not (math.isfinite(self.start_time) and self.start_time >= 0.0):
            raise ValueError(
                "a fault starts at a finite time >= 0 "
                "(it cannot start before the simulation begins)"
            )
        if self.duration_s is not None and not _is_window_length(self.duration_s):
            raise ValueError("duration_s, when given, must be finite and positive")

    def active_at(self, time: float) -> bool:
        """True when the fault should be in effect at ``time``."""
        if time < self.start_time:
            return False
        return self.duration_s is None or time < self.start_time + self.duration_s

    @property
    def recovers(self) -> bool:
        """True for intermittent faults (a finite recovery window)."""
        return self.duration_s is not None

    @property
    def end_time(self) -> Optional[float]:
        """Time the fault recovers, or None for latched faults."""
        if self.duration_s is None:
            return None
        return self.start_time + self.duration_s

    def _window_suffix(self) -> str:
        """Description suffix for the recovery window ('' when latched)."""
        if self.duration_s is None:
            return ""
        return f" for {self.duration_s:g}s"

    @staticmethod
    def _duration_key(duration: Optional[float]) -> float:
        """Sortable stand-in for a duration (latched = infinite window)."""
        return float("inf") if duration is None else duration

    def __lt__(self, other) -> bool:
        if not isinstance(other, _WindowedSpec):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other) -> bool:
        if not isinstance(other, _WindowedSpec):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other) -> bool:
        if not isinstance(other, _WindowedSpec):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other) -> bool:
        if not isinstance(other, _WindowedSpec):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


@dataclass(frozen=True)
class FaultSpec(_WindowedSpec):
    """A single clean sensor failure scheduled at a simulation time.

    Attributes
    ----------
    sensor_id:
        The sensor instance that stops communicating.
    start_time:
        Simulation time (seconds) at which the failure becomes active.
        From that moment on, every read of the instance reports failure.
    duration_s:
        Optional recovery window.  ``None`` (the default) is the paper's
        latched model: the instance never recovers within the run.  A
        finite duration makes the failure intermittent: reads recover
        once the window closes.
    """

    sensor_id: SensorId
    start_time: float
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        self._validate_window()

    @property
    def vehicle(self) -> int:
        """The fleet member this fault targets (0 for classic runs)."""
        return self.sensor_id.vehicle

    def for_vehicle(self, vehicle: int) -> "FaultSpec":
        """This fault re-namespaced onto ``vehicle`` (self when unchanged)."""
        if vehicle == self.sensor_id.vehicle:
            return self
        return FaultSpec(
            self.sensor_id.for_vehicle(vehicle), self.start_time, self.duration_s
        )

    def sort_key(self) -> tuple:
        """Stable ordering key; sensor faults sort before traffic faults
        in exactly the pre-traffic order among themselves (the duration
        term only breaks ties between otherwise-identical specs)."""
        return (
            0,
            self.sensor_id._sort_key(),
            self.start_time,
            self._duration_key(self.duration_s),
        )

    def describe(self) -> str:
        """Short human readable description used in reports."""
        return (
            f"{self.sensor_id.label} fails at t={self.start_time:.2f}s"
            + self._window_suffix()
        )


class TrafficFaultKind(enum.Enum):
    """The coordination fault families injectable on the traffic channel.

    * ``DROPOUT`` -- the vehicle's beacons stop being delivered; every
      receiver's view of it goes (and stays) stale.
    * ``FREEZE`` -- receivers keep getting apparently-fresh beacons, but
      the position payload is frozen at the pre-fault state and the
      velocity is zeroed, so dead-reckoning consumers track a
      stationary ghost (the classic stale-but-plausible ADS-B failure).
    * ``DELAY`` -- beacons keep flowing but arrive with an extra fixed
      delay, so every receiver tracks a delayed ghost of the vehicle.
    """

    DROPOUT = "dropout"
    FREEZE = "freeze"
    DELAY = "delay"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Default ``extra_delay_s`` of the coordination fault family.  Non-DELAY
#: specs are canonicalised to it: the parameter is meaningless for a
#: dropout or a freeze, and letting it vary would split behaviourally
#: identical scenarios into distinct hash/sort identities.
DEFAULT_EXTRA_DELAY_S = 1.0


@dataclass(frozen=True)
class TrafficFaultSpec(_WindowedSpec):
    """A coordination fault on one fleet member's beacon broadcast.

    Attributes
    ----------
    vehicle:
        The fleet member whose *outgoing* beacons are faulted (every
        other vehicle's view of it degrades).
    kind:
        The fault family (:class:`TrafficFaultKind`).
    start_time:
        Simulation time (seconds) at which the fault becomes active.
    extra_delay_s:
        Additional delivery delay for ``DELAY`` faults, in seconds.
        Meaningless for the other kinds and therefore canonicalised to
        the default there, so two dropouts differing only in this field
        are one scenario (one hash, one label, one cache entry).
    duration_s:
        Optional recovery window.  ``None`` (the default) latches the
        fault for the rest of the run, matching the sensor fault model;
        a finite duration recovers the channel once the window closes
        (dropout ends and beacons resume, a freeze thaws back to live
        payloads, a delay reverts to the base latency).
    """

    vehicle: int
    kind: TrafficFaultKind
    start_time: float
    extra_delay_s: float = DEFAULT_EXTRA_DELAY_S
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.vehicle < 0:
            raise ValueError("vehicle index cannot be negative")
        self._validate_window()
        if self.extra_delay_s < 0.0:
            raise ValueError("extra_delay_s cannot be negative")
        if (
            self.kind != TrafficFaultKind.DELAY
            and self.extra_delay_s != DEFAULT_EXTRA_DELAY_S
        ):
            # Canonicalise: only DELAY faults consume the parameter, so
            # equality, hashing, sorting and labels must not depend on
            # it for the other kinds.
            object.__setattr__(self, "extra_delay_s", DEFAULT_EXTRA_DELAY_S)

    @property
    def label(self) -> str:
        """Vehicle-namespaced label, e.g. ``traffic:v1:dropout``."""
        base = f"traffic:v{self.vehicle}:{self.kind.value}"
        if self.kind == TrafficFaultKind.DELAY:
            base += f"+{self.extra_delay_s:g}s"
        return base

    def for_vehicle(self, vehicle: int) -> "TrafficFaultSpec":
        """This fault re-namespaced onto ``vehicle`` (self when unchanged)."""
        if vehicle == self.vehicle:
            return self
        return TrafficFaultSpec(
            vehicle, self.kind, self.start_time, self.extra_delay_s, self.duration_s
        )

    def sort_key(self) -> tuple:
        return (
            1,
            self.vehicle,
            self.kind.value,
            self.extra_delay_s,
            self.start_time,
            self._duration_key(self.duration_s),
        )

    def describe(self) -> str:
        """Short human readable description used in reports."""
        return f"{self.label} at t={self.start_time:.2f}s" + self._window_suffix()


#: Either fault kind a scenario may carry.
AnyFaultSpec = Union[FaultSpec, TrafficFaultSpec]


@dataclass(frozen=True)
class TrafficFailure:
    """An enumeration handle for the coordination fault space.

    Plays the role :class:`~repro.sensors.base.SensorId` plays for the
    sensor fault space: the search strategies enumerate handles and turn
    each into a scheduled spec with :func:`spec_for`.
    """

    vehicle: int
    kind: TrafficFaultKind
    extra_delay_s: float = DEFAULT_EXTRA_DELAY_S

    def __post_init__(self) -> None:
        if (
            self.kind != TrafficFaultKind.DELAY
            and self.extra_delay_s != DEFAULT_EXTRA_DELAY_S
        ):
            # Mirror the spec-level canonicalisation: two handles that
            # produce the same scheduled fault must be one handle.
            object.__setattr__(self, "extra_delay_s", DEFAULT_EXTRA_DELAY_S)

    @property
    def label(self) -> str:
        """Vehicle-namespaced label matching the spec it produces."""
        return TrafficFaultSpec(self.vehicle, self.kind, 0.0, self.extra_delay_s).label

    def spec_at(
        self, time: float, duration_s: Optional[float] = None
    ) -> TrafficFaultSpec:
        """The scheduled fault this handle denotes at ``time``."""
        return TrafficFaultSpec(
            self.vehicle, self.kind, time, self.extra_delay_s, duration_s
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


#: A failure handle the strategies can schedule: a sensor instance or a
#: traffic-channel handle.
FailureHandle = Union[SensorId, TrafficFailure, "BurstFailure"]


@dataclass(frozen=True)
class BurstFailure:
    """A failure handle with a bounded (recovering) fault window.

    Wraps a base handle -- a sensor instance or a traffic-channel handle
    -- and schedules it as an *intermittent* fault: active for
    ``duration_s`` seconds from the injection time, then recovered.  The
    search strategies enumerate burst handles next to the latched ones,
    so recovery-window timing is explored like any other fault axis.
    """

    failure: Union[SensorId, TrafficFailure]
    duration_s: float

    def __post_init__(self) -> None:
        if isinstance(self.failure, BurstFailure):
            raise ValueError("burst handles do not nest")
        if not _is_window_length(self.duration_s):
            raise ValueError("a burst needs a finite, positive duration")

    @property
    def label(self) -> str:
        """The base handle's label with the window, e.g. ``gps[0]~3s``."""
        return f"{failure_label(self.failure)}~{self.duration_s:g}s"

    def spec_at(self, time: float) -> AnyFaultSpec:
        """The intermittent fault this handle denotes at ``time``."""
        return spec_for(self.failure, time, self.duration_s)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


def burst_failures(
    failures: Iterable[FailureHandle], durations: Sequence[float]
) -> List[BurstFailure]:
    """Burst variants of ``failures``, duration-major (all handles at the
    first duration, then the next), skipping handles that already carry a
    window."""
    return [
        BurstFailure(failure, duration)
        for duration in durations
        for failure in failures
        if not isinstance(failure, BurstFailure)
    ]


def validate_burst_durations(durations: Sequence[float]) -> Tuple[float, ...]:
    """Validate a burst-duration sweep; returns it as a tuple.

    The one shared gate every burst-capable surface (SABRE, the BFI
    family, ``Avis``, the CLI) applies to its ``burst_durations``.
    """
    durations = tuple(durations)
    if not all(_is_window_length(duration) for duration in durations):
        raise ValueError("burst durations must be finite and positive")
    return durations


def admissible_burst_windows(
    durations: Sequence[float], mission_duration: float
) -> List[Optional[float]]:
    """The recovery windows a strategy sweeps per candidate site.

    The latched window (``None``) always comes first -- in exactly the
    classic order -- followed by each burst duration that can actually
    recover within the mission; a window that outlives the mission is
    behaviourally the latched fault and is dropped rather than explored
    twice.
    """
    windows: List[Optional[float]] = [None]
    windows.extend(
        duration for duration in durations if duration < mission_duration
    )
    return windows


def spec_for(
    failure: FailureHandle, time: float, duration_s: Optional[float] = None
) -> AnyFaultSpec:
    """Schedule ``failure`` at ``time``: the one constructor the search
    strategies need, regardless of the fault family.  ``duration_s``
    bounds the fault window (None latches, as the paper's model does);
    a :class:`BurstFailure` handle carries its own window and rejects a
    conflicting override."""
    if isinstance(failure, BurstFailure):
        if duration_s is not None and duration_s != failure.duration_s:
            raise ValueError("a burst handle already carries its own duration")
        return failure.spec_at(time)
    if isinstance(failure, TrafficFailure):
        return failure.spec_at(time, duration_s)
    return FaultSpec(failure, time, duration_s)


def failure_label(failure: FailureHandle) -> str:
    """The stable display label of a failure handle."""
    return failure.label


def _spec_sort_key(spec: AnyFaultSpec) -> tuple:
    return spec.sort_key()


class FaultScenario:
    """An immutable set of fault specs forming one test scenario.

    Holds :class:`FaultSpec` (sensor) and :class:`TrafficFaultSpec`
    (coordination) entries; classic sensor-only scenarios iterate, hash
    and render exactly as they did before traffic faults existed.
    """

    __slots__ = ("_faults",)

    def __init__(self, faults: Iterable[AnyFaultSpec] = ()) -> None:
        self._faults: FrozenSet[AnyFaultSpec] = frozenset(faults)

    # ------------------------------------------------------------------
    # Set-like behaviour
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[AnyFaultSpec]:
        return iter(sorted(self._faults, key=_spec_sort_key))

    def __len__(self) -> int:
        return len(self._faults)

    def __contains__(self, fault: AnyFaultSpec) -> bool:
        return fault in self._faults

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultScenario):
            return NotImplemented
        return self._faults == other._faults

    def __hash__(self) -> int:
        return hash(self._faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f.describe() for f in self)
        return f"FaultScenario({{{inner}}})"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True for the fault-free (golden / profiling) scenario."""
        return not self._faults

    @property
    def faults(self) -> List[AnyFaultSpec]:
        """The faults, sorted for stable display."""
        return sorted(self._faults, key=_spec_sort_key)

    @property
    def sensor_faults(self) -> List[FaultSpec]:
        """The sensor faults only, sorted."""
        return sorted(
            (f for f in self._faults if isinstance(f, FaultSpec)),
            key=_spec_sort_key,
        )

    @property
    def traffic_faults(self) -> List[TrafficFaultSpec]:
        """The coordination (traffic-channel) faults only, sorted."""
        return sorted(
            (f for f in self._faults if isinstance(f, TrafficFaultSpec)),
            key=_spec_sort_key,
        )

    @property
    def recovering_faults(self) -> List[AnyFaultSpec]:
        """The intermittent faults (finite ``duration_s``), sorted."""
        return sorted(
            (f for f in self._faults if f.duration_s is not None),
            key=_spec_sort_key,
        )

    @property
    def sensor_ids(self) -> List[SensorId]:
        """The failed sensor instances, sorted, without duplicates."""
        return sorted({fault.sensor_id for fault in self.sensor_faults})

    @property
    def sensor_types(self) -> List[SensorType]:
        """The failed sensor types, without duplicates."""
        seen: List[SensorType] = []
        for sensor_id in self.sensor_ids:
            if sensor_id.sensor_type not in seen:
                seen.append(sensor_id.sensor_type)
        return seen

    def fault_for(self, sensor_id: SensorId) -> Optional[FaultSpec]:
        """The fault scheduled for ``sensor_id``, if any (earliest wins)."""
        candidates = [f for f in self.sensor_faults if f.sensor_id == sensor_id]
        if not candidates:
            return None
        return min(candidates, key=lambda fault: fault.start_time)

    def active_fault_for(
        self, sensor_id: SensorId, time: float
    ) -> Optional[FaultSpec]:
        """The fault actively failing ``sensor_id`` at ``time``, if any.

        With latched faults this is exactly :meth:`fault_for` whenever
        that fault has started; with recovery windows a sensor can carry
        several disjoint windows, and the earliest-starting *active* one
        is the fault in effect.
        """
        active = [
            f
            for f in self.sensor_faults
            if f.sensor_id == sensor_id and f.active_at(time)
        ]
        if not active:
            return None
        return min(active, key=lambda fault: fault.start_time)

    def should_fail(self, sensor_id: SensorId, time: float) -> bool:
        """True when ``sensor_id`` should report failure at ``time``."""
        return self.active_fault_for(sensor_id, time) is not None

    # ------------------------------------------------------------------
    # Fleet namespacing
    # ------------------------------------------------------------------
    @property
    def vehicles(self) -> List[int]:
        """The fleet members targeted by at least one fault, sorted."""
        return sorted({fault.vehicle for fault in self._faults})

    def for_vehicle(self, vehicle: int) -> "FaultScenario":
        """Every fault re-namespaced onto ``vehicle``."""
        return FaultScenario(fault.for_vehicle(vehicle) for fault in self._faults)

    def vehicle_view(self, vehicle: int) -> "FaultScenario":
        """The sensor faults targeting ``vehicle``, projected to
        suite-local ids.

        A fleet harness hands each vehicle's fault scheduler this view:
        the per-vehicle sensor suite identifies its drivers by vehicle-0
        ids, so the projection strips the namespace.  Coordination
        faults target the shared traffic channel, not a vehicle's sensor
        suite, so they never appear in a vehicle view.  For vehicle 0 of
        a classic (fleet size 1) run the view is the scenario itself.
        """
        mine = [fault for fault in self.sensor_faults if fault.vehicle == vehicle]
        if vehicle == 0 and len(mine) == len(self._faults):
            return self
        return FaultScenario(fault.for_vehicle(0) for fault in mine)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def extended(self, extra: Iterable[AnyFaultSpec]) -> "FaultScenario":
        """Return a new scenario with ``extra`` faults added."""
        return FaultScenario(set(self._faults) | set(extra))

    def shifted(self, offset: float) -> "FaultScenario":
        """Return a copy with every fault time shifted by ``offset``.

        Start times clamp at 0.0 (a fault cannot precede the run), so a
        large negative offset can collapse previously distinct faults --
        and therefore scenarios -- onto one another.  Recovery windows
        (``duration_s``) shift with their fault unchanged.
        """
        shifted_faults: List[AnyFaultSpec] = []
        for fault in self._faults:
            start = max(fault.start_time + offset, 0.0)
            if isinstance(fault, TrafficFaultSpec):
                shifted_faults.append(
                    TrafficFaultSpec(
                        fault.vehicle,
                        fault.kind,
                        start,
                        fault.extra_delay_s,
                        fault.duration_s,
                    )
                )
            else:
                shifted_faults.append(
                    FaultSpec(fault.sensor_id, start, fault.duration_s)
                )
        return FaultScenario(shifted_faults)

    def describe(self) -> str:
        """Multi-fault description used in reports."""
        if self.is_empty:
            return "no injected faults (golden run)"
        return "; ".join(fault.describe() for fault in self)


#: The fault-free scenario used for profiling/golden runs.
EMPTY_SCENARIO = FaultScenario()


def scenario_from_pairs(pairs: Sequence[Tuple[SensorId, float]]) -> FaultScenario:
    """Build a scenario from ``(sensor_id, start_time)`` pairs."""
    return FaultScenario(FaultSpec(sensor_id, time) for sensor_id, time in pairs)


def default_traffic_failures(
    fleet_size: int,
    kinds: Sequence[TrafficFaultKind] = (
        TrafficFaultKind.DROPOUT,
        TrafficFaultKind.FREEZE,
        TrafficFaultKind.DELAY,
    ),
    extra_delay_s: float = DEFAULT_EXTRA_DELAY_S,
) -> List[TrafficFailure]:
    """The default coordination fault space of a fleet: one handle per
    (vehicle, fault kind), in vehicle-major order."""
    if fleet_size < 2:
        return []
    return [
        TrafficFailure(vehicle, kind, extra_delay_s)
        for vehicle in range(fleet_size)
        for kind in kinds
    ]
