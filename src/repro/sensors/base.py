"""Common sensor driver machinery.

A *sensor instance* is identified by a :class:`SensorId` (type + instance
index) and has a :class:`SensorRole` (primary or backup).  Drivers
synthesise readings from the simulated :class:`~repro.sim.state.VehicleState`
with deterministic, seeded noise so that every run is reproducible --
reproducibility underpins both the liveliness monitor (profiling runs
must be comparable) and bug replay.

The ``sample()`` method mirrors the structure the paper describes for
``libhinj``: before the channel values are handed to the firmware, an
instrumentation hook is consulted; if it answers that the instance should
fail, the read returns ``None`` instead.  With the paper's latched fault
model the hook's answer never reverts, so the instance stays failed for
the rest of the run; an intermittent fault's scheduler stops failing the
instance once its recovery window closes, and the driver reports channel
values again from the next read on.

Noise is read by position from a :class:`DeviateTable`: a driver seeds
an RNG with ``noise_seed * 7919 + instance * 104729 + 1``, draws its
constants (biases, phases) from it, and the state left behind keys the
table holding the ``gauss(0, 1)`` stream that state yields.  Each
successful read consumes the driver's :attr:`SensorDriver.DRAWS`
deviates in stream order; a failed read consumes none.  Drivers built
against one :class:`NoiseTables` store share the table of equal states,
so a seed flown again reads noise computed once.

Known defect, kept because fixing it changes every recorded digest: the
seed formula has no sensor-type term, so on the Iris suite only five of
the nine post-constructor states are distinct.  ``gyroscope[i]`` and
``accelerometer[i]`` draw the same deviate at every read, so do
``compass[0]`` and ``barometer[0]``, and ``battery[0]`` starts on
``gps[0]``'s stream (it reads none of it).
"""

from __future__ import annotations

import enum
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.sim.state import VehicleState

# The constants and functions ``random.Random.gauss`` uses, bound once.
_TWO_PI = 2.0 * math.pi
_cos, _log, _sin, _sqrt = math.cos, math.log, math.sin, math.sqrt


class SensorType(enum.Enum):
    """Types of sensors carried by the simulated Iris quadcopter."""

    GYROSCOPE = "gyroscope"
    ACCELEROMETER = "accelerometer"
    GPS = "gps"
    COMPASS = "compass"
    BAROMETER = "barometer"
    BATTERY = "battery"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class SensorRole(enum.Enum):
    """Role of a sensor instance within its redundancy group."""

    PRIMARY = "primary"
    BACKUP = "backup"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class SensorId:
    """Identifies one physical sensor instance.

    ``SensorId(SensorType.COMPASS, 0)`` is the primary compass,
    ``SensorId(SensorType.COMPASS, 1)`` the first backup, and so on.
    Instances order by ``(vehicle, sensor type name, instance index)`` so
    suites and fault scenarios have a stable, readable ordering.

    ``vehicle`` namespaces the instance within a fleet: vehicle 0 is the
    single vehicle of every classic run and its ids render exactly as
    before (``gps[0]``), so scenario hashes, cache keys and search
    strategies are unchanged for fleet size 1.  Instances on other fleet
    members render with a vehicle prefix (``v1:gps[0]``).
    """

    sensor_type: SensorType
    instance: int = 0
    vehicle: int = 0

    def __post_init__(self) -> None:
        if self.instance < 0:
            raise ValueError("instance index cannot be negative")
        if self.vehicle < 0:
            raise ValueError("vehicle index cannot be negative")

    @property
    def label(self) -> str:
        """Short human-readable label, e.g. ``gps[0]`` or ``v1:gps[0]``."""
        base = f"{self.sensor_type.value}[{self.instance}]"
        if self.vehicle == 0:
            return base
        return f"v{self.vehicle}:{base}"

    @property
    def base(self) -> "SensorId":
        """The vehicle-0 (suite-local) id of this instance."""
        if self.vehicle == 0:
            return self
        return SensorId(self.sensor_type, self.instance, 0)

    def for_vehicle(self, vehicle: int) -> "SensorId":
        """This instance namespaced to ``vehicle`` (self when unchanged)."""
        if vehicle == self.vehicle:
            return self
        return SensorId(self.sensor_type, self.instance, vehicle)

    def _sort_key(self) -> tuple:
        return (self.vehicle, self.sensor_type.value, self.instance)

    def __lt__(self, other: "SensorId") -> bool:
        if not isinstance(other, SensorId):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "SensorId") -> bool:
        if not isinstance(other, SensorId):
            return NotImplemented
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: "SensorId") -> bool:
        if not isinstance(other, SensorId):
            return NotImplemented
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: "SensorId") -> bool:
        if not isinstance(other, SensorId):
            return NotImplemented
        return self._sort_key() >= other._sort_key()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


#: Signature of the hinj instrumentation hook: given the sensor id and the
#: current simulation time, return True when the read should fail.
FailDecision = Callable[[SensorId, float], bool]


class DeviateTable:
    """The standard normal deviates one RNG state yields, by position.

    ``deviates[i]`` is what the ``i + 1``-th consecutive call of
    ``gauss(0, 1)`` would return on a ``random.Random`` set to
    :attr:`state`: the table runs the same inlined Box-Muller transform
    ``random.Random.gauss`` runs, the cached second deviate
    (``gauss_next``) included.  Each deviate is the ``z`` that
    ``gauss(0.0, sigma)`` scales, so a driver computing
    ``0.0 + z * sigma`` gets that call's value bit for bit.  The table
    grows in chunks as reads need more of the stream.
    """

    #: Deviates computed per extension beyond the one a read needs.
    CHUNK = 1024

    def __init__(self, state: tuple) -> None:
        self.state = state
        self.deviates = array("d")
        self._rng = random.Random()
        self._rng.setstate(state)

    def extend(self, count: int) -> None:
        """Compute deviates until the table holds at least ``count``.

        Deviates come in Box-Muller pairs, both kept, so the generator
        never holds a pending second deviate between extensions.
        """
        rng = self._rng
        uniform = rng.random
        deviates = self.deviates
        append = deviates.append
        if rng.gauss_next is not None:
            append(rng.gauss_next)
            rng.gauss_next = None
        target = max(count, len(deviates) + self.CHUNK)
        while len(deviates) < target:
            x2pi = uniform() * _TWO_PI
            g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
            append(_cos(x2pi) * g2rad)
            append(_sin(x2pi) * g2rad)


class NoiseTables:
    """Deviate tables shared by every driver built against this store.

    A driver's noise is a pure function of its RNG state once its
    constructor has drawn its constants, so drivers whose states are
    equal -- the same driver flown again at the same seed, or two
    drivers whose seeds coincide -- read one :class:`DeviateTable`.  A
    store lives as long as its owner (one :class:`~repro.core.runner.TestRunner`,
    hence one ``Avis`` orchestrator); a suite built without one gets a
    private store.
    """

    def __init__(self) -> None:
        self._tables: Dict[tuple, DeviateTable] = {}

    def table(self, state: tuple) -> DeviateTable:
        """The table of ``state`` (created on first use)."""
        table = self._tables.get(state)
        if table is None:
            table = self._tables[state] = DeviateTable(state)
        return table

    def __len__(self) -> int:
        return len(self._tables)


class SensorDriver:
    """Base class for all sensor drivers.

    Subclasses list their reading's layout in :attr:`CHANNELS`, the
    deviates one read consumes in :attr:`DRAWS`, set their per-instance
    constants in :meth:`_init_constants` and implement :meth:`_measure`.
    :meth:`sample` consults the instrumentation hook before measuring.
    """

    sensor_type: SensorType = SensorType.GYROSCOPE

    #: Channel names of a reading, in the order of the tuple
    #: :meth:`sample` returns.  Only channels the firmware reads exist.
    CHANNELS: Tuple[str, ...] = ()
    #: Standard normal deviates one successful read consumes, in stream
    #: order.  A draw whose channel was dropped still counts, so the
    #: stream -- and :meth:`noise_state` -- stays where it always was.
    DRAWS = 0

    def __init__(
        self,
        instance: int = 0,
        role: Optional[SensorRole] = None,
        noise_seed: int = 0,
        noise: Optional[NoiseTables] = None,
    ) -> None:
        if role is None:
            role = SensorRole.PRIMARY if instance == 0 else SensorRole.BACKUP
        self.sensor_id = SensorId(self.sensor_type, instance)
        self.role = role
        rng = random.Random(noise_seed * 7919 + instance * 104729 + 1)
        self._init_constants(rng)
        if noise is None:
            noise = NoiseTables()
        self._noise = noise.table(rng.getstate())
        self._deviates = self._noise.deviates
        # Deviates consumed so far: the next read starts here.
        self._drawn = 0
        self._hook_failed = False
        self._fail_hook: Optional[FailDecision] = None

    def _init_constants(self, rng: random.Random) -> None:
        """Set the instance's constants, drawing the random ones (biases,
        phases) from its seeded RNG; the state that leaves behind keys
        the driver's noise table."""

    # ------------------------------------------------------------------
    # Instrumentation (libhinj equivalent)
    # ------------------------------------------------------------------
    def instrument(self, fail_hook: FailDecision) -> None:
        """Install the fault-injection hook consulted on every read.

        This is the Python analogue of inserting a ``libhinj`` API call in
        the driver's ``read()`` procedure.
        """
        self._fail_hook = fail_hook

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """True while the instance is suffering a clean failure."""
        return self._hook_failed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def sample(self, state: VehicleState, time: float) -> Optional[Tuple[float, ...]]:
        """One read's channel values (laid out as :attr:`CHANNELS`), or
        ``None`` when the read fails.

        The instrumentation hook, when installed, is consulted on every
        read, mirroring the per-read ``libhinj`` query of the paper.  A
        latched fault's scheduler keeps answering yes once it has fired,
        so the failure persists for the rest of the run; when an
        intermittent fault's recovery window closes the scheduler's
        answer reverts and the driver reports channel values again.  A
        failed read consumes no noise.
        """
        if self._fail_hook is not None:
            self._hook_failed = self._fail_hook(self.sensor_id, time)
        if self._hook_failed:
            return None
        at = self._drawn
        self._drawn = end = at + self.DRAWS
        if end > len(self._deviates):
            self._noise.extend(end)
        return self._measure(state, at)

    def _measure(self, state: VehicleState, at: int) -> Tuple[float, ...]:
        """Synthesise one reading from the true state; its noise is
        ``self._deviates[at:at + DRAWS]``, in stream order."""
        raise NotImplementedError

    def noise_state(self) -> tuple:
        """The state a ``random.Random`` drawing this driver's noise with
        ``gauss(0, 1)`` calls would be in after the reads so far.

        Rebuilt by replaying those calls from the table's state; the
        read path never computes it.
        """
        rng = random.Random()
        rng.setstate(self._noise.state)
        gauss = rng.gauss
        for _ in range(self._drawn):
            gauss(0.0, 1.0)
        return rng.getstate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "failed" if self._hook_failed else "healthy"
        return f"<{type(self).__name__} {self.sensor_id.label} {self.role.value} {status}>"
