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
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

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


class SensorDriver:
    """Base class for all sensor drivers.

    Subclasses implement :meth:`_measure` to synthesise channel values
    from the true vehicle state.  :meth:`sample` consults the
    instrumentation hook before measuring.
    """

    sensor_type: SensorType = SensorType.GYROSCOPE

    def __init__(
        self,
        instance: int = 0,
        role: SensorRole = SensorRole.PRIMARY,
        noise_seed: int = 0,
    ) -> None:
        self.sensor_id = SensorId(self.sensor_type, instance)
        self.role = role
        self._rng = random.Random(noise_seed * 7919 + instance * 104729 + 1)
        self._hook_failed = False
        self._fail_hook: Optional[FailDecision] = None

    # ------------------------------------------------------------------
    # Instrumentation (libhinj equivalent)
    # ------------------------------------------------------------------
    def instrument(self, fail_hook: FailDecision) -> None:
        """Install the fault-injection hook consulted on every read.

        This is the Python analogue of inserting a ``libhinj`` API call in
        the driver's ``read()`` procedure.
        """
        self._fail_hook = fail_hook

    def remove_instrumentation(self) -> None:
        """Remove the fault-injection hook; the instance keeps the
        health the hook's last answer gave it."""
        self._fail_hook = None

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
    def sample(self, state: VehicleState, time: float) -> Optional[Dict[str, float]]:
        """One read's channel values, or ``None`` when the read fails.

        The instrumentation hook, when installed, is consulted on every
        read, mirroring the per-read ``libhinj`` query of the paper.  A
        latched fault's scheduler keeps answering yes once it has fired,
        so the failure persists for the rest of the run; when an
        intermittent fault's recovery window closes the scheduler's
        answer reverts and the driver reports channel values again.  A
        failure left behind by a removed hook never recovers.
        """
        if self._fail_hook is not None:
            self._hook_failed = self._fail_hook(self.sensor_id, time)
        if self._hook_failed:
            return None
        return self._measure(state)

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        """Synthesise the channel values for one reading."""
        raise NotImplementedError

    def _normals(self, count: int) -> List[float]:
        """``count`` standard normal deviates in one pass.

        State-exact batching of ``count`` calls to ``rng.gauss(0, 1)``:
        the same inlined Box-Muller transform ``random.Random.gauss``
        runs, consuming and leaving the RNG state -- the cached second
        deviate ``gauss_next`` included -- exactly as those calls would.
        Each deviate is the ``z`` that ``gauss(0.0, sigma)`` scales, so a
        caller computing ``0.0 + z * sigma`` gets ``gauss(0.0, sigma)``
        bit for bit.
        """
        rng = self._rng
        uniform = rng.random
        pending = rng.gauss_next
        values = []
        for _ in range(count):
            if pending is not None:
                values.append(pending)
                pending = None
            else:
                x2pi = uniform() * _TWO_PI
                g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
                values.append(_cos(x2pi) * g2rad)
                pending = _sin(x2pi) * g2rad
        rng.gauss_next = pending
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "failed" if self._hook_failed else "healthy"
        return f"<{type(self).__name__} {self.sensor_id.label} {self.role.value} {status}>"
