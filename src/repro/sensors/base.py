"""Common sensor driver machinery.

A *sensor instance* is identified by a :class:`SensorId` (type + instance
index) and has a :class:`SensorRole` (primary or backup).  Drivers
synthesise readings from the simulated :class:`~repro.sim.state.VehicleState`
with deterministic, seeded noise so that every run is reproducible --
reproducibility underpins both the liveliness monitor (profiling runs
must be comparable) and bug replay.

The ``read()`` method mirrors the structure the paper describes for
``libhinj``: before the reading is handed to the firmware, an
instrumentation hook is consulted; if it answers that the instance should
fail, the reading is replaced by a failure record.  With the paper's
latched fault model the hook's answer never reverts, so the instance
stays failed for the rest of the run; an intermittent fault's scheduler
stops failing the instance once its recovery window closes, and the
driver reports healthy readings again from the next read on.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.state import VehicleState


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


@dataclass(frozen=True)
class SensorReading:
    """One reading produced by a sensor driver.

    ``values`` holds the measurement channels (meaning depends on the
    sensor type); ``failed`` marks a clean failure -- when set, ``values``
    must not be trusted and the firmware's fault handling is expected to
    engage.
    """

    sensor_id: SensorId
    time: float
    values: Dict[str, float] = field(default_factory=dict)
    failed: bool = False

    def value(self, channel: str) -> float:
        """Return one channel, raising ``KeyError`` when absent."""
        return self.values[channel]

    @staticmethod
    def failure(sensor_id: SensorId, time: float) -> "SensorReading":
        """Construct the reading a failed instance reports."""
        return SensorReading(sensor_id=sensor_id, time=time, values={}, failed=True)


#: Signature of the hinj instrumentation hook: given the sensor id and the
#: current simulation time, return True when the read should fail.
FailDecision = Callable[[SensorId, float], bool]


class SensorDriver:
    """Base class for all sensor drivers.

    Subclasses implement :meth:`_measure` to synthesise channel values
    from the true vehicle state.  :meth:`read` adds the instrumentation
    hook and the clean-failure latch.
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
        self._failed = False
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
        """Remove the fault-injection hook (used between test runs)."""
        self._fail_hook = None

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """True while the instance is suffering a clean failure."""
        return self._failed or self._hook_failed

    @property
    def healthy(self) -> bool:
        """True while the instance has not failed."""
        return not self.failed

    def fail(self) -> None:
        """Force the instance into the failed state (never recovers)."""
        self._failed = True

    def reset(self) -> None:
        """Restore the instance to healthy (only between test runs)."""
        self._failed = False
        self._hook_failed = False

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
        answer reverts and the driver reports healthy readings again.
        A failure forced with :meth:`fail` (or left behind by a removed
        hook) never recovers.
        """
        if self._fail_hook is not None:
            self._hook_failed = self._fail_hook(self.sensor_id, time)
        if self._failed or self._hook_failed:
            return None
        return self._measure(state)

    def read(self, state: VehicleState, time: float) -> SensorReading:
        """Produce a reading for the firmware (see :meth:`sample`)."""
        values = self.sample(state, time)
        if values is None:
            return SensorReading.failure(self.sensor_id, time)
        return SensorReading(sensor_id=self.sensor_id, time=time, values=values)

    def _measure(self, state: VehicleState) -> Dict[str, float]:
        """Synthesise the channel values for one reading."""
        raise NotImplementedError

    def _noise(self, sigma: float) -> float:
        """Deterministic Gaussian noise sample with standard deviation sigma."""
        if sigma <= 0.0:
            return 0.0
        return self._rng.gauss(0.0, sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "failed" if self._failed else "healthy"
        return f"<{type(self).__name__} {self.sensor_id.label} {self.role.value} {status}>"
