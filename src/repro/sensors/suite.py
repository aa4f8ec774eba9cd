"""Sensor suites: the set of sensor instances carried by an airframe.

The suite groups drivers by type, tracks which instance plays the
primary role, and exposes the operations the rest of the stack needs:

* the firmware reads every instance each control period and asks for the
  best healthy instance of each type;
* the fault injection engine enumerates instances (with roles) to build
  the fault space and applies the sensor-instance-symmetry policy;
* hinj instruments the read path of every driver (or only of the
  instances its scenario schedules faults for) in one call.

Each control period the firmware gets one :class:`SensorReadings`: a
flat list of per-instance channel values in the suite's canonical order,
which the estimator indexes by position.  It is also a
``Mapping[SensorId, SensorReading]``, materialising reading objects only
for callers that look readings up by id.

The default :func:`iris_sensor_suite` mirrors a stock 3DR Iris running
ArduPilot/PX4 SITL: dual IMUs (gyroscope + accelerometer each), dual
compasses, one GPS, one barometer, and one battery monitor.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sensors.barometer import Barometer
from repro.sensors.base import (
    FailDecision,
    SensorDriver,
    SensorId,
    SensorReading,
    SensorRole,
    SensorType,
)
from repro.sensors.battery import BatteryMonitor
from repro.sensors.compass import Compass
from repro.sensors.gps import GpsReceiver
from repro.sensors.imu import Accelerometer, Gyroscope
from repro.sim.state import VehicleState


class SensorSuite:
    """All sensor instances carried by the vehicle."""

    def __init__(self, drivers: Iterable[SensorDriver]) -> None:
        self._drivers: Dict[SensorId, SensorDriver] = {}
        for driver in drivers:
            if driver.sensor_id in self._drivers:
                raise ValueError(f"duplicate sensor instance {driver.sensor_id.label}")
            self._drivers[driver.sensor_id] = driver
        if not self._drivers:
            raise ValueError("a sensor suite needs at least one sensor")
        # The driver set is fixed for the suite's lifetime, so the sorted
        # orderings are computed once here.  These sorts used to run on
        # every firmware control period and dominated whole-run profiles;
        # the accessors below hand out copies of these cached lists.
        self._sorted_ids: List[SensorId] = sorted(self._drivers)
        self._sorted_drivers: List[SensorDriver] = [
            self._drivers[key] for key in self._sorted_ids
        ]
        self._types: List[SensorType] = []
        for sensor_id in self._sorted_ids:
            if sensor_id.sensor_type not in self._types:
                self._types.append(sensor_id.sensor_type)
        self._by_type: Dict[SensorType, List[SensorDriver]] = {}
        for sensor_type in self._types:
            instances = [
                d for d in self._sorted_drivers if d.sensor_type == sensor_type
            ]
            self._by_type[sensor_type] = sorted(
                instances, key=lambda d: (d.role != SensorRole.PRIMARY, d.sensor_id)
            )
        self._position: Dict[SensorId, int] = {
            sensor_id: position for position, sensor_id in enumerate(self._sorted_ids)
        }
        self._positions: Dict[SensorType, Tuple[int, ...]] = {
            sensor_type: tuple(self._position[d.sensor_id] for d in instances)
            for sensor_type, instances in self._by_type.items()
        }

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    @property
    def drivers(self) -> List[SensorDriver]:
        """Every driver in a stable order (by sensor id)."""
        return list(self._sorted_drivers)

    @property
    def sensor_ids(self) -> List[SensorId]:
        """Every sensor instance id in a stable order."""
        return list(self._sorted_ids)

    @property
    def sensor_types(self) -> List[SensorType]:
        """The distinct sensor types present in the suite."""
        return list(self._types)

    def driver(self, sensor_id: SensorId) -> SensorDriver:
        """Return the driver for ``sensor_id``."""
        return self._drivers[sensor_id]

    def instances_of(self, sensor_type: SensorType) -> List[SensorDriver]:
        """All instances of ``sensor_type`` ordered primary-first."""
        return list(self._by_type.get(sensor_type, []))

    def role_of(self, sensor_id: SensorId) -> SensorRole:
        """Return the redundancy role of ``sensor_id``."""
        return self._drivers[sensor_id].role

    def positions(self, sensor_type: SensorType) -> Tuple[int, ...]:
        """Canonical positions of ``sensor_type``'s instances, primary
        first: the indexes of their entries in :attr:`SensorReadings.samples`."""
        return self._positions.get(sensor_type, ())

    def instance_count(self, sensor_type: SensorType) -> int:
        """Number of instances of ``sensor_type`` in the suite."""
        return len(self.instances_of(sensor_type))

    def __len__(self) -> int:
        return len(self._drivers)

    def __contains__(self, sensor_id: SensorId) -> bool:
        return sensor_id in self._drivers

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def healthy_instances(self, sensor_type: SensorType) -> List[SensorDriver]:
        """Healthy instances of ``sensor_type``, primary first."""
        return [d for d in self._by_type.get(sensor_type, ()) if d.healthy]

    def active_instance(self, sensor_type: SensorType) -> Optional[SensorDriver]:
        """The instance the firmware should currently trust, if any.

        The primary is preferred; when it has failed, the lowest numbered
        healthy backup takes over (sensor fail-over).  Returns ``None``
        when every instance of the type has failed.
        """
        healthy = self.healthy_instances(sensor_type)
        return healthy[0] if healthy else None

    def all_failed(self, sensor_type: SensorType) -> bool:
        """True when no healthy instance of ``sensor_type`` remains."""
        return not self.healthy_instances(sensor_type)

    def failed_sensor_ids(self) -> List[SensorId]:
        """Ids of every failed instance, in stable order."""
        return [d.sensor_id for d in self.drivers if d.failed]

    def reset(self) -> None:
        """Restore every instance to healthy (between test runs)."""
        for driver in self._drivers.values():
            driver.reset()

    # ------------------------------------------------------------------
    # Instrumentation and reading
    # ------------------------------------------------------------------
    def instrument(
        self, fail_hook: FailDecision, sensor_ids: Optional[Collection[SensorId]] = None
    ) -> None:
        """Install the fault-injection hook on every driver, or only on
        the instances in ``sensor_ids`` (removing it from the others)."""
        for sensor_id, driver in self._drivers.items():
            if sensor_ids is None or sensor_id in sensor_ids:
                driver.instrument(fail_hook)
            else:
                driver.remove_instrumentation()

    def remove_instrumentation(self) -> None:
        """Remove the fault-injection hook from every driver."""
        for driver in self._drivers.values():
            driver.remove_instrumentation()

    def read_all(self, state: VehicleState, time: float) -> "SensorReadings":
        """Read every instance once, in canonical order."""
        return SensorReadings(
            self, time, [driver.sample(state, time) for driver in self._sorted_drivers]
        )

    def read_active(
        self, readings: "SensorReadings", sensor_type: SensorType
    ) -> Optional[SensorReading]:
        """From ``readings``, pick the one the firmware should use.

        Prefers the primary instance's reading when it is healthy,
        otherwise the first healthy backup; returns ``None`` when every
        instance of the type reported failure.
        """
        for position in self.positions(sensor_type):
            if readings.samples[position] is not None:
                return readings.reading_at(position)
        return None


class SensorReadings(Mapping):
    """One read pass over a suite.

    ``samples[i]`` holds the channel values the suite's ``i``-th instance
    (canonical order, see :meth:`SensorSuite.positions`) reported, or
    ``None`` when its read failed.  As a ``Mapping[SensorId,
    SensorReading]`` it builds each :class:`SensorReading` on first
    lookup.
    """

    __slots__ = ("_suite", "time", "samples", "_readings")

    def __init__(
        self, suite: SensorSuite, time: float, samples: List[Optional[Dict[str, float]]]
    ) -> None:
        self._suite = suite
        self.time = time
        self.samples = samples
        self._readings: List[Optional[SensorReading]] = [None] * len(samples)

    def reading_at(self, position: int) -> SensorReading:
        """The reading of the instance at canonical ``position``."""
        reading = self._readings[position]
        if reading is None:
            sensor_id = self._suite._sorted_ids[position]
            values = self.samples[position]
            if values is None:
                reading = SensorReading.failure(sensor_id, self.time)
            else:
                reading = SensorReading(sensor_id=sensor_id, time=self.time, values=values)
            self._readings[position] = reading
        return reading

    def __getitem__(self, sensor_id: SensorId) -> SensorReading:
        return self.reading_at(self._suite._position[sensor_id])

    def __contains__(self, sensor_id: object) -> bool:
        return sensor_id in self._suite._position

    def __iter__(self) -> Iterator[SensorId]:
        return iter(self._suite._sorted_ids)

    def __len__(self) -> int:
        return len(self.samples)


def iris_sensor_suite(noise_seed: int = 0) -> SensorSuite:
    """The sensor fit of the 3DR Iris used throughout the paper.

    Two IMUs (each contributing a gyroscope and an accelerometer), two
    compasses, one GPS, one barometer and one battery monitor -- seven
    distinct sensor groups, nine physical instances.
    """
    return SensorSuite(
        [
            Gyroscope(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
            Gyroscope(instance=1, role=SensorRole.BACKUP, noise_seed=noise_seed),
            Accelerometer(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
            Accelerometer(instance=1, role=SensorRole.BACKUP, noise_seed=noise_seed),
            Compass(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
            Compass(instance=1, role=SensorRole.BACKUP, noise_seed=noise_seed),
            GpsReceiver(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
            Barometer(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
            BatteryMonitor(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
        ]
    )


def minimal_sensor_suite(noise_seed: int = 0) -> SensorSuite:
    """A two-sensor suite (GPS + barometer) matching Figure 5 of the paper.

    Used by unit tests and the Figure 5 benchmark, where the fault space
    is illustrated with exactly these two sensors.
    """
    return SensorSuite(
        [
            GpsReceiver(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
            Barometer(instance=0, role=SensorRole.PRIMARY, noise_seed=noise_seed),
        ]
    )
