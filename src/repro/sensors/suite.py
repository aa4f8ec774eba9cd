"""Sensor suites: the set of sensor instances carried by an airframe.

The suite groups drivers by type, tracks which instance plays the
primary role, and exposes the operations the rest of the stack needs:

* the firmware reads every instance each control period;
* the fault injection engine enumerates instances (with roles) to build
  the fault space and applies the sensor-instance-symmetry policy;
* hinj instruments the read path of every driver (or only of the
  instances its scenario schedules faults for) in one call, once: a
  suite is built for one run and is never re-hooked or unhooked.

Each control period the firmware gets one read pass: a list of
per-instance readings in the suite's canonical order (that of
:attr:`SensorSuite.sensor_ids`), ``None`` where a read failed.  A
reading is a tuple laid out as its driver's ``CHANNELS``.  The estimator
indexes the list by position, chooses the instance it trusts for each
type, and reads that instance's tuple by position too.

The default :func:`iris_sensor_suite` mirrors a stock 3DR Iris running
ArduPilot/PX4 SITL: dual IMUs (gyroscope + accelerometer each), dual
compasses, one GPS, one barometer, and one battery monitor.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Tuple

from repro.sensors.barometer import Barometer
from repro.sensors.base import (
    FailDecision,
    NoiseTables,
    SensorDriver,
    SensorId,
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
        position = {sensor_id: index for index, sensor_id in enumerate(self._sorted_ids)}
        self._positions: Dict[SensorType, Tuple[int, ...]] = {
            sensor_type: tuple(position[d.sensor_id] for d in instances)
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
        first: the indexes of their entries in a :meth:`read_all` pass."""
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
    def failed_sensor_ids(self) -> List[SensorId]:
        """Ids of every failed instance, in stable order."""
        return [d.sensor_id for d in self.drivers if d.failed]

    # ------------------------------------------------------------------
    # Instrumentation and reading
    # ------------------------------------------------------------------
    def instrument(
        self, fail_hook: FailDecision, sensor_ids: Optional[Collection[SensorId]] = None
    ) -> None:
        """Install the fault-injection hook on every driver, or only on
        the instances in ``sensor_ids``.  A suite is hooked once, by the
        run that built it; the hook stays for the suite's lifetime."""
        for sensor_id, driver in self._drivers.items():
            if sensor_ids is None or sensor_id in sensor_ids:
                driver.instrument(fail_hook)

    def read_all(
        self, state: VehicleState, time: float
    ) -> List[Optional[Tuple[float, ...]]]:
        """Read every instance once: its reading, or ``None`` when its
        read failed, in canonical order (:attr:`sensor_ids`)."""
        return [driver.sample(state, time) for driver in self._sorted_drivers]


def iris_sensor_suite(
    noise_seed: int = 0, noise: Optional[NoiseTables] = None
) -> SensorSuite:
    """The sensor fit of the 3DR Iris used throughout the paper.

    Two IMUs (each contributing a gyroscope and an accelerometer), two
    compasses, one GPS, one barometer and one battery monitor -- seven
    distinct sensor groups, nine physical instances.  The drivers read
    their noise from ``noise`` (a store private to the suite when
    omitted).
    """
    if noise is None:
        noise = NoiseTables()
    return SensorSuite(
        driver_class(instance=instance, noise_seed=noise_seed, noise=noise)
        for driver_class, instance in (
            (Gyroscope, 0),
            (Gyroscope, 1),
            (Accelerometer, 0),
            (Accelerometer, 1),
            (Compass, 0),
            (Compass, 1),
            (GpsReceiver, 0),
            (Barometer, 0),
            (BatteryMonitor, 0),
        )
    )
