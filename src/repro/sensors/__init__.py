"""Sensor models with redundant instances and clean-failure semantics.

The paper's fault model (Section IV-B) is the *clean sensor failure*: a
sensor instance stops communicating with the firmware, the driver reports
the instance has failed, and the instance never recovers within the same
test run.  Every sensor driver in this package implements that contract:

* ``sample(state, time)`` returns a reading synthesised from the
  simulated vehicle state -- a tuple of the channels the firmware
  reads, laid out as the driver's ``CHANNELS`` -- or ``None`` when the
  read fails.
* The read path passes through the hinj instrumentation hook so the fault
  injection engine can fail any instance at any time-step, exactly like
  ``libhinj`` instruments the ``read()`` procedure of each driver; the
  hook is the only way a read fails.
* :meth:`~repro.sensors.suite.SensorSuite.read_all` reads every
  instance once per control period -- each read consults the hook and
  consumes its noise draws -- and hands the firmware one entry per
  instance in the suite's canonical order: ``None`` where the read
  failed, :data:`~repro.sensors.suite.UNREAD` for a healthy instance
  nobody uses, and the measured tuple for the first healthy instance
  of each type, primary first (the one the estimator and the battery
  check take).
* Noise is seeded and read by position from deviate tables
  (:class:`~repro.sensors.base.NoiseTables`): drivers whose seeded RNGs
  reach the same state share one table, and a store outlives a run, so
  a seed flown again computes no noise.  Every reading is bit-identical
  to drawing the noise with ``random.Random.gauss``.

Sensor types follow the paper: gyroscope, accelerometer, GPS, compass,
barometer, and battery monitor.  The suite groups instances into primary
and backup roles; SABRE probes primaries before backups, and the
estimator fails over from a primary to its backup.
"""

from repro.sensors.barometer import Barometer
from repro.sensors.base import (
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
from repro.sensors.suite import UNREAD, SensorSuite, iris_sensor_suite

__all__ = [
    "Accelerometer",
    "Barometer",
    "BatteryMonitor",
    "Compass",
    "GpsReceiver",
    "Gyroscope",
    "NoiseTables",
    "SensorDriver",
    "SensorId",
    "SensorRole",
    "SensorSuite",
    "SensorType",
    "UNREAD",
    "iris_sensor_suite",
]
