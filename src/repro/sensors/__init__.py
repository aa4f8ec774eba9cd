"""Sensor models with redundant instances and clean-failure semantics.

The paper's fault model (Section IV-B) is the *clean sensor failure*: a
sensor instance stops communicating with the firmware, the driver reports
the instance has failed, and the instance never recovers within the same
test run.  Every sensor driver in this package implements that contract:

* ``sample(state, time)`` returns the channel values synthesised from
  the simulated vehicle state, or ``None`` when the read fails.
* The read path passes through the hinj instrumentation hook so the fault
  injection engine can fail any instance at any time-step, exactly like
  ``libhinj`` instruments the ``read()`` procedure of each driver; the
  hook is the only way a read fails.
* :meth:`~repro.sensors.suite.SensorSuite.read_all` samples every
  instance once per control period and hands the firmware the list of
  results in the suite's canonical order.

Sensor types follow the paper: gyroscope, accelerometer, GPS, compass,
barometer, and battery monitor.  The suite groups instances into primary
and backup roles; the sensor-instance-symmetry pruning policy relies on
those roles.
"""

from repro.sensors.barometer import Barometer
from repro.sensors.base import (
    SensorDriver,
    SensorId,
    SensorRole,
    SensorType,
)
from repro.sensors.battery import BatteryMonitor
from repro.sensors.compass import Compass
from repro.sensors.gps import GpsReceiver
from repro.sensors.imu import Accelerometer, Gyroscope
from repro.sensors.suite import SensorSuite, iris_sensor_suite

__all__ = [
    "Accelerometer",
    "Barometer",
    "BatteryMonitor",
    "Compass",
    "GpsReceiver",
    "Gyroscope",
    "SensorDriver",
    "SensorId",
    "SensorRole",
    "SensorSuite",
    "SensorType",
    "iris_sensor_suite",
]
