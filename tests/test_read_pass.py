"""The read pass against a reference that measures every healthy instance.

:meth:`SensorSuite.read_all` measures, per sensor type, only the first
healthy instance, primary first -- the one the estimator and the battery
check select.  The reference below is the read pass as it was before:
every instance's hook is consulted in canonical order and every healthy
instance is measured.  Both are driven through the same random latched
and intermittent hook patterns and must agree on every tick: the
``None`` pattern, each consumed reading (by ``float.hex``), each
driver's draw position and RNG end state, and the hook-call sequence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.barometer import Barometer
from repro.sensors.base import NoiseTables, SensorRole
from repro.sensors.battery import BatteryMonitor
from repro.sensors.compass import Compass
from repro.sensors.gps import GpsReceiver
from repro.sensors.imu import Accelerometer, Gyroscope
from repro.sensors.suite import UNREAD, SensorSuite, iris_sensor_suite
from repro.sim.state import AttitudeState, VehicleState

DT = 0.02


def iris_drivers():
    return iris_sensor_suite(noise_seed=3).drivers


def primary_one_drivers():
    """Every redundant type's primary is instance 1, so in canonical
    order each backup is read before its primary."""
    noise = NoiseTables()
    drivers = []
    for driver_class in (Gyroscope, Accelerometer, Compass):
        drivers.append(driver_class(instance=0, role=SensorRole.BACKUP, noise=noise))
        drivers.append(driver_class(instance=1, role=SensorRole.PRIMARY, noise=noise))
    return drivers + [
        GpsReceiver(noise=noise),
        Barometer(noise=noise),
        BatteryMonitor(noise=noise),
    ]


def dual_gps_drivers():
    noise = NoiseTables()
    return iris_sensor_suite(noise=noise).drivers + [GpsReceiver(instance=1, noise=noise)]


SUITES = {
    "iris": iris_drivers,
    "primary-1": primary_one_drivers,
    "dual-gps": dual_gps_drivers,
}


def reference_read_all(suite, state, time):
    """The read pass as it was: every healthy instance measured."""
    readings = []
    for driver in suite.drivers:
        if driver._fail_hook is not None:
            driver._hook_failed = driver._fail_hook(driver.sensor_id, time)
        if driver._hook_failed:
            readings.append(None)
            continue
        at = driver._drawn
        driver._drawn = end = at + driver.DRAWS
        if end > len(driver._deviates):
            driver._noise.extend(end)
        readings.append(driver._measure(state, at))
    return readings


def state_at(time):
    return VehicleState(
        time=time,
        position=(0.3 * time, -0.2 * time, 10.0 + 0.1 * time),
        velocity=(0.3, -0.2, 0.1),
        acceleration=(0.05, -0.02, 0.01),
        attitude=AttitudeState(0.05, -0.04, 0.3 + 0.01 * time),
    )


def hooked(windows, calls):
    """A hook failing each instance inside its ``(start tick, ticks)``
    windows (``ticks`` None: latched), logging every call."""

    def hook(sensor_id, time):
        calls.append((sensor_id, time))
        tick = round(time / DT)
        return any(
            start <= tick and (length is None or tick < start + length)
            for start, length in windows[sensor_id]
        )

    return hook


def bits(reading):
    return tuple(value.hex() for value in reading)


def consumed(suite, readings):
    """{position: reading} of the instance each type's consumer selects:
    the first that read, primary first."""
    chosen = {}
    for sensor_type in suite.sensor_types:
        for position in suite.positions(sensor_type):
            if readings[position] is not None:
                chosen[position] = readings[position]
                break
    return chosen


def fly(drivers_of, windows, ticks, measured=None):
    """Read both suites ``ticks`` times, comparing them after every tick.

    ``measured`` (a list) receives, per tick, the number of ``_measure``
    calls the suite under test made and the number of readings its
    consumers select."""
    drivers = drivers_of()
    count = [0]
    if measured is not None:
        for driver in drivers:
            measure = driver._measure

            def counted(state, at, measure=measure):
                count[0] += 1
                return measure(state, at)

            driver._measure = counted
    suite = SensorSuite(drivers)
    reference = SensorSuite(drivers_of())
    calls, reference_calls = [], []
    hooked_ids = [sensor_id for sensor_id in suite.sensor_ids if sensor_id in windows]
    suite.instrument(hooked(windows, calls), hooked_ids)
    reference.instrument(hooked(windows, reference_calls), hooked_ids)
    for tick in range(ticks):
        time = tick * DT
        count[0] = 0
        readings = suite.read_all(state_at(time), time)
        expected = reference_read_all(reference, state_at(time), time)
        assert [values is None for values in readings] == [
            values is None for values in expected
        ]
        chosen = consumed(suite, readings)
        assert chosen.keys() == consumed(reference, expected).keys()
        for position, reading in chosen.items():
            assert bits(reading) == bits(expected[position])
        for position, reading in enumerate(readings):
            if position not in chosen and reading is not None:
                assert reading is UNREAD
        assert calls == reference_calls
        assert [driver._drawn for driver in suite.drivers] == [
            driver._drawn for driver in reference.drivers
        ]
        assert [driver.noise_state() for driver in suite.drivers] == [
            driver.noise_state() for driver in reference.drivers
        ]
        assert suite.failed_sensor_ids() == reference.failed_sensor_ids()
        if measured is not None:
            measured.append((count[0], len(chosen)))
    return suite, readings


window = st.tuples(st.integers(0, 30), st.one_of(st.none(), st.integers(1, 12)))


@st.composite
def hook_patterns(draw, suite_name):
    """Per instance: not hooked, or hooked with up to three latched or
    intermittent windows (an empty list: hooked, never failed)."""
    ids = SensorSuite(SUITES[suite_name]()).sensor_ids
    windows = {}
    for sensor_id in ids:
        pattern = draw(st.one_of(st.none(), st.lists(window, max_size=3)))
        if pattern is not None:
            windows[sensor_id] = pattern
    return windows


class TestReadPassMatchesReference:
    @pytest.mark.parametrize("suite_name", sorted(SUITES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_hook_patterns(self, suite_name, data):
        fly(SUITES[suite_name], data.draw(hook_patterns(suite_name)), ticks=36)

    @pytest.mark.parametrize("suite_name", sorted(SUITES))
    def test_unhooked_suite(self, suite_name):
        fly(SUITES[suite_name], {}, ticks=20)


class TestMeasuredOncePerType:
    @pytest.mark.parametrize("suite_name", sorted(SUITES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_hook_patterns(self, suite_name, data):
        measured = []
        fly(SUITES[suite_name], data.draw(hook_patterns(suite_name)), 24, measured)
        # One measurement per type with an instance that read.
        assert [calls for calls, _ in measured] == [chosen for _, chosen in measured]

    def test_healthy_iris_tick_measures_six_of_nine(self):
        measured = []
        _, readings = fly(iris_drivers, {}, ticks=5, measured=measured)
        assert measured == [(6, 6)] * 5
        assert len(readings) == 9
        assert sum(1 for reading in readings if reading is UNREAD) == 3

    @pytest.mark.parametrize("suite_name", sorted(SUITES))
    def test_failed_primary_measures_its_backup(self, suite_name):
        suite = SensorSuite(SUITES[suite_name]())
        primaries = {
            suite.instances_of(sensor_type)[0].sensor_id
            for sensor_type in suite.sensor_types
        }
        windows = {sensor_id: [(0, None)] for sensor_id in primaries}
        measured = []
        suite, readings = fly(SUITES[suite_name], windows, ticks=3, measured=measured)
        backed = [t for t in suite.sensor_types if len(suite.positions(t)) > 1]
        assert measured == [(len(backed), len(backed))] * 3
        assert UNREAD not in readings
        assert readings.count(None) == len(primaries)

    def test_unread_is_not_none_and_does_not_unpack(self):
        assert UNREAD is not None
        with pytest.raises(ValueError):
            (_,) = UNREAD
