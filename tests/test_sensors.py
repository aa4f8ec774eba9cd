"""Unit tests for the sensor models and the sensor suite."""

import copy
import random

import pytest

from repro.firmware.estimator import StateEstimator
from repro.firmware.params import FirmwareParameters
from repro.sensors import (
    Accelerometer,
    Barometer,
    BatteryMonitor,
    Compass,
    GpsReceiver,
    Gyroscope,
    NoiseTables,
    SensorId,
    SensorRole,
    SensorType,
    iris_sensor_suite,
)
from repro.sensors.base import DeviateTable
from repro.sensors.suite import SensorSuite
from repro.sim.physics import GRAVITY
from repro.sim.state import AttitudeState, VehicleState


def state_at(altitude: float = 10.0, yaw: float = 0.3) -> VehicleState:
    return VehicleState(
        time=5.0,
        position=(3.0, 4.0, altitude),
        velocity=(1.0, -0.5, 0.2),
        acceleration=(0.2, 0.1, 0.0),
        attitude=AttitudeState(yaw=yaw),
        armed=True,
        on_ground=False,
    )


def channels(driver, state, time=1.0):
    """One read of ``driver`` as a channel-name mapping."""
    values = driver.sample(state, time)
    assert len(values) == len(driver.CHANNELS)
    return dict(zip(driver.CHANNELS, values))


DRIVER_CLASSES = [
    Gyroscope,
    Accelerometer,
    GpsReceiver,
    Compass,
    Barometer,
    BatteryMonitor,
]


class TestIndividualSensors:
    def test_gyroscope_reports_rates(self):
        assert set(channels(Gyroscope(), state_at())) == {
            "roll_rate",
            "pitch_rate",
            "yaw_rate",
        }

    def test_accelerometer_senses_gravity_at_rest(self):
        values = channels(Accelerometer(), VehicleState(), 0.0)
        assert values["accel_z"] == pytest.approx(GRAVITY, abs=0.5)

    def test_gps_altitude_is_quantised(self):
        values = channels(GpsReceiver(), state_at(altitude=17.3))
        assert values["altitude"] % GpsReceiver.VERTICAL_RESOLUTION == pytest.approx(0.0)

    def test_gps_horizontal_position_close_to_truth(self):
        values = channels(GpsReceiver(), state_at())
        assert values["north"] == pytest.approx(3.0, abs=2.0)
        assert values["east"] == pytest.approx(4.0, abs=2.0)
        assert values["vel_north"] == pytest.approx(1.0, abs=0.5)
        assert values["vel_east"] == pytest.approx(-0.5, abs=0.5)

    def test_compass_reports_heading_near_truth(self):
        values = channels(Compass(), state_at(yaw=0.3))
        assert values["heading"] == pytest.approx(0.3, abs=0.1)

    def test_barometer_tracks_altitude(self):
        values = channels(Barometer(), state_at(altitude=25.0))
        assert values["altitude"] == pytest.approx(25.0, abs=0.6)

    def test_battery_discharges_over_time(self):
        battery = BatteryMonitor()
        early = channels(battery, state_at())
        late_state = VehicleState(time=600.0, armed=True, on_ground=False)
        late = channels(battery, late_state, 600.0)
        assert late["remaining"] < early["remaining"]

    def test_noise_is_deterministic_per_seed(self):
        first = Gyroscope(noise_seed=3).sample(state_at(), 1.0)
        second = Gyroscope(noise_seed=3).sample(state_at(), 1.0)
        assert first == second

    def test_noise_differs_between_seeds(self):
        first = Gyroscope(noise_seed=1).sample(state_at(), 1.0)
        second = Gyroscope(noise_seed=2).sample(state_at(), 1.0)
        assert first != second


def post_init_rng(driver):
    """A ``random.Random`` in the driver's state after its constructor."""
    rng = random.Random()
    rng.setstate(driver._noise.state)
    return rng


def gauss_reading(driver, state, rng):
    """What ``driver`` reads at ``state`` when its noise comes from one
    ``rng.gauss(0.0, 1.0)`` call per draw, in stream order."""
    twin = copy.copy(driver)
    twin._deviates = [rng.gauss(0.0, 1.0) for _ in range(driver.DRAWS)]
    return twin._measure(state, 0)


class TestDeviateTables:
    """A driver's noise is the ``gauss(0, 1)`` stream of its post-init
    RNG state, read by position from a table shared by equal states."""

    @pytest.mark.parametrize("chunk", [1, 3, DeviateTable.CHUNK])
    @pytest.mark.parametrize("seed", range(4))
    def test_table_holds_sequential_gauss_deviates(self, seed, chunk, monkeypatch):
        monkeypatch.setattr(DeviateTable, "CHUNK", chunk)
        state = random.Random(seed).getstate()
        reference = random.Random()
        reference.setstate(state)
        table = DeviateTable(state)
        # Odd targets end between the two deviates of a Box-Muller pair.
        total = 0
        for count in (3, 1, 6, 2, 0, 5, 3, 2049):
            total += count
            table.extend(total)
            assert len(table.deviates) >= total
        expected = [reference.gauss(0, 1) for _ in range(len(table.deviates))]
        assert list(table.deviates) == expected

    def test_a_pending_second_deviate_comes_first(self):
        rng = random.Random(11)
        rng.gauss(0, 1)
        assert rng.gauss_next is not None
        table = DeviateTable(rng.getstate())
        table.extend(5)
        assert list(table.deviates) == [
            rng.gauss(0, 1) for _ in range(len(table.deviates))
        ]

    @pytest.mark.parametrize("driver_class", DRIVER_CLASSES)
    def test_noise_state_matches_the_reference_rng(self, driver_class):
        driver = driver_class(noise_seed=4)
        reference = post_init_rng(driver)
        assert driver.noise_state() == reference.getstate()
        driver.instrument(lambda sensor_id, time: 1.0 <= time < 2.0)
        for step in range(150):
            if driver.sample(state_at(), step * 0.02) is not None:
                for _ in range(driver.DRAWS):
                    reference.gauss(0, 1)
            assert driver.noise_state() == reference.getstate()
        assert driver._drawn == 100 * driver.DRAWS

    @pytest.mark.parametrize("driver_class", DRIVER_CLASSES)
    def test_readings_match_one_gauss_call_per_channel(self, driver_class):
        driver = driver_class(noise_seed=5)
        # The sequential twin draws from its own generator, never from a
        # table; 1100 reads outgrow the first chunk of every table.
        reference = post_init_rng(driver)
        for step in range(1100):
            state = state_at(altitude=10.0 + 0.37 * step, yaw=0.01 * step)
            expected = gauss_reading(driver, state, reference)
            assert driver.sample(state, step * 0.02) == expected
        assert driver.noise_state() == reference.getstate()

    def test_a_tick_draws_the_deviates_it_always_drew(self):
        """One ``gauss`` call per noisy channel, as before any channel was
        dropped: the GPS's vertical velocity and the battery's voltage
        and current still advance their streams."""
        drivers = iris_sensor_suite().drivers
        assert {type(driver): driver.DRAWS for driver in drivers} == {
            Gyroscope: 3,
            Accelerometer: 3,
            Compass: 1,
            GpsReceiver: 6,
            Barometer: 1,
            BatteryMonitor: 2,
        }
        assert sum(driver.DRAWS for driver in drivers) == 23

    def test_equal_states_share_one_table(self):
        store = NoiseTables()
        gyro = Gyroscope(instance=1, noise_seed=2, noise=store)
        again = Gyroscope(instance=1, noise_seed=2, noise=store)
        # Same seed, same three constant draws: the same state.
        accel = Accelerometer(instance=1, noise_seed=2, noise=store)
        other_seed = Gyroscope(instance=1, noise_seed=3, noise=store)
        other_instance = Gyroscope(instance=0, noise_seed=2, noise=store)
        compass = Compass(instance=1, noise_seed=2, noise=store)
        assert gyro._noise is again._noise is accel._noise
        distinct = (gyro, other_seed, other_instance, compass)
        assert len({id(driver._noise) for driver in distinct}) == 4
        assert len(store) == 4
        # Without a store each driver's table is its own.
        assert Gyroscope(noise_seed=2)._noise is not Gyroscope(noise_seed=2)._noise

    def test_a_shared_table_serves_each_driver_from_its_own_position(self):
        store = NoiseTables()
        first = Gyroscope(noise_seed=6, noise=store)
        for step in range(10):
            first.sample(state_at(), step * 0.02)
        second = Gyroscope(noise_seed=6, noise=store)
        alone = Gyroscope(noise_seed=6)
        for step in range(5):
            assert second.sample(state_at(), step * 0.02) == alone.sample(
                state_at(), step * 0.02
            )
        assert second.noise_state() == alone.noise_state() != first.noise_state()

    def test_the_iris_suite_has_five_distinct_noise_streams(self):
        """The seed formula has no sensor-type term, so gyroscope[i] and
        accelerometer[i], compass[0] and barometer[0], and gps[0] and
        battery[0] start from equal states.  Fixing the seeds changes
        every run digest; this pin makes that a deliberate re-pin."""
        suite = iris_sensor_suite(noise_seed=0)
        groups = {}
        for driver in suite.drivers:
            groups.setdefault(driver._noise.state, []).append(driver.sensor_id.label)
        assert sorted(sorted(labels) for labels in groups.values()) == [
            ["accelerometer[0]", "gyroscope[0]"],
            ["accelerometer[1]", "gyroscope[1]"],
            ["barometer[0]", "compass[0]"],
            ["battery[0]", "gps[0]"],
            ["compass[1]"],
        ]
        assert len({id(driver._noise) for driver in suite.drivers}) == 5


class TestCleanFailureSemantics:
    def test_instrumentation_hook_fails_reads(self):
        gps = GpsReceiver()
        gps.instrument(lambda sensor_id, time: time >= 2.0)
        assert gps.sample(state_at(), 1.0) is not None
        assert not gps.failed
        assert gps.sample(state_at(), 2.5) is None
        assert gps.failed


class TestSensorSuite:
    def test_iris_suite_composition(self):
        suite = iris_sensor_suite()
        assert len(suite) == 9
        assert suite.instance_count(SensorType.GYROSCOPE) == 2
        assert suite.instance_count(SensorType.ACCELEROMETER) == 2
        assert suite.instance_count(SensorType.COMPASS) == 2
        assert suite.instance_count(SensorType.GPS) == 1
        assert suite.instance_count(SensorType.BAROMETER) == 1
        assert suite.instance_count(SensorType.BATTERY) == 1

    def test_primary_first_ordering(self):
        suite = iris_sensor_suite()
        compasses = suite.instances_of(SensorType.COMPASS)
        assert compasses[0].role == SensorRole.PRIMARY
        assert compasses[1].role == SensorRole.BACKUP

    def test_positions_index_read_all_primary_first(self):
        suite = iris_sensor_suite()
        ids = suite.sensor_ids
        for sensor_type in suite.sensor_types:
            assert [ids[p] for p in suite.positions(sensor_type)] == [
                driver.sensor_id for driver in suite.instances_of(sensor_type)
            ]
        assert suite.positions(SensorType.GPS) == (ids.index(SensorId(SensorType.GPS, 0)),)

    def test_read_all_fails_exactly_the_hooked_instances(self):
        suite = iris_sensor_suite()
        gyro0 = SensorId(SensorType.GYROSCOPE, 0)
        suite.instrument(lambda sensor_id, time: True, {gyro0})
        readings = suite.read_all(state_at(), 1.0)
        assert len(readings) == 9
        failed = [i for i, values in enumerate(readings) if values is None]
        assert failed == [suite.sensor_ids.index(gyro0)]
        assert suite.failed_sensor_ids() == [gyro0]

    def test_instrument_all_drivers(self):
        suite = iris_sensor_suite()
        suite.instrument(lambda sensor_id, time: True)
        readings = suite.read_all(state_at(), 1.0)
        assert readings == [None] * len(suite)
        assert suite.failed_sensor_ids() == suite.sensor_ids

    def test_duplicate_instances_rejected(self):
        with pytest.raises(ValueError):
            SensorSuite([GpsReceiver(instance=0), GpsReceiver(instance=0)])

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            SensorSuite([])

    def test_no_active_instance_when_type_exhausted(self):
        suite = SensorSuite([GpsReceiver(), Barometer()])
        gps = SensorId(SensorType.GPS, 0)
        suite.instrument(lambda sensor_id, time: True, {gps})
        estimator = StateEstimator(suite, FirmwareParameters())
        _, events = estimator.update(suite.read_all(state_at(), 1.0), 0.02, 1.0)
        assert estimator.active_instance(SensorType.GPS) is None
        assert estimator.active_instance(SensorType.BAROMETER) == SensorId(
            SensorType.BAROMETER, 0
        )
        assert [(event.sensor_id, event.type_exhausted) for event in events] == [
            (gps, True)
        ]


class TestSensorId:
    def test_ordering_is_stable_and_by_type_name(self):
        ids = [
            SensorId(SensorType.GYROSCOPE, 1),
            SensorId(SensorType.ACCELEROMETER, 0),
            SensorId(SensorType.GYROSCOPE, 0),
        ]
        ordered = sorted(ids)
        assert ordered[0].sensor_type == SensorType.ACCELEROMETER
        assert ordered[1] == SensorId(SensorType.GYROSCOPE, 0)

    def test_label(self):
        assert SensorId(SensorType.GPS, 0).label == "gps[0]"

    def test_rejects_negative_instance(self):
        with pytest.raises(ValueError):
            SensorId(SensorType.GPS, -1)
