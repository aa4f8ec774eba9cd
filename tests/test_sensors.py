"""Unit tests for the sensor models and the sensor suite."""

import math
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
    SensorId,
    SensorRole,
    SensorType,
    iris_sensor_suite,
)
from repro.sensors.suite import SensorSuite, minimal_sensor_suite
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


class TestIndividualSensors:
    def test_gyroscope_reports_rates(self):
        gyro = Gyroscope()
        values = gyro.sample(state_at(), 1.0)
        assert set(values) == {"roll_rate", "pitch_rate", "yaw_rate"}

    def test_accelerometer_senses_gravity_at_rest(self):
        accel = Accelerometer()
        rest = VehicleState()
        values = accel.sample(rest, 0.0)
        assert values["accel_z"] == pytest.approx(GRAVITY, abs=0.5)

    def test_gps_altitude_is_quantised(self):
        gps = GpsReceiver()
        values = gps.sample(state_at(altitude=17.3), 1.0)
        assert values["altitude"] % GpsReceiver.VERTICAL_RESOLUTION == pytest.approx(0.0)

    def test_gps_horizontal_position_close_to_truth(self):
        gps = GpsReceiver()
        values = gps.sample(state_at(), 1.0)
        assert values["north"] == pytest.approx(3.0, abs=2.0)
        assert values["east"] == pytest.approx(4.0, abs=2.0)

    def test_compass_reports_heading_near_truth(self):
        compass = Compass()
        values = compass.sample(state_at(yaw=0.3), 1.0)
        assert values["heading"] == pytest.approx(0.3, abs=0.1)

    def test_barometer_tracks_altitude(self):
        baro = Barometer()
        values = baro.sample(state_at(altitude=25.0), 1.0)
        assert values["altitude"] == pytest.approx(25.0, abs=0.6)
        assert values["pressure_hpa"] < 1013.25

    def test_battery_discharges_over_time(self):
        battery = BatteryMonitor()
        early = battery.sample(state_at(), 1.0)
        late_state = VehicleState(time=600.0, armed=True, on_ground=False)
        late = battery.sample(late_state, 600.0)
        assert late["remaining"] < early["remaining"]

    def test_noise_is_deterministic_per_seed(self):
        first = Gyroscope(noise_seed=3).sample(state_at(), 1.0)
        second = Gyroscope(noise_seed=3).sample(state_at(), 1.0)
        assert first == second

    def test_noise_differs_between_seeds(self):
        first = Gyroscope(noise_seed=1).sample(state_at(), 1.0)
        second = Gyroscope(noise_seed=2).sample(state_at(), 1.0)
        assert first != second


class TestBatchedNoise:
    """``SensorDriver._normals`` is k ``gauss(0, 1)`` calls, state-exact."""

    @pytest.mark.parametrize("seed", range(8))
    def test_normals_match_sequential_gauss(self, seed):
        driver = Gyroscope(noise_seed=seed)
        reference = random.Random()
        reference.setstate(driver._rng.getstate())
        # Odd counts leave a cached second deviate (``gauss_next``) for
        # the next batch to consume first.
        for count in (3, 1, 6, 2, 0, 5, 3):
            assert driver._normals(count) == [reference.gauss(0, 1) for _ in range(count)]
            assert driver._rng.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "driver_class",
        [Gyroscope, Accelerometer, GpsReceiver, Compass, Barometer, BatteryMonitor],
    )
    def test_readings_match_one_gauss_call_per_channel(self, driver_class, monkeypatch):
        batched = driver_class(noise_seed=5)
        sequential = driver_class(noise_seed=5)
        monkeypatch.setattr(
            sequential,
            "_normals",
            lambda count: [sequential._rng.gauss(0.0, 1.0) for _ in range(count)],
        )
        for step in range(40):
            state = state_at(altitude=10.0 + 0.37 * step, yaw=0.01 * step)
            assert batched.sample(state, step * 0.02) == sequential.sample(
                state, step * 0.02
            )
        assert batched._rng.getstate() == sequential._rng.getstate()


class TestCleanFailureSemantics:
    def test_instrumentation_hook_fails_reads(self):
        gps = GpsReceiver()
        gps.instrument(lambda sensor_id, time: time >= 2.0)
        assert gps.sample(state_at(), 1.0) is not None
        assert not gps.failed
        assert gps.sample(state_at(), 2.5) is None
        assert gps.failed
        # The hook's last answer stands once the hook is removed.
        gps.remove_instrumentation()
        assert gps.sample(state_at(), 3.0) is None


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
        suite = minimal_sensor_suite()
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
