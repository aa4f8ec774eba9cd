"""Unit tests for the sensor models and the sensor suite."""

import math
import random

import pytest

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
        reading = gyro.read(state_at(), 1.0)
        assert set(reading.values) == {"roll_rate", "pitch_rate", "yaw_rate"}
        assert not reading.failed

    def test_accelerometer_senses_gravity_at_rest(self):
        accel = Accelerometer()
        rest = VehicleState()
        reading = accel.read(rest, 0.0)
        assert reading.value("accel_z") == pytest.approx(GRAVITY, abs=0.5)

    def test_gps_altitude_is_quantised(self):
        gps = GpsReceiver()
        reading = gps.read(state_at(altitude=17.3), 1.0)
        assert reading.value("altitude") % GpsReceiver.VERTICAL_RESOLUTION == pytest.approx(0.0)

    def test_gps_horizontal_position_close_to_truth(self):
        gps = GpsReceiver()
        reading = gps.read(state_at(), 1.0)
        assert reading.value("north") == pytest.approx(3.0, abs=2.0)
        assert reading.value("east") == pytest.approx(4.0, abs=2.0)

    def test_compass_reports_heading_near_truth(self):
        compass = Compass()
        reading = compass.read(state_at(yaw=0.3), 1.0)
        assert reading.value("heading") == pytest.approx(0.3, abs=0.1)

    def test_barometer_tracks_altitude(self):
        baro = Barometer()
        reading = baro.read(state_at(altitude=25.0), 1.0)
        assert reading.value("altitude") == pytest.approx(25.0, abs=0.6)
        assert reading.value("pressure_hpa") < 1013.25

    def test_battery_discharges_over_time(self):
        battery = BatteryMonitor()
        early = battery.read(state_at(), 1.0)
        late_state = VehicleState(time=600.0, armed=True, on_ground=False)
        late = battery.read(late_state, 600.0)
        assert late.value("remaining") < early.value("remaining")

    def test_noise_is_deterministic_per_seed(self):
        first = Gyroscope(noise_seed=3).read(state_at(), 1.0)
        second = Gyroscope(noise_seed=3).read(state_at(), 1.0)
        assert first.values == second.values

    def test_noise_differs_between_seeds(self):
        first = Gyroscope(noise_seed=1).read(state_at(), 1.0)
        second = Gyroscope(noise_seed=2).read(state_at(), 1.0)
        assert first.values != second.values


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
        "driver_class", [Gyroscope, Accelerometer, GpsReceiver, BatteryMonitor]
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
            assert batched.read(state, step * 0.02).values == sequential.read(
                state, step * 0.02
            ).values
        assert batched._rng.getstate() == sequential._rng.getstate()


class TestCleanFailureSemantics:
    def test_fail_latches(self):
        gps = GpsReceiver()
        gps.fail()
        reading = gps.read(state_at(), 1.0)
        assert reading.failed
        assert reading.values == {}
        assert gps.failed

    def test_instrumentation_hook_fails_reads(self):
        gps = GpsReceiver()
        gps.instrument(lambda sensor_id, time: time >= 2.0)
        assert not gps.read(state_at(), 1.0).failed
        assert gps.read(state_at(), 2.5).failed
        # Failure is latched even if the hook would say no later.
        gps.remove_instrumentation()
        assert gps.read(state_at(), 3.0).failed

    def test_reset_restores_health(self):
        gps = GpsReceiver()
        gps.fail()
        gps.reset()
        assert gps.healthy
        assert not gps.read(state_at(), 1.0).failed


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

    def test_failover_to_backup(self):
        suite = iris_sensor_suite()
        primary = suite.driver(SensorId(SensorType.COMPASS, 0))
        primary.fail()
        active = suite.active_instance(SensorType.COMPASS)
        assert active is not None
        assert active.sensor_id.instance == 1

    def test_all_failed_detection(self):
        suite = iris_sensor_suite()
        for driver in suite.instances_of(SensorType.COMPASS):
            driver.fail()
        assert suite.all_failed(SensorType.COMPASS)
        assert suite.active_instance(SensorType.COMPASS) is None

    def test_read_all_and_read_active(self):
        suite = iris_sensor_suite()
        suite.driver(SensorId(SensorType.GYROSCOPE, 0)).fail()
        readings = suite.read_all(state_at(), 1.0)
        assert len(readings) == 9
        active = suite.read_active(readings, SensorType.GYROSCOPE)
        assert active is not None and active.sensor_id.instance == 1

    def test_read_active_none_when_type_exhausted(self):
        suite = minimal_sensor_suite()
        suite.driver(SensorId(SensorType.GPS, 0)).fail()
        readings = suite.read_all(state_at(), 1.0)
        assert suite.read_active(readings, SensorType.GPS) is None

    def test_instrument_all_drivers(self):
        suite = iris_sensor_suite()
        suite.instrument(lambda sensor_id, time: True)
        readings = suite.read_all(state_at(), 1.0)
        assert all(reading.failed for reading in readings.values())

    def test_duplicate_instances_rejected(self):
        with pytest.raises(ValueError):
            SensorSuite([GpsReceiver(instance=0), GpsReceiver(instance=0)])

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            SensorSuite([])

    def test_reset_restores_all(self):
        suite = iris_sensor_suite()
        suite.driver(SensorId(SensorType.GPS, 0)).fail()
        suite.reset()
        assert not suite.failed_sensor_ids()


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
