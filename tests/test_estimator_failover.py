"""The estimator's failed-sensor tick against a recompute-every-tick reference.

:class:`StateEstimator` keeps the last tick's pattern of failed reads and,
while it repeats, reuses the fail-over selection and skips failure
detection.  The reference below is the estimator as it was before: it
re-runs failure detection, re-selects the active instance of every fused
type and rebuilds the failed-instance list on every tick with a failed
read.  Both are fed the same read passes, whose hook fails instances in
patterns drawn at random, and must agree tick by tick on the failure
events, the active instance of every fused type, the status and every
estimate field.
"""

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.firmware.estimator import (
    _FUSED_TYPES,
    EstimatorStatus,
    SensorFailureEvent,
    StateEstimator,
)
from repro.firmware.params import FirmwareParameters
from repro.sensors.barometer import Barometer
from repro.sensors.base import NoiseTables, SensorRole, SensorType
from repro.sensors.battery import BatteryMonitor
from repro.sensors.compass import Compass
from repro.sensors.gps import GpsReceiver
from repro.sensors.imu import Accelerometer, Gyroscope
from repro.sensors.suite import SensorSuite, iris_sensor_suite
from repro.sim.state import AttitudeState, VehicleState


class ReferenceEstimator(StateEstimator):
    """Selection, failure detection and status recomputed on every tick
    with a failed read."""

    def __init__(self, suite, params):
        super().__init__(suite, params)
        self._read_primaries = (
            itemgetter(*self._primaries) if None not in self._primaries else None
        )
        self._failed = None
        self._any_failed = True

    def update(self, samples, dt, time):
        missing = None in samples
        failure_events = self._detect_failures(samples, time) if missing else ()
        if missing or self._read_primaries is None:
            self._active = tuple(
                next((position for position in positions if samples[position] is not None), None)
                for positions in self._fused
            )
            gyro, accel, compass, gps, baro = [
                None if position is None else samples[position] for position in self._active
            ]
        else:
            self._active = self._primaries
            gyro, accel, compass, gps, baro = self._read_primaries(samples)

        self._update_attitude(gyro, accel, dt)
        self._update_heading(gyro, compass, dt)
        self._update_vertical(accel, baro, gps, dt)
        self._update_horizontal(accel, gps, dt, time)
        if missing or self._any_failed:
            self._update_status(samples, time)
        self._estimate.time = time
        return self._estimate, failure_events

    def _detect_failures(self, samples, time):
        events = []
        for position, values in enumerate(samples):
            if values is not None or self._known_failed[position]:
                continue
            self._known_failed[position] = True
            sensor_id = self._sensor_ids[position]
            previously_active = self.active_instance(sensor_id.sensor_type)
            if previously_active is None:
                was_active = self._suite.role_of(sensor_id) == SensorRole.PRIMARY
            else:
                was_active = previously_active == sensor_id
            type_exhausted = all(
                samples[other] is None
                for other in self._suite.positions(sensor_id.sensor_type)
            )
            events.append(
                SensorFailureEvent(
                    sensor_id=sensor_id,
                    time=time,
                    was_active_instance=was_active,
                    type_exhausted=type_exhausted,
                )
            )
        return events

    def _update_status(self, samples, time):
        failed = [values is None for values in samples]
        self._any_failed = True in failed
        gps_failed = bool(self._gps_positions) and all(
            failed[position] for position in self._gps_positions
        )
        if failed == self._failed and not gps_failed:
            return
        status = self._estimate.status
        if failed != self._failed:
            self._failed = failed
            types = self._suite.sensor_types
            healthy = frozenset(
                sensor_type
                for sensor_type in types
                if not all(failed[position] for position in self._suite.positions(sensor_type))
            )
            failed_types = frozenset(set(types) - set(healthy))
        else:
            healthy, failed_types = status.healthy_types, status.failed_types
        baro_failed = SensorType.BAROMETER in failed_types
        altitude_source = "barometer"
        if baro_failed:
            altitude_source = "gps" if not gps_failed else "inertial"
        position_valid = True
        if gps_failed and (time - self._gps_last_seen) > self._params.gps_timeout_s:
            position_valid = False
        heading_valid = SensorType.COMPASS in healthy or SensorType.GYROSCOPE in healthy
        self._estimate.status = EstimatorStatus(
            healthy_types=healthy,
            failed_types=failed_types,
            altitude_source=altitude_source,
            position_valid=position_valid,
            heading_valid=heading_valid,
        )


def dual_sensor_suite():
    """Two instances of every fused type, GPS and barometer included."""
    noise = NoiseTables()
    return SensorSuite(
        driver_class(instance=instance, noise=noise)
        for driver_class in (Gyroscope, Accelerometer, Compass, GpsReceiver, Barometer)
        for instance in (0, 1)
    )


def gyro_free_suite():
    """A suite without a gyroscope: the estimator always takes its
    general selection path."""
    noise = NoiseTables()
    return SensorSuite(
        driver_class(instance=0, noise=noise)
        for driver_class in (Accelerometer, Compass, GpsReceiver, Barometer, BatteryMonitor)
    )


SUITES = {
    "iris": iris_sensor_suite,
    "dual": dual_sensor_suite,
    "gyro-free": gyro_free_suite,
}

DT = 0.05


def estimate_bits(estimate):
    return tuple(
        getattr(estimate, name).hex()
        for name in (
            "time",
            "north",
            "east",
            "altitude",
            "vel_north",
            "vel_east",
            "climb_rate",
            "roll",
            "pitch",
            "yaw",
        )
    )


def fly_patterns(suite_name, segments):
    """Feed both estimators the same read passes, the hook failing the
    positions of each ``(ticks, failed_positions)`` segment in turn, and
    compare them after every tick.  Returns the estimator and the number
    of failure events seen."""
    suite = SUITES[suite_name]()
    # The read pass measures only the instance each type's consumer
    # takes, so failures come from the hook, as in a run.
    position_of = {sensor_id: index for index, sensor_id in enumerate(suite.sensor_ids)}
    failing = [frozenset()]
    suite.instrument(lambda sensor_id, time: position_of[sensor_id] in failing[0])
    params = FirmwareParameters()
    estimator = StateEstimator(suite, params)
    reference = ReferenceEstimator(suite, params)
    events_seen = 0
    tick = 0
    for ticks, failed in segments:
        failing[0] = failed
        for _ in range(ticks):
            time = tick * DT
            state = VehicleState(
                time=time,
                position=(0.3 * time, -0.2 * time, 10.0 + 0.1 * time),
                velocity=(0.3, -0.2, 0.1),
                attitude=AttitudeState(0.05, -0.04, 0.3),
            )
            samples = suite.read_all(state, time)
            assert [values is None for values in samples] == [
                position in failed for position in range(len(samples))
            ]
            estimate, events = estimator.update(list(samples), DT, time)
            expected, expected_events = reference.update(list(samples), DT, time)
            assert list(events) == list(expected_events)
            events_seen += len(expected_events)
            for sensor_type in _FUSED_TYPES:
                assert estimator.active_instance(sensor_type) == reference.active_instance(
                    sensor_type
                )
            assert estimate.status == expected.status
            assert estimate_bits(estimate) == estimate_bits(expected)
            tick += 1
    return estimator, events_seen


def positions_of(suite_name, sensor_type):
    return frozenset(SUITES[suite_name]().positions(sensor_type))


#: Named pattern sequences over the Iris suite (positions: gyroscopes 0-1,
#: accelerometers 2-3, compasses 4-5, GPS 6, barometer 7, battery 8).
SCENARIOS = {
    "latched compass": ("iris", [(10, frozenset()), (60, frozenset({4}))]),
    "recovery then re-failure": (
        "iris",
        [(10, frozenset()), (20, frozenset({2})), (20, frozenset()), (20, frozenset({2}))],
    ),
    "both gyroscopes": ("iris", [(5, frozenset()), (10, frozenset({0})), (30, frozenset({0, 1}))]),
    "gps out past the timeout": ("iris", [(10, frozenset()), (80, frozenset({6}))]),
    "gps and barometer": ("iris", [(10, frozenset()), (60, frozenset({6, 7}))]),
    "both gps receivers": (
        "dual",
        [(10, frozenset()), (10, frozenset({6})), (70, frozenset({6, 7})), (10, frozenset())],
    ),
    "failed from the first tick": ("iris", [(30, frozenset({0, 7}))]),
    "gyro-free suite": ("gyro-free", [(10, frozenset()), (30, frozenset({2})), (10, frozenset())]),
}


class TestFailoverMatchesReference:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_reference(self, name):
        suite_name, segments = SCENARIOS[name]
        _, events_seen = fly_patterns(suite_name, segments)
        assert events_seen >= 1

    def test_gps_timeout_invalidates_position(self):
        # 80 ticks of 50 ms is 4 s of GPS loss, past the 2 s timeout.
        assert 80 * DT > FirmwareParameters().gps_timeout_s
        estimator, _ = fly_patterns(*SCENARIOS["gps out past the timeout"])
        assert not estimator.status.position_valid

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), suite_name=st.sampled_from(sorted(SUITES)))
    def test_random_patterns_match_reference(self, data, suite_name):
        count = len(SUITES[suite_name]())
        type_pairs = [
            positions_of(suite_name, sensor_type)
            for sensor_type in _FUSED_TYPES
            if len(positions_of(suite_name, sensor_type)) > 1
        ]
        pattern = st.one_of(
            st.just(frozenset()),
            st.frozensets(st.integers(0, count - 1), max_size=count),
            *([st.sampled_from(type_pairs)] if type_pairs else []),
        )
        segments = data.draw(
            st.lists(st.tuples(st.integers(1, 60), pattern), min_size=1, max_size=8)
        )
        fly_patterns(suite_name, segments)
