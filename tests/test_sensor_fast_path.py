"""Pins for the sensor -> hinj -> estimator read path.

* The scheduler's compiled fault-window table answers exactly as the
  scenario-scanning semantics it replaced (a reference model kept here),
  injection and recovery records included.
* Only faulted instances are queried; the answers are unchanged.
* Whole reference-stepper runs -- traces, injections, mode transitions,
  verdicts, cache keys and every driver's RNG state after the run --
  hash to digests recorded before the fast path existed.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.core.config import RunConfiguration
from repro.core.monitor import InvariantMonitor
from repro.core.runner import SimulationHarness
from repro.engine.cache import scenario_key
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.hinj.instrumentation import HinjInterface
from repro.hinj.scheduler import FaultScheduler, InjectionRecord
from repro.sensors.base import SensorId, SensorType
from repro.sensors.suite import iris_sensor_suite
from repro.sim.state import VehicleState
from repro.workloads.builtin import AutoWorkload
from repro.workloads.fleet import MultiPadTakeoffLandWorkload

GPS = SensorId(SensorType.GPS, 0)
BARO = SensorId(SensorType.BAROMETER, 0)
COMPASS0 = SensorId(SensorType.COMPASS, 0)
COMPASS1 = SensorId(SensorType.COMPASS, 1)
GYRO0 = SensorId(SensorType.GYROSCOPE, 0)
ACCEL1 = SensorId(SensorType.ACCELEROMETER, 1)


class ReferenceScheduler:
    """The per-read scan the window table replaced: every query scans the
    scenario's sorted sensor faults and stamps recoveries by sensor id."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.injected = {}

    def should_fail(self, sensor_id, time):
        for fault, record in list(self.injected.items()):
            if (
                record.sensor_id == sensor_id
                and record.recovered_time is None
                and fault.end_time is not None
                and time >= fault.end_time
            ):
                self.injected[fault] = replace(record, recovered_time=time)
        fault = self.scenario.active_fault_for(sensor_id, time)
        if fault is None:
            return False
        if fault not in self.injected:
            self.injected[fault] = InjectionRecord(
                sensor_id=sensor_id,
                scheduled_time=fault.start_time,
                injected_time=time,
                duration_s=fault.duration_s,
            )
        return True

    @property
    def injections(self):
        return sorted(
            self.injected.values(),
            key=lambda record: (record.injected_time, record.sensor_id),
        )


def random_scenario(rng, vehicles=1):
    """Overlapping windows, equal start times, latched and burst faults."""
    sensors = [GPS, BARO, COMPASS0, COMPASS1]
    starts = [1.0, 2.0, 2.5, 4.0]
    faults = []
    for _ in range(rng.randint(1, 7)):
        sensor = rng.choice(sensors).for_vehicle(rng.randrange(vehicles))
        duration = rng.choice([None, 0.5, 1.0, 1.5, 3.0])
        faults.append(FaultSpec(sensor, rng.choice(starts), duration))
    return FaultScenario(faults)


def query_times(scenario, rng):
    """A sorted query grid hitting every window edge exactly."""
    times = {0.0, 10.0}
    for fault in scenario.sensor_faults:
        times.add(fault.start_time)
        if fault.end_time is not None:
            times.add(fault.end_time)
    times.update(round(rng.uniform(0.0, 8.0), 2) for _ in range(20))
    return sorted(times)


class TestCompiledWindowTable:
    @pytest.mark.parametrize("seed", range(60))
    def test_answers_and_records_match_the_scanning_scheduler(self, seed):
        rng = random.Random(seed)
        scenario = random_scenario(rng)
        compiled, reference = FaultScheduler(scenario), ReferenceScheduler(scenario)
        for time in query_times(scenario, rng):
            for sensor in (GPS, BARO, COMPASS0, COMPASS1, GYRO0):
                expected = reference.should_fail(sensor, time)
                assert compiled.should_fail(sensor, time) == expected
                assert expected == (scenario.active_fault_for(sensor, time) is not None)
            assert compiled.injections == reference.injections

    @pytest.mark.parametrize("seed", range(30))
    def test_fleet_vehicle_views_match(self, seed):
        rng = random.Random(1000 + seed)
        scenario = random_scenario(rng, vehicles=2)
        for vehicle in (0, 1):
            view = scenario.vehicle_view(vehicle)
            compiled, reference = FaultScheduler(view), ReferenceScheduler(view)
            for time in query_times(view, rng):
                for sensor in (GPS, BARO, COMPASS0, COMPASS1):
                    assert compiled.should_fail(sensor, time) == reference.should_fail(
                        sensor, time
                    )
            assert compiled.injections == reference.injections

    def test_equal_starts_pick_the_shorter_window(self):
        scenario = FaultScenario([FaultSpec(GPS, 2.0), FaultSpec(GPS, 2.0, 1.0)])
        scheduler = FaultScheduler(scenario)
        assert scheduler.should_fail(GPS, 2.0)
        assert scheduler.injections[0].duration_s == 1.0
        # The latched twin takes over when the short window closes.
        assert scheduler.should_fail(GPS, 3.0)
        assert [record.duration_s for record in scheduler.injections] == [1.0, None]
        assert scheduler.injections[0].recovered_time == 3.0

    def test_injections_follow_the_reads(self):
        scheduler = FaultScheduler(
            FaultScenario([FaultSpec(GPS, 1.0, 1.0), FaultSpec(BARO, 5.0)])
        )
        assert scheduler.injections == []
        scheduler.should_fail(GPS, 1.5)
        assert [record.sensor_id for record in scheduler.injections] == [GPS]
        assert not scheduler.settled


class TestHookSkip:
    def test_only_faulted_instances_are_queried(self):
        scheduler = FaultScheduler(FaultScenario([FaultSpec(GPS, 1.0, 1.0)]))
        queried = []
        should_fail = scheduler.should_fail

        def counted(sensor_id, time):
            queried.append(sensor_id)
            return should_fail(sensor_id, time)

        scheduler.should_fail = counted
        suite = iris_sensor_suite()
        HinjInterface(scheduler).install(suite)
        for step in range(200):
            suite.read_all(VehicleState(), step * 0.02)
        assert queried == [GPS] * 200
        assert [record.recovered_time for record in scheduler.injections] == [
            pytest.approx(2.0)
        ]

    def test_golden_scheduler_hooks_nothing(self):
        scheduler = FaultScheduler()
        queried = []
        scheduler.should_fail = lambda sensor_id, time: queried.append(sensor_id)
        suite = iris_sensor_suite()
        HinjInterface(scheduler).install(suite)
        for step in range(50):
            assert None not in suite.read_all(VehicleState(), step * 0.02)
        assert queried == []

    def test_a_fresh_stack_carries_no_failure_over(self):
        # Run 1 fails GPS from t=0; run 2, built for a barometer fault at
        # t=5, reads GPS normally and fails only the barometer.
        first = iris_sensor_suite()
        HinjInterface(FaultScheduler(FaultScenario([FaultSpec(GPS, 0.0)]))).install(
            first
        )
        first.read_all(VehicleState(), 0.0)
        assert first.failed_sensor_ids() == [GPS]
        second = iris_sensor_suite()
        HinjInterface(FaultScheduler(FaultScenario([FaultSpec(BARO, 5.0)]))).install(
            second
        )
        readings = second.read_all(VehicleState(), 2.0)
        assert None not in readings
        assert second.failed_sensor_ids() == []
        readings = second.read_all(VehicleState(), 5.0)
        assert readings[second.sensor_ids.index(GPS)] is not None
        assert second.failed_sensor_ids() == [BARO]

    @pytest.mark.parametrize("failed", [(), (BARO,), (GPS, COMPASS1), (GYRO0, ACCEL1)])
    def test_read_all_is_canonically_ordered(self, failed):
        """One entry per instance in ``sensor_ids`` order: each driver's
        own sample at that position, ``None`` exactly where the hook
        failed the read."""
        suite = iris_sensor_suite(noise_seed=3)
        twin = iris_sensor_suite(noise_seed=3)
        suite.instrument(lambda sensor_id, time: sensor_id in failed)
        state = VehicleState(position=(1.0, 2.0, 5.0))
        expected = [
            None if sensor_id in failed else twin.driver(sensor_id).sample(state, 1.0)
            for sensor_id in suite.sensor_ids
        ]
        assert suite.read_all(state, 1.0) == expected
        assert suite.failed_sensor_ids() == sorted(failed)


# ----------------------------------------------------------------------
# Whole-run digests (reference stepper)
# ----------------------------------------------------------------------
def _faults(name):
    return {
        "golden": [],
        "latched": [FaultSpec(GYRO0, 3.0), FaultSpec(BARO, 6.0)],
        "burst": [FaultSpec(GPS, 4.0, 2.0)],
        "multi-window": [
            FaultSpec(GPS, 3.0, 1.0),
            FaultSpec(GPS, 6.0, 2.0),
            FaultSpec(GPS, 6.0, 0.5),
            FaultSpec(COMPASS0, 3.0, 1.5),
            FaultSpec(ACCEL1, 5.0),
        ],
    }[name]


def case_scenario(name, fleet_size):
    faults = list(_faults(name))
    if fleet_size > 1 and faults:
        # Followers carry latched faults only: their burst windows are
        # pinned separately (the injection log of vehicles >= 1).
        faults.append(FaultSpec(SensorId(SensorType.COMPASS, 1, vehicle=1), 4.0))
    return FaultScenario(faults) if faults else EMPTY_SCENARIO


def case_config(firmware, fleet_size):
    if fleet_size == 1:
        factory = lambda: AutoWorkload(altitude=10.0, init_wait_ms=1000.0)
    else:
        factory = lambda: MultiPadTakeoffLandWorkload(
            altitude=8.0, hover_ms=2000.0, init_wait_ms=1000.0, fleet_size=2
        )
    return RunConfiguration(
        firmware_class=firmware,
        workload_factory=factory,
        fleet_size=fleet_size,
        max_sim_time_s=40.0,
    )


def _fly(config, scenario):
    harness = SimulationHarness(config, scenario)
    workload = config.workload_factory()
    workload.bind(harness)
    result = harness.build_result(workload, workload.run())
    rng_states = [
        driver.noise_state() for unit in harness._units for driver in unit.suite.drivers
    ]
    return result, workload.display_name, rng_states


def _sha(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update((repr(line) + "\n").encode("utf-8"))
    return digest.hexdigest()[:20]


def case_digests(firmware, fleet_size):
    """{case: (run digest, RNG digest)} for the four scenario cases."""
    config = case_config(firmware, fleet_size)
    digests = {}
    monitor = None
    for name in ("golden", "latched", "burst", "multi-window"):
        scenario = case_scenario(name, fleet_size)
        result, workload_name, rng_states = _fly(config, scenario)
        if monitor is None:
            monitor = InvariantMonitor([result])
        monitor.begin_run(scenario)
        verdict = [condition.describe() for condition in monitor.evaluate(result)]
        traces = result.vehicle_traces or {0: result.trace}
        transitions = result.vehicle_mode_transitions or {0: result.mode_transitions}
        lines = [scenario_key(config, workload_name, scenario)]
        lines += [sample for vehicle in sorted(traces) for sample in traces[vehicle]]
        lines += list(result.injections)
        lines += [t for vehicle in sorted(transitions) for t in transitions[vehicle]]
        lines += [verdict, result.triggered_bugs, result.failsafe_events, result.steps]
        digests[name] = (_sha(lines), _sha(rng_states))
    return digests


#: Recorded with the per-read scanning scheduler and per-reading dicts.
#: Three single-vehicle runs were re-recorded when waits gained the
#: parked exit: each loses GPS in takeoff, lands on its LAND fail-safe,
#: disarms on the ground and now stops there.  Each new run was
#: checked to be an exact prefix of the old one (trace, injections,
#: transitions, fail-safe events) with an equal verdict and bug list;
#: only the step count and the RNG end state differ.
EXPECTED_DIGESTS = {
    ('ardupilot', 1): {
        'golden': ('227adc03ae597eaaef08', 'd0d97cac18f8dde9835f'),
        'latched': ('be0956c2808f9d0216c3', 'e6de1104f1c4f4b46528'),
        'burst': ('85097f6f83b29c538a5e', '10ad95d26a2acc1ac0bd'),
        # Parked exit at t=12.18 s (was BUDGET_EXHAUSTED at 40 s).
        'multi-window': ('03645168d3e3d611ffee', '107ed73b3624f0eff290'),
    },
    ('ardupilot', 2): {
        'golden': ('b8c739b9d9cba5f07b3e', '907b683ce9d02af21813'),
        'latched': ('f138ffc783cddbce93f7', 'fc59e85dd841d3cda635'),
        'burst': ('93e0db4df06c1e8f2e26', 'd42c41e4451e29da88f3'),
        'multi-window': ('67afa4730df52e4fc4b3', 'c138ec382b91f120788d'),
    },
    ('px4', 1): {
        'golden': ('d50ae6c2b6aa02985537', 'd0d97cac18f8dde9835f'),
        'latched': ('aaa4709b0e7fcaec5119', 'ad9745a5cd4711db6937'),
        # Parked exit at t=14.08 s (was BUDGET_EXHAUSTED at 40 s).
        'burst': ('f2361802d9b3d8f85bed', 'e2e012b00c36d4f5543c'),
        # Parked exit at t=10.30 s (was BUDGET_EXHAUSTED at 40 s).
        'multi-window': ('06577f42dd9fe7604083', '9f95a57176ff37293730'),
    },
    ('px4', 2): {
        'golden': ('368d83fff7cfb87334fc', '2090f83ab31b6574f9b4'),
        'latched': ('10a53c3e3804378fcec1', 'b58d0d1714bbffa3648d'),
        'burst': ('a4e181177080667e48c2', '67f27a447adda5067a0f'),
        'multi-window': ('0640d5b0646f0eff5e39', 'c138ec382b91f120788d'),
    },
}


@pytest.mark.parametrize("fleet_size", [1, 2])
@pytest.mark.parametrize("firmware", [ArduPilotFirmware, Px4Firmware], ids=["apm", "px4"])
def test_reference_runs_are_bit_identical(firmware, fleet_size):
    expected = EXPECTED_DIGESTS[(firmware.name, fleet_size)]
    found = case_digests(firmware, fleet_size)
    assert {name: digest for name, (digest, _) in found.items()} == {
        name: digest for name, (digest, _) in expected.items()
    }
    # Same draws in the same order: every driver's RNG ends where it did.
    assert {name: rng for name, (_, rng) in found.items()} == {
        name: rng for name, (_, rng) in expected.items()
    }
