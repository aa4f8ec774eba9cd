"""Unit tests for the hinj (libhinj-equivalent) layer."""

import pytest

from repro.hinj import (
    FaultScenario,
    FaultScheduler,
    FaultSpec,
    HinjInterface,
    ModeTransition,
    scenario_from_pairs,
)
from repro.sensors.base import SensorId, SensorType
from repro.sensors.suite import iris_sensor_suite
from repro.sim.state import VehicleState

GPS = SensorId(SensorType.GPS, 0)
BARO = SensorId(SensorType.BAROMETER, 0)


class TestFaultSpec:
    def test_active_at(self):
        fault = FaultSpec(GPS, 5.0)
        assert not fault.active_at(4.9)
        assert fault.active_at(5.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FaultSpec(GPS, -1.0)

    def test_describe_mentions_sensor_and_time(self):
        text = FaultSpec(GPS, 2.5).describe()
        assert "gps[0]" in text and "2.50" in text


class TestFaultScenario:
    def test_empty_scenario(self):
        scenario = FaultScenario()
        assert scenario.is_empty
        assert not scenario.should_fail(GPS, 100.0)

    def test_set_semantics_and_hashing(self):
        a = FaultScenario([FaultSpec(GPS, 1.0), FaultSpec(BARO, 2.0)])
        b = FaultScenario([FaultSpec(BARO, 2.0), FaultSpec(GPS, 1.0)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_should_fail_uses_earliest_fault_per_sensor(self):
        scenario = FaultScenario([FaultSpec(GPS, 5.0), FaultSpec(GPS, 2.0)])
        assert scenario.fault_for(GPS).start_time == 2.0
        assert scenario.should_fail(GPS, 3.0)

    def test_extended_and_shifted(self):
        scenario = FaultScenario([FaultSpec(GPS, 1.0)])
        extended = scenario.extended([FaultSpec(BARO, 2.0)])
        assert len(extended) == 2
        shifted = extended.shifted(-1.5)
        assert shifted.fault_for(GPS).start_time == 0.0
        assert shifted.fault_for(BARO).start_time == pytest.approx(0.5)

    def test_sensor_types_deduplicated(self):
        scenario = scenario_from_pairs([(GPS, 1.0), (GPS, 4.0), (BARO, 2.0)])
        assert scenario.sensor_types == [SensorType.GPS, SensorType.BAROMETER] or set(
            scenario.sensor_types
        ) == {SensorType.GPS, SensorType.BAROMETER}

    def test_describe_golden(self):
        assert "golden" in FaultScenario().describe()


class TestFaultScheduler:
    def test_injects_at_scheduled_time(self):
        scheduler = FaultScheduler(FaultScenario([FaultSpec(GPS, 3.0)]))
        assert not scheduler.should_fail(GPS, 2.0)
        assert scheduler.should_fail(GPS, 3.1)
        assert scheduler.injections[0].sensor_id == GPS
        assert scheduler.injections[0].injected_time == pytest.approx(3.1)
        assert scheduler.injections[0].delay == pytest.approx(0.1)

    def test_ignores_unscheduled_sensors(self):
        scheduler = FaultScheduler(FaultScenario([FaultSpec(GPS, 3.0)]))
        assert not scheduler.should_fail(BARO, 10.0)

    def test_later_fault_not_yet_injected(self):
        scheduler = FaultScheduler(FaultScenario([FaultSpec(GPS, 3.0), FaultSpec(BARO, 8.0)]))
        scheduler.should_fail(GPS, 4.0)
        assert [record.sensor_id for record in scheduler.injections] == [GPS]
        assert not scheduler.settled

    def test_constructor_compiles_the_scenario(self):
        # No load step: a scheduler answers for its scenario as built.
        scenario = FaultScenario([FaultSpec(GPS, 3.0, 2.0)])
        scheduler = FaultScheduler(scenario)
        assert scheduler.scenario is scenario
        assert not scheduler.should_fail(GPS, 2.9)
        assert scheduler.should_fail(GPS, 3.0)
        assert not scheduler.should_fail(GPS, 5.0)
        assert scheduler.settled

    def test_schedulers_share_no_state(self):
        # Each run builds its own scheduler; one run's injections never
        # show up in the next run's scheduler.
        first = FaultScheduler(FaultScenario([FaultSpec(GPS, 1.0)]))
        assert first.should_fail(GPS, 2.0)
        second = FaultScheduler(FaultScenario([FaultSpec(BARO, 5.0)]))
        assert second.injections == []
        assert not second.should_fail(GPS, 2.0)
        assert [record.sensor_id for record in first.injections] == [GPS]

    def test_default_scheduler_is_golden(self):
        scheduler = FaultScheduler()
        assert scheduler.scenario.is_empty
        assert not scheduler.should_fail(GPS, 100.0)
        assert scheduler.injections == []
        assert scheduler.settled


class TestHinjInterface:
    def test_mode_transitions_recorded_once(self):
        hinj = HinjInterface()
        hinj.update_mode("preflight", 0.0)
        hinj.update_mode("preflight", 0.5)
        hinj.update_mode("takeoff", 1.0)
        assert [t.label for t in hinj.transitions] == ["preflight", "takeoff"]
        assert hinj.transitions[-1].previous == "preflight"

    def test_transitions_keep_their_times(self):
        hinj = HinjInterface()
        hinj.update_mode("preflight", 0.0)
        hinj.update_mode("takeoff", 2.0)
        assert [t.time for t in hinj.transitions] == [0.0, 2.0]

    def test_first_transition_has_no_previous(self):
        hinj = HinjInterface()
        hinj.update_mode("preflight", 0.0)
        (start,) = hinj.transitions
        assert start.previous is None
        assert start.describe() == "start in preflight @ 0.00s"

    def test_transitions_is_a_copy(self):
        hinj = HinjInterface()
        hinj.update_mode("preflight", 0.0)
        hinj.transitions.clear()
        assert [t.label for t in hinj.transitions] == ["preflight"]

    def test_install_instruments_suite(self):
        scheduler = FaultScheduler(FaultScenario([FaultSpec(GPS, 0.0)]))
        hinj = HinjInterface(scheduler)
        suite = iris_sensor_suite()
        hinj.install(suite)
        readings = suite.read_all(VehicleState(), 1.0)
        assert readings[suite.sensor_ids.index(GPS)] is None
        assert readings[suite.sensor_ids.index(BARO)] is not None

    def test_transition_describe(self):
        transition = ModeTransition(time=3.0, label="takeoff", previous="preflight")
        assert "preflight -> takeoff" in transition.describe()
