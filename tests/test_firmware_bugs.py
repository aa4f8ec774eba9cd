"""Unit tests for the bug catalogue and registry."""

import pytest

from repro.firmware.bugs import (
    ARDUPILOT_LATENT_BUGS,
    KNOWN_BUGS,
    PX4_LATENT_BUGS,
    BugRegistry,
    BugSymptom,
    BugTrigger,
    all_table2_bugs,
    all_table5_bugs,
    ardupilot_bug_registry,
    px4_bug_registry,
)
from repro.sensors.base import SensorType


class TestCatalogue:
    def test_table2_has_ten_bugs_six_ardupilot_four_px4(self):
        bugs = all_table2_bugs()
        assert len(bugs) == 10
        assert sum(1 for bug in bugs if bug.firmware == "ardupilot") == 6
        assert sum(1 for bug in bugs if bug.firmware == "px4") == 4

    def test_table5_has_five_known_bugs(self):
        bugs = all_table5_bugs()
        assert len(bugs) == 5
        assert all(bug.known for bug in bugs)
        assert {bug.bug_id for bug in bugs} == {
            "APM-4455",
            "APM-4679",
            "APM-5428",
            "APM-9349",
            "PX4-13291",
        }

    def test_symptom_distribution_matches_table2(self):
        symptoms = {bug.bug_id: bug.symptom for bug in all_table2_bugs()}
        assert symptoms["APM-16020"] == BugSymptom.FLY_AWAY
        assert symptoms["APM-16021"] == BugSymptom.CRASH
        assert symptoms["PX4-17192"] == BugSymptom.TAKEOFF_FAILURE
        crash_count = sum(1 for s in symptoms.values() if s == BugSymptom.CRASH)
        assert crash_count == 5

    def test_two_bugs_are_developer_confirmed(self):
        confirmed = [bug for bug in all_table2_bugs() if bug.developer_confirmed]
        assert len(confirmed) == 2

    def test_joint_failure_bug_requires_gps(self):
        px4_13291 = next(bug for bug in KNOWN_BUGS if bug.bug_id == "PX4-13291")
        assert SensorType.GPS in px4_13291.trigger.requires_failed_types


class TestTriggerMatching:
    def test_mode_and_altitude_window(self):
        trigger = BugTrigger(
            sensor_type=SensorType.ACCELEROMETER,
            mode_labels=frozenset({"takeoff"}),
            min_altitude=3.0,
        )
        assert trigger.matches(
            SensorType.ACCELEROMETER, "takeoff", 10.0, frozenset(), True
        )
        assert not trigger.matches(
            SensorType.ACCELEROMETER, "takeoff", 1.0, frozenset(), True
        )
        assert not trigger.matches(
            SensorType.ACCELEROMETER, "land", 10.0, frozenset(), True
        )
        assert not trigger.matches(SensorType.GPS, "takeoff", 10.0, frozenset(), True)

    def test_prefix_matching_for_waypoint_legs(self):
        trigger = BugTrigger(
            sensor_type=SensorType.COMPASS,
            mode_labels=frozenset({"waypoint-"}),
            prefix_match=True,
        )
        assert trigger.matches(SensorType.COMPASS, "waypoint-3", 20.0, frozenset(), True)
        assert not trigger.matches(SensorType.COMPASS, "rtl", 20.0, frozenset(), True)

    def test_primary_only(self):
        trigger = BugTrigger(sensor_type=SensorType.COMPASS)
        assert not trigger.matches(SensorType.COMPASS, "takeoff", 5.0, frozenset(), False)
        relaxed = BugTrigger(sensor_type=SensorType.COMPASS, primary_only=False)
        assert relaxed.matches(SensorType.COMPASS, "takeoff", 5.0, frozenset(), False)

    def test_joint_failure_requirement(self):
        trigger = BugTrigger(
            sensor_type=SensorType.BATTERY,
            requires_failed_types=frozenset({SensorType.GPS}),
        )
        assert not trigger.matches(SensorType.BATTERY, "waypoint-1", 20.0, frozenset(), True)
        assert trigger.matches(
            SensorType.BATTERY,
            "waypoint-1",
            20.0,
            frozenset({SensorType.GPS, SensorType.BATTERY}),
            True,
        )

    def test_seconds_into_mode_window(self):
        trigger = BugTrigger(
            sensor_type=SensorType.COMPASS,
            max_seconds_into_mode=3.0,
        )
        assert trigger.matches(
            SensorType.COMPASS, "waypoint-1", 20.0, frozenset(), True, seconds_into_mode=1.0
        )
        assert not trigger.matches(
            SensorType.COMPASS, "waypoint-1", 20.0, frozenset(), True, seconds_into_mode=5.0
        )


def enabled_ids(registry):
    return {descriptor.bug_id for descriptor in registry.enabled_descriptors}


class TestRegistry:
    def test_latent_enabled_known_disabled_by_default(self):
        registry = ardupilot_bug_registry()
        assert "APM-16020" in enabled_ids(registry)
        assert "APM-4679" not in enabled_ids(registry)

    def test_reinsert_and_disable(self):
        registry = ardupilot_bug_registry()
        registry.reinsert("APM-4679")
        assert "APM-4679" in enabled_ids(registry)
        registry.disable("APM-16020")
        assert "APM-16020" not in enabled_ids(registry)

    def test_reinsert_unknown_bug_raises(self):
        registry = ardupilot_bug_registry()
        with pytest.raises(KeyError):
            registry.reinsert("APM-0000")

    def test_duplicate_registration_rejected(self):
        registry = BugRegistry(ARDUPILOT_LATENT_BUGS)
        with pytest.raises(ValueError):
            registry.add(ARDUPILOT_LATENT_BUGS[0])

    def test_match_records_trigger_events(self):
        registry = ardupilot_bug_registry()
        matches = registry.match(
            sensor_type=SensorType.BAROMETER,
            mode_label="takeoff",
            altitude=1.0,
            failed_types=frozenset({SensorType.BAROMETER}),
            was_active_instance=True,
            time=4.0,
        )
        assert [bug.bug_id for bug in matches] == ["APM-16027"]
        assert registry.triggered_bug_ids == ["APM-16027"]

    def test_px4_registry_contains_only_px4_bugs(self):
        registry = px4_bug_registry()
        assert all(bug.firmware == "px4" for bug in registry.descriptors)
        assert "PX4-17046" in enabled_ids(registry)
        assert "PX4-13291" not in enabled_ids(registry)

    def test_disabled_bug_never_matches(self):
        registry = ardupilot_bug_registry()
        registry.disable("APM-16027")
        matches = registry.match(
            sensor_type=SensorType.BAROMETER,
            mode_label="takeoff",
            altitude=1.0,
            failed_types=frozenset({SensorType.BAROMETER}),
            was_active_instance=True,
            time=4.0,
        )
        assert matches == []
