"""Pins for the bug-effect paths of the control period.

While no bug effect is active the firmware takes a no-op path: no
estimate copy and one shared, empty set of overrides.  Each active
path is pinned here instead: for every :class:`EffectScript` field the
bug catalogue uses, one recorded scenario triggers a bug carrying it,
and the whole flight (trace, mode transitions, fail-safe events,
triggered bugs, step count) hashes to a digest recorded before the
control period was rewritten.
"""

from dataclasses import fields

import pytest
from conftest import flight_lines, line_digest

from repro.core.config import RunConfiguration
from repro.core.runner import TestRunner
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.bugs import (
    ARDUPILOT_LATENT_BUGS,
    KNOWN_BUGS,
    PX4_LATENT_BUGS,
    EffectScript,
)
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId, SensorType
from repro.workloads.builtin import WaypointFenceWorkload

CATALOGUE = {bug.bug_id: bug for bug in ARDUPILOT_LATENT_BUGS + PX4_LATENT_BUGS + KNOWN_BUGS}

#: bug id -> (failed primary sensor type, failure time, flight digest).
#: Each time is the golden run's entry into the bug's trigger window on
#: the 10 m waypoint box.
EFFECT_CASES = {
    "APM-16020": (SensorType.GPS, 6.24, "e6d06180c3f9c83f7f39"),
    "APM-16021": (SensorType.ACCELEROMETER, 3.3, "f986853cdc1f378e90c8"),
    "APM-16967": (SensorType.COMPASS, 6.24, "d443b3f4f92423f3e62a"),
    "APM-16682": (SensorType.ACCELEROMETER, 24.9, "e7795dcdc7c29dda1cad"),
    "APM-16953": (SensorType.GYROSCOPE, 24.9, "a431832f7863ffde1069"),
    "PX4-17057": (SensorType.GYROSCOPE, 0.0, "5f09c5f702484811c24c"),
    "PX4-17192": (SensorType.COMPASS, 0.0, "62bb0051a5d713f6b5f1"),
    "PX4-17181": (SensorType.BAROMETER, 0.0, "35864675f9100513cca8"),
}


def _used_fields(bug_ids):
    """EffectScript fields set away from their default by these bugs."""
    default = EffectScript()
    return {
        field.name
        for bug_id in bug_ids
        for field in fields(EffectScript)
        if getattr(CATALOGUE[bug_id].effect, field.name) != getattr(default, field.name)
    }


def _config(bug_id):
    firmware = ArduPilotFirmware if CATALOGUE[bug_id].firmware == "ardupilot" else Px4Firmware
    return RunConfiguration(
        firmware_class=firmware,
        workload_factory=lambda: WaypointFenceWorkload(
            altitude=10.0, box_side=10.0, init_wait_ms=1000.0
        ),
        max_sim_time_s=120.0,
    )


def test_cases_cover_every_effect_field_the_catalogue_uses():
    assert _used_fields(EFFECT_CASES) == _used_fields(CATALOGUE)


@pytest.mark.parametrize("bug_id", sorted(EFFECT_CASES))
def test_active_effect_flight_matches_recorded_digest(bug_id):
    sensor_type, start, expected = EFFECT_CASES[bug_id]
    scenario = FaultScenario([FaultSpec(SensorId(sensor_type, 0), start)])
    result = TestRunner(_config(bug_id)).run(scenario)
    assert bug_id in result.triggered_bugs
    assert line_digest(flight_lines(result)) == expected
