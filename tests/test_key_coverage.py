"""The cache-key coverage contract, checked by flying.

Every verdict and every Table III count is read back from the
content-addressed result cache, so a cache key must tell apart any two
runs that fly differently.  This module checks that behaviourally: one
row per field of :class:`RunConfiguration`, :class:`VehicleSpec`,
:class:`FaultSpec` and :class:`TrafficFaultSpec` names a context (a base
configuration and scenario) and a perturbed value.  Each row flies the
base run and the perturbed run and asserts

* the flight changed (the key-free :func:`conftest.flight_lines`
  differ), so a row that perturbs nothing fails instead of proving
  nothing; and
* the cache key changed, computed the way
  :class:`repro.engine.campaign.CampaignEngine` computes it (with no
  monitor, so without a separation-threshold term).

Fingerprint terms rendered only in some contexts (fleet terms, the
traffic timing, the stepper, recovery windows, the delay of a DELAY
fault) get one row per context in which the field can change a flight.
The guard at the bottom requires a row for every dataclass field, so a
new field without a row fails here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Dict, Tuple

import pytest
from conftest import flight_lines, line_digest

from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.runner import TestRunner
from repro.engine.cache import campaign_fingerprint, scenario_key
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.params import FirmwareParameters
from repro.firmware.px4 import Px4Firmware
from repro.hinj.faults import (
    EMPTY_SCENARIO,
    FaultScenario,
    FaultSpec,
    TrafficFaultKind,
    TrafficFaultSpec,
)
from repro.sensors.base import SensorId, SensorType
from repro.sim.environment import Wind, default_environment
from repro.sim.vehicle import IRIS_QUADCOPTER, SOLO_QUADCOPTER
from repro.workloads.builtin import AutoWorkload
from repro.workloads.fleet import ConvoyFollowWorkload, MultiPadTakeoffLandWorkload

GPS = SensorId(SensorType.GPS, 0)
BAROMETER = SensorId(SensorType.BAROMETER, 0)
LEAD = VehicleSpec(firmware_class=ArduPilotFirmware, airframe=IRIS_QUADCOPTER)
#: A wing on another airframe: every perturbation of it below keeps the
#: fleet heterogeneous, so the per-vehicle term is rendered on both sides.
WING = VehicleSpec(firmware_class=ArduPilotFirmware, airframe=SOLO_QUADCOPTER)


def short_auto():
    return AutoWorkload(altitude=8.0, init_wait_ms=1000.0)


def higher_auto():
    return AutoWorkload(altitude=10.0, init_wait_ms=1000.0)


def windy():
    return replace(default_environment(), wind=Wind(north_ms=2.0))


SOLO = RunConfiguration(workload_factory=short_auto, max_sim_time_s=30.0)
#: The convoy's follower tracks the lead's beacons from ~9 s on.
CONVOY = RunConfiguration(
    workload_factory=ConvoyFollowWorkload, fleet_size=2, max_sim_time_s=20.0
)

#: Context name -> (base configuration, base scenario).
CONTEXTS: Dict[str, Tuple[RunConfiguration, FaultScenario]] = {
    "solo": (SOLO, EMPTY_SCENARIO),
    # GPS lost in the takeoff climb: the LAND fail-safe takes over.
    "solo gps fault": (SOLO, FaultScenario([FaultSpec(GPS, 3.0)])),
    # A barometer lost on the pad trips APM-16027 (a fly-away).
    "solo barometer fault": (SOLO, FaultScenario([FaultSpec(BAROMETER, 1.5)])),
    # GPS lost in the landing descent: the known APM-4455 cuts the motors.
    "solo landing gps fault": (SOLO, FaultScenario([FaultSpec(GPS, 8.0)])),
    "convoy": (CONVOY, EMPTY_SCENARIO),
    "mixed convoy": (replace(CONVOY, vehicles=(LEAD, WING)), EMPTY_SCENARIO),
    "convoy dropout": (
        CONVOY,
        FaultScenario([TrafficFaultSpec(0, TrafficFaultKind.DROPOUT, 12.0)]),
    ),
    "convoy delay": (
        CONVOY,
        FaultScenario([TrafficFaultSpec(0, TrafficFaultKind.DELAY, 12.0)]),
    ),
    "multi-pad": (
        RunConfiguration(
            workload_factory=MultiPadTakeoffLandWorkload,
            fleet_size=3,
            max_sim_time_s=12.0,
        ),
        EMPTY_SCENARIO,
    ),
}


@dataclass(frozen=True)
class Row:
    """Perturb ``owner.field`` to ``value`` in ``context``."""

    owner: type
    field: str
    context: str
    value: Any

    @property
    def id(self) -> str:
        return f"{self.owner.__name__}.{self.field}[{self.context}]"


def _perturbed(row: Row) -> Tuple[RunConfiguration, FaultScenario]:
    config, scenario = CONTEXTS[row.context]
    change = {row.field: row.value}
    if row.owner is RunConfiguration:
        return replace(config, **change), scenario
    if row.owner is VehicleSpec:
        wing = replace(config.vehicles[1], **change)
        return replace(config, vehicles=(config.vehicles[0], wing)), scenario
    (fault,) = scenario
    return config, FaultScenario([replace(fault, **change)])


ROWS = [
    Row(RunConfiguration, "firmware_class", "solo", Px4Firmware),
    Row(RunConfiguration, "workload_factory", "solo", higher_auto),
    Row(RunConfiguration, "environment_factory", "solo", windy),
    Row(RunConfiguration, "airframe", "solo", SOLO_QUADCOPTER),
    Row(
        RunConfiguration,
        "firmware_params",
        "solo",
        FirmwareParameters(takeoff_climb_rate_ms=2.0),
    ),
    Row(RunConfiguration, "dt", "solo", 0.025),
    Row(RunConfiguration, "max_sim_time_s", "solo", 15.0),
    Row(RunConfiguration, "sample_interval_steps", "solo", 4),
    Row(RunConfiguration, "noise_seed", "solo", 1),
    Row(RunConfiguration, "reinserted_bugs", "solo landing gps fault", ("APM-4455",)),
    Row(RunConfiguration, "disabled_bugs", "solo barometer fault", ("APM-16027",)),
    Row(RunConfiguration, "fleet_size", "convoy", 3),
    Row(RunConfiguration, "fleet_pad_spacing_m", "multi-pad", 10.0),
    Row(
        RunConfiguration,
        "vehicles",
        "convoy",
        (LEAD, VehicleSpec(firmware_class=Px4Firmware)),
    ),
    Row(RunConfiguration, "traffic_beacon_interval_s", "convoy", 0.3),
    Row(RunConfiguration, "traffic_latency_s", "convoy", 0.2),
    Row(RunConfiguration, "stepper", "solo", "adaptive"),
    Row(RunConfiguration, "stepper", "convoy", "adaptive"),
    Row(VehicleSpec, "firmware_class", "mixed convoy", Px4Firmware),
    Row(
        VehicleSpec,
        "airframe",
        "mixed convoy",
        replace(SOLO_QUADCOPTER, mass_kg=2.0),
    ),
    Row(
        VehicleSpec,
        "firmware_params",
        "mixed convoy",
        FirmwareParameters(takeoff_climb_rate_ms=2.0),
    ),
    Row(FaultSpec, "sensor_id", "solo gps fault", BAROMETER),
    Row(FaultSpec, "start_time", "solo gps fault", 4.0),
    Row(FaultSpec, "duration_s", "solo gps fault", 2.0),
    Row(TrafficFaultSpec, "vehicle", "convoy dropout", 1),
    Row(TrafficFaultSpec, "kind", "convoy dropout", TrafficFaultKind.FREEZE),
    Row(TrafficFaultSpec, "start_time", "convoy dropout", 13.0),
    Row(TrafficFaultSpec, "extra_delay_s", "convoy delay", 2.0),
    Row(TrafficFaultSpec, "duration_s", "convoy dropout", 2.0),
]


def _fly(config: RunConfiguration, scenario: FaultScenario) -> Tuple[str, str]:
    """(flight digest, cache key) of one run, keyed as a campaign keys it."""
    result = TestRunner(config).run(scenario)
    key = scenario_key(config, campaign_fingerprint(config, None), scenario)
    return line_digest(flight_lines(result)), key


@lru_cache(maxsize=None)
def _fly_base(context: str) -> Tuple[str, str]:
    return _fly(*CONTEXTS[context])


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_a_field_that_changes_the_flight_changes_the_key(row):
    base_flight, base_key = _fly_base(row.context)
    flight, key = _fly(*_perturbed(row))
    assert flight != base_flight, f"{row.id} does not change the flight"
    assert key != base_key, f"{row.id} changes the flight but not the cache key"


def test_every_field_has_a_row():
    covered = {(row.owner, row.field) for row in ROWS}
    fields = {
        (owner, field.name)
        for owner in (RunConfiguration, VehicleSpec, FaultSpec, TrafficFaultSpec)
        for field in dataclasses.fields(owner)
    }
    assert fields - covered == set(), "fields without a key-coverage row"
    assert covered - fields == set(), "rows naming no field"
