"""The 13.0, 14.0, 15.0 and 16.0 removals stay removed.

A run builds its sensor suite, fault scheduler, hinj interface,
firmware, simulator and MAVLink link once, for one scenario, and throws
them away.  The API to re-load, unhook or observe a live stack was
deleted with that decision (README, "Removed in 13.0"); these checks
fail if any of it comes back, on instances as well as on modules so an
attribute set in ``__init__`` counts too.  In 14.0 the sensor channels
no firmware read went, with the constants only they used (README,
"Changed in 14.0").  In 15.0 the sensor-instance symmetry pruning that
no run could reach went, with the pruner's options and the rest of the
per-run stack's API that only tests called (README, "Removed in 15.0").
In 16.0 the navigation cascade became one inline update returning four
floats, and the bug registry keeps only the ids it is asked for
(README, "Changed in 16.0").
"""

import inspect

import pytest

import repro.analysis.figures as figures_module
import repro.firmware.bugs as bugs_module
import repro.firmware.navigation as navigation_module
import repro.core.pruning as pruning_module
import repro.mavlink.link as link_module
import repro.sensors.barometer as barometer_module
import repro.sensors.suite as suite_module
import repro.sim.environment as environment_module
import repro.sim.state as state_module
from repro.core.pruning import PruningStatistics, RedundancyPruner
from repro.core.sabre import SabreSearch
from repro.engine.backends import ExecutionBackend
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.bugs import ardupilot_bug_registry
from repro.firmware.effects import BugEffectEngine
from repro.firmware.estimator import StateEstimator
from repro.firmware.navigation import NavigationStack
from repro.firmware.params import FirmwareParameters
from repro.hinj import FaultScheduler, HinjInterface
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.mavlink.gcs import GroundControlStation
from repro.mavlink.link import MavLink
from repro.sensors import Barometer, BatteryMonitor, GpsReceiver
from repro.sensors.suite import iris_sensor_suite
from repro.sensors.base import SensorId, SensorType
from repro.sim.environment import Obstacle
from repro.sim.simulator import CollisionEvent, Simulator
from repro.sim.state import AttitudeState, VehicleState
from repro.sim.vehicle import IRIS_QUADCOPTER


def _hinj():
    return [
        (
            FaultScheduler(),
            [
                "load_scenario",
                "_suites",
                "release",
                "query_count",
                "injected_sensor_ids",
                "pending_faults",
            ],
        ),
        (
            HinjInterface(),
            [
                "uninstall",
                "add_mode_listener",
                "scheduler",
                "current_mode",
                "mode_at",
                "transition_times",
            ],
        ),
        (
            FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), 1.0)]),
            ["earliest_time", "has_recovering_faults", "has_traffic_faults"],
        ),
    ]


def _sensors():
    suite = iris_sensor_suite()
    return [
        (suite, ["remove_instrumentation"]),
        (suite.driver(suite.sensor_ids[0]), ["remove_instrumentation"]),
        (suite_module, ["minimal_sensor_suite"]),
        (barometer_module, ["SEA_LEVEL_PRESSURE_HPA", "PRESSURE_LAPSE_HPA_PER_M"]),
        (BatteryMonitor(), ["FULL_VOLTAGE", "EMPTY_VOLTAGE"]),
    ]


def _firmware():
    return [
        (ArduPilotFirmware(suite=iris_sensor_suite()), ["label_history"]),
        (
            ardupilot_bug_registry(),
            ["disable_all", "is_enabled", "trigger_events"],
        ),
        (BugEffectEngine(), ["active_bug_ids"]),
        (
            navigation_module,
            ["PositionController", "AltitudeController", "YawController", "AttitudeCommand"],
        ),
        (
            NavigationStack(FirmwareParameters(), IRIS_QUADCOPTER),
            ["position", "altitude", "yaw"],
        ),
        (bugs_module, ["BugTriggerEvent"]),
        (ardupilot_bug_registry(), ["_events"]),
        (StateEstimator(iris_sensor_suite(), FirmwareParameters()), ["_initialised"]),
    ]


def _sim():
    return [
        (Simulator(dt=0.02), ["add_step_listener"]),
        (
            state_module,
            ["interpolate_states", "pad_trace", "vector_add", "vector_scale"],
        ),
        (VehicleState(), ["with_time", "with_armed", "distance_to"]),
        (AttitudeState(), ["rotated_yaw"]),
        (environment_module, ["check_environment_is_default"]),
        (Obstacle("tree", 0.0, 0.0, 1.0, 1.0, 5.0), ["horizontal_distance"]),
        (CollisionEvent(1.0, (0.0, 0.0, 0.0), 5.0), ["with_ground"]),
        (IRIS_QUADCOPTER, ["thrust_to_weight"]),
    ]


def _mavlink():
    return [
        (
            MavLink(),
            ["to_vehicle_stats", "pending_to_vehicle", "pending_to_gcs"],
        ),
        (link_module, ["LinkStats", "drain_messages_of_type"]),
        (GroundControlStation(MavLink()), ["take_acks", "_pending_acks"]),
    ]


def _pruning():
    return [
        (
            pruning_module,
            [
                "symmetry_signature",
                "SymmetrySignature",
                "symmetric_fault_count",
                "unpruned_fault_count",
            ],
        ),
        (figures_module, ["symmetric_fault_count", "unpruned_fault_count"]),
        (
            RedundancyPruner(),
            ["found_bug_pruning_enabled", "_seen_signatures"],
        ),
        (PruningStatistics(), ["symmetry_pruned"]),
    ]


@pytest.mark.parametrize(
    "owners",
    [_hinj, _sensors, _firmware, _sim, _mavlink, _pruning],
    ids=["hinj", "sensors", "firmware", "sim", "mavlink", "pruning"],
)
def test_removed_names_stay_removed(owners):
    present = [
        f"{type(owner).__name__}.{name}"
        for owner, names in owners()
        for name in names
        if hasattr(owner, name)
    ]
    assert present == []


def test_the_pruner_has_no_options():
    assert list(inspect.signature(RedundancyPruner).parameters) == []
    for option in ("role_of", "enable_found_bug_pruning", "enable_symmetry_pruning"):
        with pytest.raises(TypeError):
            RedundancyPruner(**{option: None})


def test_sabre_builds_its_own_pruner():
    assert "pruner" not in inspect.signature(SabreSearch).parameters


def test_bug_matching_takes_no_time():
    assert "time" not in inspect.signature(ardupilot_bug_registry().match).parameters


def test_mavlink_has_no_capacity_option():
    assert list(inspect.signature(MavLink).parameters) == ["delay_steps"]
    with pytest.raises(TypeError):
        MavLink(capacity=1)


def test_backends_take_the_runner():
    assert list(inspect.signature(ExecutionBackend.run_scenarios).parameters) == [
        "self",
        "runner",
        "scenarios",
    ]


@pytest.mark.parametrize(
    "driver, channels",
    [
        (Barometer(), ("altitude",)),
        (BatteryMonitor(), ("remaining",)),
        (GpsReceiver(), ("north", "east", "altitude", "vel_north", "vel_east")),
    ],
    ids=["barometer", "battery", "gps"],
)
def test_unread_channels_stay_removed(driver, channels):
    assert driver.CHANNELS == channels
    assert len(driver.sample(VehicleState(), 0.0)) == len(channels)
