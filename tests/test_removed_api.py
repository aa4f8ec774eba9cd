"""The 13.0 and 14.0 removals stay removed.

A run builds its sensor suite, fault scheduler, hinj interface,
firmware, simulator and MAVLink link once, for one scenario, and throws
them away.  The API to re-load, unhook or observe a live stack was
deleted with that decision (README, "Removed in 13.0"); these checks
fail if any of it comes back, on instances as well as on modules so an
attribute set in ``__init__`` counts too.  In 14.0 the sensor channels
no firmware read went, with the constants only they used (README,
"Changed in 14.0").
"""

import inspect

import pytest

import repro.mavlink.link as link_module
import repro.sensors.barometer as barometer_module
import repro.sensors.suite as suite_module
import repro.sim.environment as environment_module
import repro.sim.state as state_module
from repro.engine.backends import ExecutionBackend
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj import FaultScheduler, HinjInterface
from repro.mavlink.gcs import GroundControlStation
from repro.mavlink.link import MavLink
from repro.sensors import Barometer, BatteryMonitor, GpsReceiver
from repro.sensors.suite import iris_sensor_suite
from repro.sim.simulator import Simulator
from repro.sim.state import AttitudeState, VehicleState


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
    return [(ArduPilotFirmware(suite=iris_sensor_suite()), ["label_history"])]


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


@pytest.mark.parametrize(
    "owners",
    [_hinj, _sensors, _firmware, _sim, _mavlink],
    ids=["hinj", "sensors", "firmware", "sim", "mavlink"],
)
def test_removed_names_stay_removed(owners):
    present = [
        f"{type(owner).__name__}.{name}"
        for owner, names in owners()
        for name in names
        if hasattr(owner, name)
    ]
    assert present == []


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
