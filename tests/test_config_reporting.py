"""Tests for the run configuration and the report formatting helpers."""

import dataclasses

import pytest

from conftest import make_run_result

from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.replay import build_replay_plan, resolve_plan
from repro.core.report import format_table, unsafe_condition_report
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.params import FirmwareParameters
from repro.firmware.px4 import Px4Firmware
from repro.hinj.scheduler import InjectionRecord
from repro.sensors.base import SensorId, SensorType
from repro.sim.environment import fenced_environment
from repro.sim.vehicle import SOLO_QUADCOPTER
from repro.workloads.builtin import PositionHoldBoxWorkload


class TestRunConfiguration:
    def test_defaults(self):
        config = RunConfiguration()
        assert config.firmware_class is ArduPilotFirmware
        assert config.firmware_name == "ardupilot"
        assert config.dt == pytest.approx(0.02)

    def test_with_noise_seed_preserves_everything_else(self):
        params = FirmwareParameters(rtl_altitude_m=20.0)
        lead = VehicleSpec(Px4Firmware, SOLO_QUADCOPTER, params)
        config = RunConfiguration(
            firmware_class=Px4Firmware,
            workload_factory=PositionHoldBoxWorkload,
            environment_factory=fenced_environment,
            airframe=SOLO_QUADCOPTER,
            firmware_params=params,
            dt=0.01,
            max_sim_time_s=77.0,
            sample_interval_steps=3,
            noise_seed=4,
            reinserted_bugs=("PX4-13291",),
            disabled_bugs=("APM-16027",),
            fleet_size=2,
            fleet_pad_spacing_m=12.0,
            vehicles=(lead, VehicleSpec()),
            traffic_beacon_interval_s=0.4,
            traffic_latency_s=0.3,
            stepper="adaptive",
        )
        other = config.with_noise_seed(9)
        assert other.noise_seed == 9
        assert config.noise_seed == 4
        for item in dataclasses.fields(RunConfiguration):
            if item.name == "noise_seed":
                continue
            # Every field is set off its default, so a field the copy
            # dropped would show up as a mismatch here.
            assert getattr(config, item.name) != item.default, item.name
            assert getattr(other, item.name) == getattr(config, item.name), item.name


class TestFormatTable:
    def test_alignment_and_headers(self):
        table = format_table(["name", "count"], [("alpha", 1), ("bravo-long", 22)])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "count" in lines[0]
        assert len(lines) == 4
        assert "bravo-long" in lines[3]

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert "a" in table


class TestReplayPlanHelpers:
    def test_empty_plan_for_golden_run(self):
        plan = build_replay_plan(make_run_result())
        assert plan.faults == []
        assert "no faults" in plan.describe()

    def test_resolution_falls_back_when_anchor_missing(self):
        original = make_run_result()
        original.injections = [
            InjectionRecord(
                sensor_id=SensorId(SensorType.GPS, 0),
                scheduled_time=0.7,
                injected_time=0.7,
            )
        ]
        plan = build_replay_plan(original)
        assert plan.faults[0].anchor_label == "takeoff"
        # Resolve against a run that never entered takeoff: fall back to 0.
        reference = make_run_result(transitions=[])
        scenario = resolve_plan(plan, reference)
        assert len(scenario) == 1
        assert scenario.faults[0].start_time >= 0.0


class TestReportRendering:
    def test_report_lists_workload_outcome_and_duration(self):
        report = unsafe_condition_report(make_run_result())
        assert "Workload outcome: passed" in report
        assert "Simulated duration" in report
