"""Integration tests for the firmware's MAVLink handling (no workload).

These drive a firmware instance directly through the link -- the same
path the workload framework uses -- and step the lock-step loop by hand.
The telemetry-stream pin at the end flies a whole waypoint workload
through the harness and records what crosses the link.
"""

import pytest
from conftest import line_digest

from repro.core.config import RunConfiguration
from repro.core.runner import SimulationHarness
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.telemetry import FirmwareMavlinkHandler
from repro.hinj.faults import EMPTY_SCENARIO, FaultScenario, FaultSpec
from repro.hinj.instrumentation import HinjInterface
from repro.mavlink.gcs import GroundControlStation
from repro.mavlink.link import MavLink
from repro.mavlink.messages import MavCommand
from repro.mavlink.mission import MissionPlan, MissionReceiveState, mission_item
from repro.sensors.base import SensorId, SensorType
from repro.sensors.suite import iris_sensor_suite
from repro.sim.simulator import Simulator
from repro.workloads.builtin import WaypointFenceWorkload


class Bench:
    """A minimal hand-stepped firmware + simulator + GCS bench."""

    def __init__(self, hinj=None):
        self.simulator = Simulator(dt=0.02)
        self.suite = iris_sensor_suite()
        self.link = MavLink()
        self.gcs = GroundControlStation(self.link)
        self.firmware = ArduPilotFirmware(
            suite=self.suite, link=self.link, hinj=hinj, dt=0.02
        )

    def step(self, count=1):
        for _ in range(count):
            self.link.advance()
            self.gcs.poll(self.simulator.time)
            readings = self.suite.read_all(self.simulator.state, self.simulator.time)
            command = self.firmware.update(readings, self.simulator.time)
            self.simulator.step(command)


@pytest.fixture()
def bench():
    return Bench()


class TestCommandHandling:
    def test_arm_via_gcs(self, bench):
        bench.step(10)
        bench.gcs.arm()
        bench.step(10)
        assert bench.firmware.armed
        assert bench.gcs.telemetry.armed  # heartbeat reflects the armed state

    def test_disarm_refused_then_allowed(self, bench):
        bench.step(5)
        bench.gcs.arm()
        bench.step(5)
        bench.gcs.disarm()
        bench.step(5)
        assert not bench.firmware.armed

    def test_guided_takeoff_command(self, bench):
        bench.step(10)
        bench.gcs.arm()
        bench.step(10)
        bench.gcs.command_takeoff(5.0)
        bench.step(400)
        assert bench.firmware.estimate.altitude > 3.0
        assert bench.firmware.operating_mode_label in ("takeoff", "guided")

    def test_set_mode_by_flavour_name(self, bench):
        bench.step(5)
        bench.gcs.set_mode("LOITER")
        bench.step(5)
        assert bench.firmware.flight_mode.value == "loiter"

    def test_unknown_mode_rejected_with_status_text(self, bench):
        bench.step(5)
        bench.gcs.set_mode("WARPDRIVE")
        bench.step(5)
        assert any(
            "rejected" in text for text in bench.gcs.telemetry.status_messages
        )

    def test_auto_mode_requires_a_mission(self, bench):
        bench.step(5)
        bench.gcs.arm()
        bench.step(5)
        bench.gcs.set_mode("AUTO")
        bench.step(5)
        assert bench.firmware.flight_mode.value != "auto"


class TestMissionUploadThroughFirmware:
    def test_upload_and_start(self, bench):
        bench.step(10)
        plan = MissionPlan(
            items=[
                mission_item(0, MavCommand.NAV_TAKEOFF, altitude=6.0),
                mission_item(1, MavCommand.NAV_LAND),
            ]
        )
        bench.gcs.begin_mission_upload(plan)
        bench.step(30)
        assert bench.gcs.mission_upload_complete
        bench.gcs.arm()
        bench.step(10)
        bench.gcs.set_mode("AUTO")
        bench.gcs.start_mission()
        bench.step(150)
        assert bench.firmware.estimate.altitude > 1.0
        # The mission executes: by now the vehicle is climbing (takeoff item)
        # or already past it (auto / land items of this two-item mission).
        assert bench.firmware.flight_mode.value in ("auto", "takeoff", "land")

    def test_telemetry_reports_mission_progress(self, bench):
        bench.step(10)
        plan = MissionPlan(
            items=[
                mission_item(0, MavCommand.NAV_TAKEOFF, altitude=4.0),
                mission_item(1, MavCommand.NAV_LAND),
            ]
        )
        bench.gcs.begin_mission_upload(plan)
        bench.step(30)
        bench.gcs.arm()
        bench.step(10)
        bench.gcs.start_mission()
        bench.step(600)
        assert 0 in bench.gcs.telemetry.reached_items


class TestModeTransitionsReporting:
    def _take_off(self):
        hinj = HinjInterface()
        bench = Bench(hinj)
        bench.step(10)
        bench.gcs.arm()
        bench.step(10)
        bench.gcs.command_takeoff(4.0)
        bench.step(300)
        return bench, hinj

    def test_hinj_logs_preflight_then_takeoff(self):
        bench, hinj = self._take_off()
        labels = [transition.label for transition in hinj.transitions]
        assert labels[0] == "preflight"
        assert "takeoff" in labels
        assert labels[-1] == bench.firmware.operating_mode_label

    def test_label_since_is_the_last_transition_time(self):
        # The firmware keeps only when its current label was entered;
        # that time is the one hinj logged for the label.
        bench, hinj = self._take_off()
        assert len(hinj.transitions) > 1
        assert bench.firmware._label_since == hinj.transitions[-1].time


# ----------------------------------------------------------------------
# Telemetry-stream pin
# ----------------------------------------------------------------------
def _stream(fault_time):
    """Fly the short ArduPilot waypoint mission (``gps[0]`` failing from
    ``fault_time`` on, when given) and return what crossed the link: one
    ``("gcs", time, message type)`` per message the ground station
    digested and one ``("fw", time, what)`` per command or mission
    message the firmware dispatched, times as ``float.hex``."""
    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: WaypointFenceWorkload(
            altitude=10.0, box_side=10.0, init_wait_ms=1000.0
        ),
        max_sim_time_s=120.0,
    )
    scenario = (
        FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), fault_time)])
        if fault_time is not None
        else EMPTY_SCENARIO
    )
    records = []
    clock = []

    def now():
        return clock[0].simulator.time.hex()

    digest = GroundControlStation._digest
    handle_command = FirmwareMavlinkHandler._handle_command
    handle_set_mode = FirmwareMavlinkHandler._handle_set_mode
    handle_count = MissionReceiveState.handle_count
    handle_item = MissionReceiveState.handle_item

    def digested(self, message, time):
        records.append(("gcs", time.hex(), type(message).__name__))
        return digest(self, message, time)

    def commanded(self, message, time):
        records.append(("fw", time.hex(), message.command.name))
        return handle_command(self, message, time)

    def mode_set(self, message, time):
        records.append(("fw", time.hex(), f"SetMode:{message.mode}"))
        return handle_set_mode(self, message, time)

    def counted(self, message):
        records.append(("fw", now(), "MissionCount"))
        return handle_count(self, message)

    def itemised(self, message):
        records.append(("fw", now(), f"MissionItem:{message.seq}"))
        return handle_item(self, message)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GroundControlStation, "_digest", digested)
        patch.setattr(FirmwareMavlinkHandler, "_handle_command", commanded)
        patch.setattr(FirmwareMavlinkHandler, "_handle_set_mode", mode_set)
        patch.setattr(MissionReceiveState, "handle_count", counted)
        patch.setattr(MissionReceiveState, "handle_item", itemised)
        harness = SimulationHarness(config, scenario)
        clock.append(harness)
        workload = config.workload_factory()
        workload.bind(harness)
        result = harness.build_result(workload, workload.run())
    return records, result


class TestTelemetryStreamPin:
    """Which messages cross the link, and on which step, are pinned to
    digests recorded before the quiet-tick fast paths existed: skipping
    an empty queue, or reading the telemetry intervals once, must not
    move a message by one step."""

    #: fault time -> (stream digest, records, GCS digests, firmware
    #: dispatches).  ``gps[0]`` fails on the first waypoint leg, the
    #: APM-16020 handler fires and the vehicle flies away until the
    #: 120 s budget ends the run.
    EXPECTED = {
        None: ("3633a6bbcfc0a940a69e", 571, 560, 11),
        8.0: ("244b533d107c0b051537", 1676, 1665, 11),
    }

    @pytest.mark.parametrize("fault_time", [None, 8.0], ids=["fault-free", "gps0-at-8s"])
    def test_stream_is_pinned(self, fault_time):
        records, result = _stream(fault_time)
        gcs = sum(1 for side, _, _ in records if side == "gcs")
        assert [record.injected_time for record in result.injections] == (
            [] if fault_time is None else [fault_time]
        )
        assert self.EXPECTED[fault_time] == (
            line_digest(records),
            len(records),
            gcs,
            len(records) - gcs,
        )
