"""Integration tests for the firmware's MAVLink handling (no workload).

These drive a firmware instance directly through the link -- the same
path the workload framework uses -- and step the lock-step loop by hand.
"""

import pytest

from repro.firmware.ardupilot import ArduPilotFirmware
from repro.hinj.instrumentation import HinjInterface
from repro.mavlink.gcs import GroundControlStation
from repro.mavlink.link import MavLink
from repro.mavlink.messages import MavCommand
from repro.mavlink.mission import MissionPlan, mission_item
from repro.sensors.suite import iris_sensor_suite
from repro.sim.simulator import Simulator


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
