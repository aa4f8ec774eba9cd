"""Unit tests for the MAVLink-like protocol layer."""

import pytest

from repro.mavlink import (
    GroundControlStation,
    Heartbeat,
    MavCommand,
    MavLink,
    MissionAck,
    MissionCount,
    MissionItem,
    MissionPlan,
    MissionRequest,
    MissionUploadState,
    StatusText,
    mission_item,
)
from repro.mavlink.messages import CommandAck, CommandLong, GlobalPosition, MavResult, describe
from repro.mavlink.mission import MissionReceiveState, UploadPhase


class TestMavLink:
    def test_messages_delivered_in_order(self):
        link = MavLink()
        link.gcs_send(Heartbeat(mode="a"))
        link.gcs_send(Heartbeat(mode="b"))
        received = link.vehicle_receive()
        assert [m.mode for m in received] == ["a", "b"]

    def test_delivery_delay(self):
        link = MavLink(delay_steps=2)
        link.gcs_send(Heartbeat(mode="late"))
        assert link.vehicle_receive() == []
        link.advance()
        assert link.vehicle_receive() == []
        link.advance()
        assert len(link.vehicle_receive()) == 1

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            MavLink(delay_steps=-1)

    def test_link_never_drops_messages(self):
        link = MavLink()
        for seq in range(5000):
            link.gcs_send(StatusText(text=str(seq)))
        assert [m.text for m in link.vehicle_receive()] == [
            str(seq) for seq in range(5000)
        ]

    def test_receive_drains_the_queue(self):
        link = MavLink()
        link.vehicle_send(Heartbeat())
        assert len(link.gcs_receive()) == 1
        assert link.gcs_receive() == []

    def test_directions_are_independent(self):
        link = MavLink()
        link.gcs_send(Heartbeat(mode="to-vehicle"))
        link.vehicle_send(Heartbeat(mode="to-gcs"))
        assert [m.mode for m in link.gcs_receive()] == ["to-gcs"]
        assert [m.mode for m in link.vehicle_receive()] == ["to-vehicle"]

    def test_describe_renders_fields(self):
        assert "HEARTBEAT" in describe(Heartbeat(mode="auto"))


class TestMissionPlan:
    def test_items_are_resequenced(self):
        plan = MissionPlan(
            items=[
                mission_item(7, MavCommand.NAV_TAKEOFF, altitude=20.0),
                mission_item(9, MavCommand.NAV_LAND),
            ]
        )
        assert [item.seq for item in plan.items] == [0, 1]
        assert plan.commands() == [MavCommand.NAV_TAKEOFF, MavCommand.NAV_LAND]

    def test_extended_resequences(self):
        first = MissionPlan(items=[mission_item(0, MavCommand.NAV_TAKEOFF)])
        second = MissionPlan(items=[mission_item(0, MavCommand.NAV_LAND)])
        combined = first.extended(second)
        assert [item.seq for item in combined.items] == [0, 1]


class TestMissionUploadHandshake:
    def test_full_handshake(self):
        plan = MissionPlan(
            items=[
                mission_item(0, MavCommand.NAV_TAKEOFF, altitude=20.0),
                mission_item(1, MavCommand.NAV_LAND),
            ]
        )
        uploader = MissionUploadState(plan)
        receiver = MissionReceiveState()

        count = uploader.start()
        reply = receiver.handle_count(count)
        while isinstance(reply, MissionRequest):
            item = uploader.handle(reply)
            assert item is not None
            reply = receiver.handle_item(item)
        assert isinstance(reply, MissionAck) and reply.accepted
        uploader.handle(reply)
        assert uploader.complete
        received_plan = receiver.take_plan()
        assert received_plan is not None
        assert received_plan.commands() == plan.commands()

    def test_vehicle_rejects_oversized_mission(self):
        receiver = MissionReceiveState(max_items=2)
        reply = receiver.handle_count(MissionCount(count=5))
        assert isinstance(reply, MissionAck) and not reply.accepted

    def test_out_of_order_item_re_requested(self):
        receiver = MissionReceiveState()
        receiver.handle_count(MissionCount(count=2))
        reply = receiver.handle_item(mission_item(1, MavCommand.NAV_LAND))
        assert isinstance(reply, MissionRequest) and reply.seq == 0

    def test_uploader_fails_on_invalid_request(self):
        plan = MissionPlan(items=[mission_item(0, MavCommand.NAV_LAND)])
        uploader = MissionUploadState(plan)
        uploader.start()
        uploader.handle(MissionRequest(seq=5))
        assert uploader.failed
        assert uploader.phase == UploadPhase.FAILED

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            MissionUploadState(MissionPlan())


class TestGroundControlStation:
    def test_digests_heartbeat_and_position(self):
        link = MavLink()
        gcs = GroundControlStation(link)
        link.vehicle_send(Heartbeat(mode="AUTO", armed=True))
        link.vehicle_send(GlobalPosition(relative_altitude=12.5, vz=1.0))
        gcs.poll(time=3.0)
        assert gcs.telemetry.mode == "AUTO"
        assert gcs.telemetry.armed is True
        assert gcs.telemetry.relative_altitude == 12.5
        assert gcs.telemetry.last_heartbeat_time == 3.0

    def test_collects_status_text_and_acks(self):
        link = MavLink()
        gcs = GroundControlStation(link)
        link.vehicle_send(StatusText(severity="warning", text="baro failed"))
        link.vehicle_send(CommandAck(command=MavCommand.NAV_TAKEOFF, result=MavResult.ACCEPTED))
        messages = gcs.poll()
        assert any("baro failed" in text for text in gcs.telemetry.status_messages)
        acks = [message for message in messages if isinstance(message, CommandAck)]
        assert len(acks) == 1 and acks[0].command == MavCommand.NAV_TAKEOFF

    def test_poll_returns_each_message_once(self):
        # The GCS keeps no ack list: an ack is seen in the poll that
        # receives it and never again.
        link = MavLink()
        gcs = GroundControlStation(link)
        link.vehicle_send(CommandAck(command=MavCommand.NAV_TAKEOFF, result=MavResult.ACCEPTED))
        link.vehicle_send(CommandAck(command=MavCommand.NAV_LAND, result=MavResult.DENIED))
        acks = gcs.poll()
        assert [(ack.command, ack.result) for ack in acks] == [
            (MavCommand.NAV_TAKEOFF, MavResult.ACCEPTED),
            (MavCommand.NAV_LAND, MavResult.DENIED),
        ]
        assert gcs.poll() == []

    def test_arm_sends_command_long(self):
        link = MavLink()
        gcs = GroundControlStation(link)
        gcs.arm()
        messages = link.vehicle_receive()
        assert isinstance(messages[0], CommandLong)
        assert messages[0].command == MavCommand.COMPONENT_ARM_DISARM
        assert messages[0].param1 == 1.0

    def test_mission_upload_via_gcs(self):
        link = MavLink()
        gcs = GroundControlStation(link)
        receiver = MissionReceiveState()
        plan = MissionPlan(items=[mission_item(0, MavCommand.NAV_LAND)])
        gcs.begin_mission_upload(plan)
        # Simulate the vehicle side answering each message.
        for _ in range(10):
            for message in link.vehicle_receive():
                if isinstance(message, MissionCount):
                    reply = receiver.handle_count(message)
                elif isinstance(message, MissionItem):
                    reply = receiver.handle_item(message)
                else:
                    reply = None
                if reply is not None:
                    link.vehicle_send(reply)
            gcs.poll()
            if gcs.mission_upload_complete:
                break
        assert gcs.mission_upload_complete
