"""Firmware-side MAVLink handling: command dispatch and telemetry.

One handler instance lives inside each firmware instance.  Every control
period it (1) drains the vehicle side of the link and dispatches the
messages to the firmware (arming, mode changes, takeoff, mission upload
handshake, mission start) and (2) streams telemetry back at the
configured rates (heartbeat, position, mission progress, status text).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.firmware.params import FirmwareParameters
from repro.mavlink.link import MavLink
from repro.mavlink.messages import (
    CommandAck,
    CommandLong,
    GlobalPosition,
    Heartbeat,
    MavCommand,
    MavResult,
    MissionCount,
    MissionCurrent,
    MissionItem,
    MissionItemReached,
    SetMode,
    StatusText,
)
from repro.mavlink.mission import MissionReceiveState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.firmware.base import ControlFirmware


class FirmwareMavlinkHandler:
    """Processes GCS traffic and emits telemetry for one firmware."""

    def __init__(
        self,
        firmware: "ControlFirmware",
        link: MavLink,
        params: FirmwareParameters,
    ) -> None:
        self._firmware = firmware
        self._link = link
        self._inbox = link.vehicle_inbox
        # The parameters are frozen: read the stream intervals once.
        self._heartbeat_interval = params.heartbeat_interval_s
        self._telemetry_interval = params.telemetry_interval_s
        self._mission_receive = MissionReceiveState()
        self._last_heartbeat = float("-inf")
        self._last_telemetry = float("-inf")
        self._announced_reached: List[int] = []
        self._last_mission_current: Optional[int] = None

    # ------------------------------------------------------------------
    # Incoming traffic
    # ------------------------------------------------------------------
    def process_incoming(self, time: float) -> None:
        """Drain and dispatch every message addressed to the vehicle."""
        if not self._inbox:
            return
        for message in self._link.vehicle_receive():
            if isinstance(message, CommandLong):
                self._handle_command(message, time)
            elif isinstance(message, SetMode):
                self._handle_set_mode(message, time)
            elif isinstance(message, MissionCount):
                reply = self._mission_receive.handle_count(message)
                if reply is not None:
                    self._link.vehicle_send(reply)
            elif isinstance(message, MissionItem):
                reply = self._mission_receive.handle_item(message)
                if reply is not None:
                    self._link.vehicle_send(reply)
                plan = self._mission_receive.take_plan()
                if plan is not None:
                    self._firmware.load_mission(plan)

    def _handle_command(self, message: CommandLong, time: float) -> None:
        firmware = self._firmware
        result = MavResult.ACCEPTED
        if message.command == MavCommand.COMPONENT_ARM_DISARM:
            if message.param1 >= 0.5:
                decision = firmware.command_arm(time)
            else:
                decision = firmware.command_disarm()
            if not decision.allowed:
                result = MavResult.TEMPORARILY_REJECTED
                self.send_status_text("warning", decision.reason_text or "arming refused")
        elif message.command == MavCommand.NAV_TAKEOFF:
            accepted = firmware.command_takeoff(message.param7, time)
            result = MavResult.ACCEPTED if accepted else MavResult.TEMPORARILY_REJECTED
        elif message.command == MavCommand.MISSION_START:
            accepted = firmware.start_mission(time)
            result = MavResult.ACCEPTED if accepted else MavResult.TEMPORARILY_REJECTED
        elif message.command == MavCommand.NAV_RETURN_TO_LAUNCH:
            firmware.command_rtl(time)
        elif message.command == MavCommand.NAV_LAND:
            firmware.command_land(time)
        else:
            result = MavResult.UNSUPPORTED
        self._link.vehicle_send(CommandAck(command=message.command, result=result))

    def _handle_set_mode(self, message: SetMode, time: float) -> None:
        accepted = self._firmware.set_mode_by_name(message.mode, time)
        if not accepted:
            self.send_status_text("warning", f"mode change to {message.mode} rejected")

    # ------------------------------------------------------------------
    # Outgoing telemetry
    # ------------------------------------------------------------------
    def send_telemetry(self, time: float) -> None:
        """Emit heartbeat / position / mission progress at their rates."""
        if time - self._last_heartbeat >= self._heartbeat_interval:
            self._last_heartbeat = time
            self._link.vehicle_send(
                Heartbeat(
                    mode=self._firmware.mode_display_name,
                    armed=self._firmware.armed,
                    system_status="active" if self._firmware.armed else "standby",
                )
            )
        if time - self._last_telemetry >= self._telemetry_interval:
            self._last_telemetry = time
            self._send_position()
            self._send_mission_progress()

    def _send_position(self) -> None:
        estimate = self._firmware.estimate
        home = self._firmware.home
        location = home.offset(estimate.north, estimate.east)
        self._link.vehicle_send(
            GlobalPosition(
                latitude=location.latitude_deg,
                longitude=location.longitude_deg,
                altitude=home.altitude_msl_m + estimate.altitude,
                relative_altitude=estimate.altitude,
                vx=estimate.vel_north,
                vy=estimate.vel_east,
                vz=estimate.climb_rate,
                heading=estimate.yaw,
            )
        )

    def _send_mission_progress(self) -> None:
        current = self._firmware.mission_current_seq
        if current is not None and current != self._last_mission_current:
            self._last_mission_current = current
            self._link.vehicle_send(MissionCurrent(seq=current))
        for seq in self._firmware.mission_reached_items:
            if seq not in self._announced_reached:
                self._announced_reached.append(seq)
                self._link.vehicle_send(MissionItemReached(seq=seq))

    def send_status_text(self, severity: str, text: str) -> None:
        """Send a free-form status text message to the GCS."""
        self._link.vehicle_send(StatusText(severity=severity, text=text))
