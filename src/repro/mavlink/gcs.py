"""The ground-control station used by the workload framework.

The GCS owns the GCS end of the :class:`~repro.mavlink.link.MavLink`:
it sends commands and mission uploads, and it digests the telemetry the
firmware streams back (heartbeats, position, mission progress, status
text).  The workload framework's high-level APIs (``arm``, ``takeoff``,
``wait_altitude`` ...) are all built from these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.mavlink.link import MavLink
from repro.mavlink.messages import (
    CommandLong,
    GlobalPosition,
    Heartbeat,
    MavCommand,
    Message,
    MissionAck,
    MissionCurrent,
    MissionItemReached,
    MissionRequest,
    SetMode,
    StatusText,
)
from repro.mavlink.mission import MissionPlan, MissionUploadState


@dataclass
class TelemetrySnapshot:
    """The GCS's latest view of the vehicle, built from telemetry."""

    mode: str = "preflight"
    armed: bool = False
    relative_altitude: float = 0.0
    latitude: float = 0.0
    longitude: float = 0.0
    heading: float = 0.0
    climb_rate: float = 0.0
    mission_current: int = 0
    reached_items: List[int] = field(default_factory=list)
    status_messages: List[str] = field(default_factory=list)
    last_heartbeat_time: float = 0.0


class GroundControlStation:
    """GCS-side protocol driver."""

    def __init__(self, link: MavLink) -> None:
        self._link = link
        self._telemetry = TelemetrySnapshot()
        self._upload: Optional[MissionUploadState] = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def telemetry(self) -> TelemetrySnapshot:
        """The latest digested telemetry."""
        return self._telemetry

    def poll(self, time: float = 0.0) -> List[Message]:
        """Receive and digest every pending message from the vehicle.

        Returns the raw messages so callers with special needs (tests,
        custom workloads) can inspect them as well.
        """
        messages = self._link.gcs_receive()
        for message in messages:
            self._digest(message, time)
        return messages

    def _digest(self, message: Message, time: float) -> None:
        if isinstance(message, Heartbeat):
            self._telemetry.mode = message.mode
            self._telemetry.armed = message.armed
            self._telemetry.last_heartbeat_time = time
        elif isinstance(message, GlobalPosition):
            self._telemetry.relative_altitude = message.relative_altitude
            self._telemetry.latitude = message.latitude
            self._telemetry.longitude = message.longitude
            self._telemetry.heading = message.heading
            self._telemetry.climb_rate = message.vz
        elif isinstance(message, MissionCurrent):
            self._telemetry.mission_current = message.seq
        elif isinstance(message, MissionItemReached):
            if message.seq not in self._telemetry.reached_items:
                self._telemetry.reached_items.append(message.seq)
        elif isinstance(message, StatusText):
            self._telemetry.status_messages.append(f"[{message.severity}] {message.text}")
        elif isinstance(message, (MissionRequest, MissionAck)) and self._upload is not None:
            item = self._upload.handle(message)
            if item is not None:
                self._link.gcs_send(item)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def send_command(self, command: MavCommand, **params: float) -> None:
        """Send a ``COMMAND_LONG`` with the given parameters."""
        self._link.gcs_send(CommandLong(command=command, **params))

    def arm(self) -> None:
        """Request that the vehicle arm its motors."""
        self.send_command(MavCommand.COMPONENT_ARM_DISARM, param1=1.0)

    def disarm(self) -> None:
        """Request that the vehicle disarm its motors."""
        self.send_command(MavCommand.COMPONENT_ARM_DISARM, param1=0.0)

    def set_mode(self, mode: str) -> None:
        """Request a flight-mode change."""
        self._link.gcs_send(SetMode(mode=mode))

    def command_takeoff(self, altitude: float) -> None:
        """Command an immediate (guided) takeoff to ``altitude`` metres."""
        self.send_command(MavCommand.NAV_TAKEOFF, param7=altitude)

    def start_mission(self) -> None:
        """Command the vehicle to start executing the uploaded mission."""
        self.send_command(MavCommand.MISSION_START)

    # ------------------------------------------------------------------
    # Mission upload
    # ------------------------------------------------------------------
    def begin_mission_upload(self, plan: MissionPlan) -> None:
        """Start the mission upload handshake for ``plan``.

        The handshake progresses as :meth:`poll` digests the vehicle's
        ``MISSION_REQUEST`` messages; the workload framework keeps calling
        ``step()`` until :meth:`mission_upload_complete` turns true.
        """
        self._upload = MissionUploadState(plan)
        self._link.gcs_send(self._upload.start())

    @property
    def mission_upload_complete(self) -> bool:
        """True when the vehicle acknowledged the uploaded plan."""
        return self._upload is not None and self._upload.complete

    @property
    def mission_upload_failed(self) -> bool:
        """True when the vehicle rejected the uploaded plan."""
        return self._upload is not None and self._upload.failed

    @property
    def mission_upload_failure_reason(self) -> str:
        """The rejection reason for a failed upload (empty otherwise)."""
        if self._upload is None:
            return ""
        return self._upload.failure_reason
