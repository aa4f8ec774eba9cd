"""Pre-arm checks and the arming state machine.

Real autopilots refuse to arm when mandatory sensors are unhealthy; the
workloads arm the vehicle before any fault is injected, so under normal
operation the checks pass.  They exist because (a) several bug windows
start in the pre-flight operating mode, and (b) the workload framework's
``arm_system_completely`` must mirror the real handshake (request, wait
for the acknowledgement, re-request on transient denial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.firmware.estimator import EstimatorStatus
from repro.firmware.params import FirmwareParameters
from repro.sensors.base import SensorType


@dataclass(frozen=True)
class ArmingDecision:
    """Outcome of an arming or disarming request."""

    allowed: bool
    reasons: tuple = ()

    @property
    def reason_text(self) -> str:
        """Joined failure reasons (empty when the request was allowed)."""
        return "; ".join(self.reasons)


class ArmingController:
    """Tracks the armed state and evaluates pre-arm checks."""

    def __init__(self, params: FirmwareParameters) -> None:
        self._params = params
        self._armed = False

    @property
    def armed(self) -> bool:
        """True while the motors are armed."""
        return self._armed

    def prearm_checks(self, status: EstimatorStatus) -> ArmingDecision:
        """Evaluate the pre-arm checks against the estimator status."""
        reasons: List[str] = []
        if self._params.require_gps_for_arming and not status.is_healthy(SensorType.GPS):
            reasons.append("PreArm: GPS unhealthy")
        if self._params.require_compass_for_arming and not status.is_healthy(SensorType.COMPASS):
            reasons.append("PreArm: compass unhealthy")
        if self._params.require_baro_for_arming and not status.is_healthy(SensorType.BAROMETER):
            reasons.append("PreArm: barometer unhealthy")
        if not status.is_healthy(SensorType.GYROSCOPE):
            reasons.append("PreArm: gyroscope unhealthy")
        if not status.is_healthy(SensorType.ACCELEROMETER):
            reasons.append("PreArm: accelerometer unhealthy")
        return ArmingDecision(allowed=not reasons, reasons=tuple(reasons))

    def request_arm(self, status: EstimatorStatus, time: float) -> ArmingDecision:
        """Process an arm request from the ground-control station."""
        if self._armed:
            return ArmingDecision(allowed=True)
        decision = self.prearm_checks(status)
        if decision.allowed:
            self._armed = True
        return decision

    def request_disarm(self, airborne: bool) -> ArmingDecision:
        """Process a disarm request (refused while airborne)."""
        if airborne:
            return ArmingDecision(allowed=False, reasons=("cannot disarm in flight",))
        self._armed = False
        return ArmingDecision(allowed=True)

    def force_disarm(self) -> None:
        """Disarm unconditionally (used after landing completes)."""
        self._armed = False
