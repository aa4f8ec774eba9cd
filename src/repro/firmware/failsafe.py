"""Fail-safe manager: the firmware's *correct* reactions to faults.

The paper's central observation is that developers apply default
fail-safe actions (return to launch, land) "assuming they can be
executed effectively"; sensor bugs are the places where that assumption
breaks.  The fail-safe manager implements the *intended* behaviour:

* loss of every instance of a sensor type triggers the configured
  fail-safe action for that type (land for GPS/compass loss, land for a
  dual-IMU loss, continue-on-GPS-altitude for barometer loss);
* a low or failed battery triggers the battery fail-safe (RTL, or land
  when the position estimate is unusable);
* a fence breach triggers the fence fail-safe (RTL).

Failures of a *backup* instance -- or of a primary with a healthy backup
-- fail over silently, matching real firmware.  The bug registry is
consulted on the same events; when a bug matches, its effect overrides
the correct handling through the effect engine (see
:mod:`repro.firmware.effects`), which is how the narrow, mode-specific
mishandling the paper describes is realised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.firmware.estimator import EstimatorStatus, SensorFailureEvent
from repro.firmware.modes import FlightMode
from repro.firmware.params import FirmwareParameters
from repro.sensors.base import SensorType


class FailsafeAction(enum.Enum):
    """Actions the fail-safe manager can request."""

    NONE = "none"
    CONTINUE_DEGRADED = "continue-degraded"
    LAND = "land"
    RTL = "rtl"
    DISARM = "disarm"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class FailsafeEvent:
    """One fail-safe decision taken during the run."""

    time: float
    reason: str
    action: FailsafeAction
    sensor_type: Optional[SensorType] = None

    def describe(self) -> str:
        """One-line description used in status text and reports."""
        return f"failsafe {self.action.value} at t={self.time:.2f}s: {self.reason}"


class FailsafeManager:
    """Maps sensor failures, battery state and fence breaches to actions."""

    def __init__(self, params: FirmwareParameters) -> None:
        self._params = params
        self._events: List[FailsafeEvent] = []
        self._battery_failsafe_fired = False
        self._fence_failsafe_fired = False

    @property
    def events(self) -> List[FailsafeEvent]:
        """Every fail-safe decision taken so far."""
        return list(self._events)

    def _record(self, event: FailsafeEvent) -> FailsafeEvent:
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Sensor failures
    # ------------------------------------------------------------------
    def handle_sensor_failure(
        self,
        event: SensorFailureEvent,
        status: EstimatorStatus,
        flight_mode: FlightMode,
        airborne: bool,
    ) -> FailsafeEvent:
        """Decide the correct reaction to one sensor-instance failure."""
        sensor_type = event.sensor_id.sensor_type
        time = event.time

        if not event.type_exhausted and sensor_type not in (
            SensorType.GPS,
            SensorType.BAROMETER,
            SensorType.BATTERY,
        ):
            # A redundant instance remains: fail over, keep flying.
            return self._record(
                FailsafeEvent(
                    time=time,
                    reason=f"{event.sensor_id.label} failed; backup instance took over",
                    action=FailsafeAction.CONTINUE_DEGRADED,
                    sensor_type=sensor_type,
                )
            )

        if not airborne:
            # On the ground the safe reaction is to refuse/stop flight.
            return self._record(
                FailsafeEvent(
                    time=time,
                    reason=f"{event.sensor_id.label} failed on the ground; holding",
                    action=FailsafeAction.DISARM,
                    sensor_type=sensor_type,
                )
            )

        if sensor_type == SensorType.GPS and self._params.gps_failsafe_enabled:
            return self._record(
                FailsafeEvent(
                    time=time,
                    reason="GPS failed in flight; landing on remaining sensors",
                    action=FailsafeAction.LAND,
                    sensor_type=sensor_type,
                )
            )
        if sensor_type == SensorType.BAROMETER:
            action = (
                FailsafeAction.CONTINUE_DEGRADED
                if status.is_healthy(SensorType.GPS)
                else FailsafeAction.LAND
            )
            return self._record(
                FailsafeEvent(
                    time=time,
                    reason="barometer failed; using GPS altitude"
                    if action is FailsafeAction.CONTINUE_DEGRADED
                    else "barometer failed with no GPS; landing",
                    action=action,
                    sensor_type=sensor_type,
                )
            )
        if sensor_type == SensorType.BATTERY:
            return self._battery_failsafe(time, status)
        # Dual IMU loss, compass loss: land.
        return self._record(
            FailsafeEvent(
                time=time,
                reason=f"all {sensor_type.value} instances failed; landing",
                action=FailsafeAction.LAND,
                sensor_type=sensor_type,
            )
        )

    # ------------------------------------------------------------------
    # Battery and fence
    # ------------------------------------------------------------------
    def check_battery(
        self, remaining: Optional[float], status: EstimatorStatus, time: float
    ) -> Optional[FailsafeEvent]:
        """Fire the battery fail-safe when the pack runs low."""
        if not self._params.battery_failsafe_enabled or self._battery_failsafe_fired:
            return None
        if remaining is None or remaining > self._params.battery_failsafe_level:
            return None
        self._battery_failsafe_fired = True
        return self._battery_failsafe(time, status)

    def _battery_failsafe(self, time: float, status: EstimatorStatus) -> FailsafeEvent:
        self._battery_failsafe_fired = True
        # The correct behaviour: RTL when the position estimate is still
        # valid, otherwise land straight down.
        if status.position_valid:
            action = FailsafeAction.RTL
            reason = "battery failsafe: returning to launch"
        else:
            action = FailsafeAction.LAND
            reason = "battery failsafe without position estimate: landing"
        return self._record(
            FailsafeEvent(time=time, reason=reason, action=action, sensor_type=SensorType.BATTERY)
        )

    def check_fence(self, breached: bool, time: float) -> Optional[FailsafeEvent]:
        """Fire the fence fail-safe on the first breach."""
        if not self._params.fence_enabled or not breached or self._fence_failsafe_fired:
            return None
        self._fence_failsafe_fired = True
        return self._record(
            FailsafeEvent(
                time=time,
                reason="fence breach: returning to launch",
                action=FailsafeAction.RTL,
            )
        )
