"""The safety invariant (Section IV-C-1).

Safety means "the UAV does not collide with an obstacle".  The monitor
detects two things:

* software crashes -- "the invariant monitor checks if the firmware
  process is still running";
* physical collisions -- the vehicle "rapidly (de)accelerates but has the
  same position as another simulated object, e.g. the ground".

The simulator already records collision events with impact speeds (see
:class:`repro.sim.simulator.CollisionEvent`), so the safety monitor's job
is to translate those records -- plus the firmware-liveness flag -- into
unsafe-condition reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.runner import RunResult


@dataclass(frozen=True)
class SafetyViolation:
    """A single violation of the safety rule."""

    time: float
    kind: str
    description: str
    mode_label: str


class SafetyMonitor:
    """Detects crashes (physical and software) in a run."""

    #: Impacts slower than this (m/s) are touchdowns, not collisions.
    IMPACT_SPEED_THRESHOLD = 2.0

    @staticmethod
    def _vehicle_label(result: RunResult, vehicle: int, time: float) -> str:
        """The involved vehicle's mode label, namespaced off the lead.

        Classic runs only ever involve vehicle 0, so the label is exactly
        the lead's, as before; fleet events attribute the mode of the
        vehicle that actually crashed (``v1:rtl``), not the lead's.
        """
        label = result.vehicle_mode_label_at(vehicle, time)
        if vehicle:
            label = f"v{vehicle}:{label}"
        return label

    def evaluate(self, result: RunResult) -> List[SafetyViolation]:
        """Offline evaluation of a completed run."""
        violations: List[SafetyViolation] = []
        for collision in result.collisions:
            if collision.impact_speed < self.IMPACT_SPEED_THRESHOLD:
                continue
            vehicle = getattr(collision, "vehicle", 0)
            violations.append(
                SafetyViolation(
                    time=collision.time,
                    kind="collision",
                    description=collision.describe(),
                    mode_label=self._vehicle_label(result, vehicle, collision.time),
                )
            )
        if not result.firmware_process_alive:
            dead = [
                vehicle
                for vehicle, alive in sorted(result.vehicle_firmware_alive.items())
                if not alive
            ]
            vehicle = dead[0] if dead else 0
            violations.append(
                SafetyViolation(
                    time=result.duration_s,
                    kind="software-crash",
                    description="firmware process is no longer running",
                    mode_label=self._vehicle_label(result, vehicle, result.duration_s),
                )
            )
        return violations
