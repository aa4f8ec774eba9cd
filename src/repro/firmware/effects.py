"""The bug-effect engine: applies an :class:`EffectScript` to a run.

When the fail-safe path finds that a sensor failure matches an enabled
bug's trigger, the corresponding effect script becomes *active*.  From
then on the engine corrupts the state estimate, overrides the flight
mode, or overrides the throttle exactly as the script prescribes -- this
is the in-simulation realisation of the mishandled failure.

The engine is intentionally the only place bug behaviour is applied, so
"fixing" a bug (disabling it in the registry) removes the behaviour
completely and the firmware's correct fail-safe path takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.firmware.bugs import BugDescriptor, EffectScript
from repro.firmware.estimator import StateEstimate
from repro.firmware.modes import FlightMode


@dataclass
class ActiveEffect:
    """One bug effect currently being applied to the run."""

    descriptor: BugDescriptor
    triggered_at: float
    #: Estimate values captured at trigger time, for the freeze effects.
    frozen_north: float = 0.0
    frozen_east: float = 0.0
    frozen_altitude: float = 0.0
    frozen_heading: float = 0.0
    mode_forced: bool = False
    #: Latches for the throttle-cut effects: once the cut condition has
    #: been met the motors stay off (a reset EKF / tripped interlock does
    #: not spontaneously recover).
    throttle_cut_latched: bool = False

    @property
    def script(self) -> EffectScript:
        """The effect script of the underlying bug."""
        return self.descriptor.effect


@dataclass
class EffectOverrides:
    """Per-step outputs of the effect engine consumed by the firmware."""

    forced_mode: Optional[FlightMode] = None
    throttle_override: Optional[float] = None
    block_takeoff: bool = False
    abort_takeoff_at_altitude: Optional[float] = None


class BugEffectEngine:
    """Applies the active bug effects each control period."""

    def __init__(self) -> None:
        self._active: List[ActiveEffect] = []

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def activate(self, descriptor: BugDescriptor, estimate: StateEstimate, time: float) -> None:
        """Begin applying ``descriptor``'s effect (idempotent per bug)."""
        if any(effect.descriptor.bug_id == descriptor.bug_id for effect in self._active):
            return
        self._active.append(
            ActiveEffect(
                descriptor=descriptor,
                triggered_at=time,
                frozen_north=estimate.north,
                frozen_east=estimate.east,
                frozen_altitude=estimate.altitude,
                frozen_heading=estimate.yaw,
            )
        )

    # ------------------------------------------------------------------
    # Per-step application
    # ------------------------------------------------------------------
    def corrupt_estimate(self, estimate: StateEstimate) -> StateEstimate:
        """Apply estimate corruptions in place and return the estimate."""
        for effect in self._active:
            script = effect.script
            if script.freeze_horizontal:
                estimate.north = effect.frozen_north
                estimate.east = effect.frozen_east
                estimate.vel_north = 0.0
                estimate.vel_east = 0.0
            if script.freeze_altitude:
                estimate.altitude = effect.frozen_altitude
            if script.vertical_velocity_blind:
                estimate.climb_rate = 0.0
            if script.freeze_heading:
                estimate.yaw = effect.frozen_heading
            if script.altitude_offset:
                estimate.altitude += script.altitude_offset
        return estimate

    def overrides(
        self,
        estimate: StateEstimate,
        airborne: bool,
        time: float,
    ) -> EffectOverrides:
        """Compute the mode/throttle overrides for this control period."""
        result = EffectOverrides()
        for effect in self._active:
            script = effect.script
            elapsed = time - effect.triggered_at
            if (
                script.force_mode is not None
                and not effect.mode_forced
                and elapsed >= script.force_mode_delay_s
            ):
                result.forced_mode = script.force_mode
                effect.mode_forced = True
            if script.throttle_cut_once_airborne:
                if effect.throttle_cut_latched or (airborne and estimate.altitude > 1.5):
                    effect.throttle_cut_latched = True
                    result.throttle_override = 0.0
            if script.throttle_cut_below_altitude is not None:
                # The cut models a state-estimate reset / EKF fail-safe that
                # only fires once the (possibly wrong) fail-safe descent is
                # under way, so give the forced mode a moment to engage.
                should_cut = (
                    airborne
                    and estimate.altitude < script.throttle_cut_below_altitude
                    and elapsed >= script.force_mode_delay_s
                )
                if effect.throttle_cut_latched or should_cut:
                    effect.throttle_cut_latched = True
                    result.throttle_override = 0.0
            if script.block_takeoff:
                result.block_takeoff = True
            if script.abort_takeoff_at_altitude is not None:
                if result.abort_takeoff_at_altitude is None:
                    result.abort_takeoff_at_altitude = script.abort_takeoff_at_altitude
                else:
                    result.abort_takeoff_at_altitude = min(
                        result.abort_takeoff_at_altitude, script.abort_takeoff_at_altitude
                    )
        return result
