"""The invariant monitor: safety + liveliness + safe-mode invariants.

At the end of every simulation step the monitor checks the two rules of
Section IV-C; when a rule is violated it produces an
:class:`UnsafeCondition` carrying enough detail to reproduce and diagnose
the problem (the fault scenario itself is recorded by the runner, and the
replay module re-executes it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.core.liveliness import (
    LivelinessMonitor,
    LivelinessViolation,
    SafeModeProgressTracker,
    ToleranceWindow,
    progress_violations,
    time_in_windows,
)
from repro.core.modegraph import ModeGraph
from repro.core.runner import RunResult, TraceSample
from repro.core.safety import SafetyMonitor, SafetyViolation
from repro.firmware.modes import OperatingModeLabel


def recovery_tolerance_windows(
    scenario, grace_s: float, run_duration_s: Optional[float] = None
) -> List[ToleranceWindow]:
    """The re-convergence tolerance spans of a scenario's intermittent
    faults.

    Each recovering fault (finite ``duration_s``) contributes the span
    from its injection to ``grace_s`` seconds past its recovery: inside
    it, deviation from the profiled behaviour is the *expected* shape of
    a transient fault plus the settle-back, so the liveliness layers do
    not latch a violation there.  Latched faults contribute nothing --
    a scenario without recovery windows keeps the exact classic
    judgement.

    ``run_duration_s`` (supplied by the offline evaluation, which knows
    how long the run actually lasted) drops windows whose recovery never
    landed inside the run: a burst that outlives the mission behaved
    exactly like its latched twin, so it earns no tolerance either.
    """
    if scenario is None:
        return []
    return [
        (fault.start_time, fault.end_time + grace_s)
        for fault in getattr(scenario, "recovering_faults", [])
        if run_duration_s is None or fault.end_time <= run_duration_s
    ]


class UnsafeConditionKind(enum.Enum):
    """The rule a detected unsafe condition violates."""

    SAFETY_COLLISION = "safety-collision"
    SAFETY_SOFTWARE_CRASH = "safety-software-crash"
    LIVELINESS = "liveliness"
    SAFE_MODE_PROGRESS = "safe-mode-progress"
    SEPARATION = "separation"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class UnsafeCondition:
    """One detected violation of the invariant rules."""

    kind: UnsafeConditionKind
    time: float
    mode_label: str
    description: str

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"{self.kind.value} at t={self.time:.2f}s (mode '{self.mode_label}'): "
            f"{self.description}"
        )


class InvariantMonitor:
    """Combines the safety, liveliness and separation monitors.

    The minimum-separation invariant only activates for fleet runs: when
    the profiling runs carry fleet separation data
    (:attr:`~repro.core.runner.RunResult.min_separation_m`), the
    threshold is calibrated below the tightest approach the fault-free
    mission exhibits, so golden fleet runs never violate it.  For classic
    single-vehicle campaigns the threshold stays ``None`` and the monitor
    behaves exactly as before.
    """

    #: Calibration: the separation threshold is this fraction of the
    #: tightest fault-free approach, capped at the absolute default.
    SEPARATION_CALIBRATION_FACTOR = 0.5
    #: Absolute cap on the calibrated threshold, in metres.
    MAX_SEPARATION_THRESHOLD_M = 5.0
    #: Seconds past an intermittent fault's recovery during which the
    #: liveliness layers tolerate divergence from the profiled behaviour
    #: (the settle-back).  Safety and separation are never tolerated: a
    #: crash during a transient is still a crash.
    RECOVERY_GRACE_S = 8.0

    def __init__(self, profiling_runs: Sequence[RunResult]) -> None:
        self._safety = SafetyMonitor()
        self._liveliness = LivelinessMonitor(profiling_runs)
        #: Online safe-mode progress trackers, one per fleet member (the
        #: lead included), reset by :meth:`begin_run`.
        self._trackers: Dict[int, SafeModeProgressTracker] = {}
        self._tolerance_windows: List[ToleranceWindow] = []
        self._separation_threshold = self._calibrate_separation(profiling_runs)

    @classmethod
    def _calibrate_separation(
        cls, profiling_runs: Sequence[RunResult]
    ) -> Optional[float]:
        """Derive the separation threshold from fleet profiling runs."""
        golden = [
            run.min_separation_m
            for run in profiling_runs
            if run.fleet_size > 1 and run.min_separation_m is not None
        ]
        if not golden:
            return None
        return min(
            min(golden) * cls.SEPARATION_CALIBRATION_FACTOR,
            cls.MAX_SEPARATION_THRESHOLD_M,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def liveliness(self) -> LivelinessMonitor:
        """The liveliness monitor (exposes calibration and mode graph)."""
        return self._liveliness

    @property
    def mode_graph(self) -> ModeGraph:
        """The mode graph built from the profiling runs."""
        return self._liveliness.mode_graph

    @property
    def separation_threshold_m(self) -> Optional[float]:
        """The calibrated minimum-separation threshold (None when the
        monitor was calibrated from single-vehicle profiling runs)."""
        return self._separation_threshold

    def add_safe_mode(self, label: str) -> None:
        """Declare an additional safe mode (developer-supplied)."""
        self._liveliness.add_safe_mode(label)

    # ------------------------------------------------------------------
    # Online interface (used by the harness during a run)
    # ------------------------------------------------------------------
    def begin_run(self, scenario=None) -> None:
        """Reset per-run state before a new run starts.

        ``scenario`` (when the runner supplies it) seeds the recovery
        tolerance windows: while an intermittent fault is active -- and
        for :data:`RECOVERY_GRACE_S` seconds after it recovers -- the
        online liveliness layers tolerate divergence instead of latching
        a violation, so a run is not aborted on the expected transient.
        Latched-only scenarios produce no windows and are judged exactly
        as before.
        """
        self._trackers = {}
        self._tolerance_windows = recovery_tolerance_windows(
            scenario, self.RECOVERY_GRACE_S
        )

    def _tolerated(self, time: float) -> bool:
        """True inside a recovery-tolerance window of the current run."""
        return time_in_windows(time, self._tolerance_windows)

    def _observe_progress(
        self, vehicle: int, sample: TraceSample, tolerated: bool
    ) -> Optional[LivelinessViolation]:
        """Stream one sample through ``vehicle``'s progress tracker."""
        tracker = self._trackers.get(vehicle)
        if tracker is None:
            tracker = self._trackers[vehicle] = SafeModeProgressTracker()
        return tracker.observe(sample, tolerate=tolerated)

    def check_sample(self, sample: TraceSample) -> Optional[UnsafeCondition]:
        """Check one lead trace sample while the run is executing.

        The liveliness rule and the safe-mode progress invariants are
        evaluated online (safety violations are detected by the
        simulator's collision log as they happen); returning a violation
        lets the harness abort the run early.  Samples inside a recovery
        tolerance window are recorded but not judged.
        """
        tolerated = self._tolerated(sample.time)
        violation = None if tolerated else self._liveliness.check_sample(sample)
        progress = self._observe_progress(0, sample, tolerated)
        if violation is None:
            violation = progress
        if violation is None:
            return None
        return self._from_liveliness(violation)

    def check_vehicle_sample(
        self, vehicle: int, sample: TraceSample
    ) -> Optional[UnsafeCondition]:
        """Check one fleet member's trace sample while the run executes.

        Vehicle 0 (the lead) gets the full online treatment of
        :meth:`check_sample`.  Followers fly a different mode sequence
        than the profiled lead, so Equation 1 would false-alarm on them;
        they stream only through the calibration-free safe-mode progress
        windows -- which is exactly what catches a coordination fault
        that strands a follower inside a fail-safe.  Follower violations
        carry a vehicle-namespaced mode label (``v1:rtl``).
        """
        if vehicle == 0:
            return self.check_sample(sample)
        violation = self._observe_progress(
            vehicle, sample, self._tolerated(sample.time)
        )
        if violation is None:
            return None
        return self._namespaced(self._from_liveliness(violation), vehicle)

    @staticmethod
    def _namespaced(condition: UnsafeCondition, vehicle: int) -> UnsafeCondition:
        """A follower's condition, labelled with its fleet index -- the
        one format shared by online streaming and offline evaluation."""
        return UnsafeCondition(
            kind=condition.kind,
            time=condition.time,
            mode_label=f"v{vehicle}:{condition.mode_label}",
            description=f"vehicle {vehicle}: {condition.description}",
        )

    # ------------------------------------------------------------------
    # Offline evaluation
    # ------------------------------------------------------------------
    def evaluate(self, result: RunResult) -> List[UnsafeCondition]:
        """Evaluate a completed run against every rule.

        Scope note for fleet runs: safety (collisions, firmware crashes)
        and separation cover every vehicle.  Equation-1 liveliness is
        calibrated from -- and evaluated against -- the lead's trace
        only: follower workload labels follow a different mode sequence
        than the profiled one, so judging them against the lead's
        calibration would produce false alarms.  The calibration-free
        safe-mode progress windows, however, cover every vehicle:
        follower traces are checked with vehicle-namespaced labels,
        matching the online streaming in :meth:`check_vehicle_sample`.

        Scenarios with intermittent faults are judged with recovery
        tolerance: the liveliness layers skip the active-plus-grace
        window of each recovering fault (re-convergence is expected, not
        a bug) while safety and separation stay strict throughout.  A
        fault whose window outlived the run never actually recovered --
        the run is physically the latched one -- so it earns no
        tolerance here, even if the online streaming (which cannot know
        the run's end in advance) deferred judgement; the offline
        verdict computed here is the authoritative one.
        """
        windows = recovery_tolerance_windows(
            result.scenario, self.RECOVERY_GRACE_S, result.duration_s
        )
        conditions: List[UnsafeCondition] = []
        for violation in self._safety.evaluate(result):
            conditions.append(self._from_safety(violation))
        for violation in self._liveliness.evaluate(result, windows):
            conditions.append(self._from_liveliness(violation))
        for vehicle, samples in sorted(result.vehicle_traces.items()):
            if vehicle == 0:
                continue  # the lead is covered by the full evaluation above
            for violation in progress_violations(samples, windows):
                conditions.append(
                    self._namespaced(self._from_liveliness(violation), vehicle)
                )
        conditions.extend(self._evaluate_separation(result))
        return sorted(conditions, key=lambda condition: condition.time)

    def _evaluate_separation(self, result: RunResult) -> List[UnsafeCondition]:
        """Separation violations from the run's proximity event log.

        One condition per conflicting pair (the simulator already limits
        the log to one event per conflict entry; the first entry is the
        finding, later re-entries of the same pair add no information).
        The condition's mode label is the lower-indexed vehicle's
        operating mode, namespaced when that vehicle is not the lead.
        """
        if self._separation_threshold is None or not result.proximity_events:
            return []
        conditions: List[UnsafeCondition] = []
        seen_pairs: Set[tuple] = set()
        for event in result.proximity_events:
            pair = (event.vehicle_a, event.vehicle_b)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            label = result.vehicle_mode_label_at(event.vehicle_a, event.time)
            if event.vehicle_a:
                label = f"v{event.vehicle_a}:{label}"
            conditions.append(
                UnsafeCondition(
                    kind=UnsafeConditionKind.SEPARATION,
                    time=event.time,
                    mode_label=label,
                    description=(
                        f"{event.describe()} "
                        f"(minimum separation {self._separation_threshold:.2f} m)"
                    ),
                )
            )
        return conditions

    # ------------------------------------------------------------------
    # Converters
    # ------------------------------------------------------------------
    @staticmethod
    def _from_safety(violation: SafetyViolation) -> UnsafeCondition:
        kind = (
            UnsafeConditionKind.SAFETY_COLLISION
            if violation.kind == "collision"
            else UnsafeConditionKind.SAFETY_SOFTWARE_CRASH
        )
        return UnsafeCondition(
            kind=kind,
            time=violation.time,
            mode_label=violation.mode_label,
            description=violation.description,
        )

    @staticmethod
    def _from_liveliness(violation: LivelinessViolation) -> UnsafeCondition:
        kind = (
            UnsafeConditionKind.LIVELINESS
            if violation.kind == "liveliness"
            else UnsafeConditionKind.SAFE_MODE_PROGRESS
        )
        return UnsafeCondition(
            kind=kind,
            time=violation.time,
            mode_label=violation.mode_label,
            description=violation.description,
        )


def mode_category_of(condition: UnsafeCondition) -> str:
    """The Table IV mode category (takeoff/manual/waypoint/land) of a condition."""
    return OperatingModeLabel.mode_category(condition.mode_label)
