"""The liveliness invariant (Section IV-C-2).

Liveliness: "the UAV must always make progress towards its goal", which
may legitimately be sacrificed in a *safe mode* to preserve safety.

The check compares the test run against a set of fault-free profiling
runs.  The state at time-offset ``t`` is the tuple ``(P, alpha, M)``
(position, acceleration, operating mode).  Distances are normalised so
all three components live on the scale of the mode graph:

    d_P = d_e(P_i, P_j) * D / P_max
    d_A = d_e(A_i, A_j) * D / A_max
    d_M = mode-graph shortest path
    d   = || (d_P, d_A, d_M) ||

``P_max`` / ``A_max`` / ``tau`` are the largest pairwise distances seen
between the profiling runs themselves; liveliness is violated at ``t``
when the test state is farther than ``tau`` from *every* profiling run
(Equation 1 of the paper).

Calibration note: the paper's profiling runs differ because of genuine
OS-level non-determinism.  The reproduction's runs differ only through
sensor-noise seeds, which would make ``P_max`` / ``A_max`` / ``tau``
unrealistically tight and turn benign degraded-but-live behaviour into
false positives (the paper reports none).  The monitor therefore applies
floors to the normalisation constants (``LivelinessMonitor.MIN_*``); they
allow a few metres of position slack, which is far below the tens-of-metres
deviations of a real fly-away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.modegraph import ModeGraph
from repro.core.runner import RunResult, TraceSample
from repro.firmware.modes import OperatingModeLabel
from repro.sim.state import euclidean_distance


@dataclass(frozen=True)
class LivelinessViolation:
    """A single violation of the liveliness rule."""

    time: float
    kind: str
    description: str
    mode_label: str
    distance: float = 0.0
    threshold: float = 0.0


#: Operating-mode labels treated as safe modes by default: the fail-safes
#: deliberately sacrifice liveliness in these modes, so the plain
#: liveliness rule is replaced by the per-mode progress invariants.
DEFAULT_SAFE_MODE_LABELS = frozenset(
    {OperatingModeLabel.RTL, OperatingModeLabel.LAND, OperatingModeLabel.LANDED}
)


#: One tolerance window: (start, end) simulation times, inclusive.
ToleranceWindow = Tuple[float, float]


def time_in_windows(time: float, windows: Sequence[ToleranceWindow]) -> bool:
    """True when ``time`` falls inside any of ``windows``."""
    return any(start <= time <= end for start, end in windows)


def rtl_progress_violation(
    past: TraceSample, current: TraceSample, progress_threshold: float
) -> Optional[str]:
    """Evaluate the return-to-launch progress invariant over one window.

    Progress in RTL means approaching the launch site, climbing toward the
    return altitude, or descending for the final approach once the vehicle
    is already over the launch point.  A vehicle that is clearly *receding*
    from the launch site is always a violation (that is the fly-away
    signature), even if its altitude happens to be changing.

    Returns a description of the violation, or ``None`` when the window
    shows acceptable progress.
    """

    def home_distance(sample: TraceSample) -> float:
        return math.hypot(sample.position[0], sample.position[1])

    approach = home_distance(past) - home_distance(current)
    altitude_change = current.altitude - past.altitude
    receding = approach <= -3.0
    near_home = home_distance(current) <= 8.0
    descending_over_home = -altitude_change >= progress_threshold and near_home
    made_progress = (
        approach >= progress_threshold
        or altitude_change >= progress_threshold
        or descending_over_home
        # A vehicle already over the launch site has, by definition, made
        # its way back; only receding from it is a violation there.
        or near_home
    )
    if receding or not made_progress:
        return (
            "no progress toward the launch site while in the return-to-launch "
            f"fail-safe (approach {approach:.2f} m, altitude change "
            f"{altitude_change:.2f} m)"
        )
    return None


@dataclass
class LivelinessCalibration:
    """Normalisation constants derived from the profiling runs."""

    position_scale: float
    acceleration_scale: float
    threshold: float
    diameter: int

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"P={self.position_scale:.2f} m, A={self.acceleration_scale:.2f} m/s^2, "
            f"tau={self.threshold:.3f}, D={self.diameter}"
        )


class SafeModeProgressTracker:
    """The safe-mode progress invariants, streamed over one vehicle's trace.

    A vehicle in the land mode must keep descending; a vehicle in the
    return-to-launch mode must keep approaching home (or climbing to its
    return altitude).  Violations of these are how fly-aways that hide
    inside a fail-safe mode are caught.  The rule is judged over a
    window of :attr:`LivelinessMonitor.PROGRESS_WINDOW_S` seconds spent
    entirely in one airborne fail-safe mode and is calibration free, so
    it applies to any vehicle's trace -- fleet followers included.  Each
    mode is flagged at most once per trace.

    This is the one implementation of the rule: the harness streams a
    run through it while the run executes (so a stalled fail-safe is
    aborted as soon as it is detectable) and the offline evaluation
    streams the completed trace through a fresh one.
    """

    def __init__(self) -> None:
        self._samples: List[TraceSample] = []
        #: Index of the first sample of the current run of equal mode labels.
        self._mode_since = 0
        self._flagged_labels: Set[str] = set()

    def observe(
        self, sample: TraceSample, tolerate: bool = False
    ) -> Optional[LivelinessViolation]:
        """Stream one sample; ``tolerate`` records it without judging it
        (used inside recovery-tolerance windows, where a stalled
        fail-safe is expected transient behaviour)."""
        samples = self._samples
        if samples and samples[-1].mode_label != sample.mode_label:
            self._mode_since = len(samples)
        samples.append(sample)
        label = sample.mode_label
        if tolerate or sample.on_ground or len(samples) < 2:
            return None
        if label in self._flagged_labels:
            return None
        if label not in (OperatingModeLabel.LAND, OperatingModeLabel.RTL):
            return None
        sample_period = samples[1].time - samples[0].time
        if sample_period <= 0.0:
            return None
        window_s = LivelinessMonitor.PROGRESS_WINDOW_S
        window = max(int(window_s / sample_period), 2)
        past_index = len(samples) - 1 - window
        if past_index < self._mode_since:
            # Too short a trace, or the fail-safe mode was (re)entered
            # mid-window: wait for a full window inside the mode.
            return None
        past = samples[past_index]
        if label == OperatingModeLabel.LAND:
            descent = past.altitude - sample.altitude
            if descent >= LivelinessMonitor.LAND_PROGRESS_M:
                return None
            description = (
                "no descent progress while in the land fail-safe "
                f"({descent:.2f} m over {window_s:.0f} s)"
            )
        else:
            rtl_description = rtl_progress_violation(
                past, sample, LivelinessMonitor.RTL_PROGRESS_M
            )
            if rtl_description is None:
                return None
            description = f"{rtl_description} over {window_s:.0f} s"
        self._flagged_labels.add(label)
        return LivelinessViolation(
            time=sample.time,
            kind="safe-mode-progress",
            description=description,
            mode_label=label,
        )


class LivelinessMonitor:
    """Compares test runs against profiling runs per Equation 1."""

    #: Window (seconds) over which the safe-mode progress invariants are
    #: evaluated.
    PROGRESS_WINDOW_S = 6.0
    #: Minimum descent (metres) expected over the window while landing.
    LAND_PROGRESS_M = 0.5
    #: Minimum approach toward home (metres) expected over the window
    #: while returning to launch (or, equivalently, climb toward the RTL
    #: altitude).
    RTL_PROGRESS_M = 1.0
    #: Calibration floors on the normalisation constants (see the module
    #: docstring): position scale (m), acceleration scale (m/s^2) and tau.
    MIN_POSITION_SCALE = 5.0
    MIN_ACCELERATION_SCALE = 2.0
    MIN_THRESHOLD = 1.5
    #: +/- time offset (seconds) tolerated when aligning a test sample
    #: with the profiling runs.
    ALIGNMENT_WINDOW_S = 1.5

    def __init__(self, profiling_runs: Sequence[RunResult]) -> None:
        if not profiling_runs:
            raise ValueError("at least one profiling run is required")
        self._profiles = [run.trace for run in profiling_runs]
        self._mode_graph = ModeGraph.from_profiling_runs(
            [run.mode_transitions for run in profiling_runs]
        )
        self._safe_labels = set(DEFAULT_SAFE_MODE_LABELS)
        self._calibration = self._calibrate()
        #: Index offsets in the order the verdict visits them: 0, -1,
        #: +1, -2, +2, ... out to the alignment window.
        self._offsets = [0]
        for step in range(1, self._alignment_window_samples() + 1):
            self._offsets.extend((-step, step))

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    @property
    def calibration(self) -> LivelinessCalibration:
        """The normalisation constants in use."""
        return self._calibration

    @property
    def mode_graph(self) -> ModeGraph:
        """The mode graph built from the profiling runs."""
        return self._mode_graph

    def add_safe_mode(self, label: str) -> None:
        """Allow developers to declare an additional safe mode."""
        self._safe_labels.add(label)

    def _profile_sample(self, profile: List[TraceSample], index: int) -> TraceSample:
        """Profiling sample at ``index``, repeating the last state (padding)."""
        if index < len(profile):
            return profile[index]
        return profile[-1]

    def _max_index(self) -> int:
        return max(len(profile) for profile in self._profiles)

    def _calibrate(self) -> LivelinessCalibration:
        diameter = self._mode_graph.diameter
        position_scale = 0.0
        acceleration_scale = 0.0
        length = self._max_index()
        for i in range(len(self._profiles)):
            for j in range(i + 1, len(self._profiles)):
                for index in range(length):
                    sample_i = self._profile_sample(self._profiles[i], index)
                    sample_j = self._profile_sample(self._profiles[j], index)
                    position_scale = max(
                        position_scale,
                        euclidean_distance(sample_i.position, sample_j.position),
                    )
                    acceleration_scale = max(
                        acceleration_scale,
                        euclidean_distance(sample_i.acceleration, sample_j.acceleration),
                    )
        position_scale = max(position_scale, self.MIN_POSITION_SCALE)
        acceleration_scale = max(acceleration_scale, self.MIN_ACCELERATION_SCALE)

        threshold = 0.0
        for i in range(len(self._profiles)):
            for j in range(i + 1, len(self._profiles)):
                for index in range(length):
                    sample_i = self._profile_sample(self._profiles[i], index)
                    sample_j = self._profile_sample(self._profiles[j], index)
                    threshold = max(
                        threshold,
                        self._state_distance(
                            sample_i, sample_j, position_scale, acceleration_scale, diameter
                        ),
                    )
        threshold = max(threshold, self.MIN_THRESHOLD)
        return LivelinessCalibration(
            position_scale=position_scale,
            acceleration_scale=acceleration_scale,
            threshold=threshold,
            diameter=diameter,
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def _state_distance(
        self,
        a: TraceSample,
        b: TraceSample,
        position_scale: float,
        acceleration_scale: float,
        diameter: int,
    ) -> float:
        d_position = (
            euclidean_distance(a.position, b.position) * diameter / position_scale
        )
        d_acceleration = (
            euclidean_distance(a.acceleration, b.acceleration)
            * diameter
            / acceleration_scale
        )
        d_mode = self._mode_graph.distance(a.mode_label, b.mode_label)
        return math.sqrt(d_position ** 2 + d_acceleration ** 2 + d_mode ** 2)

    def state_distance(self, a: TraceSample, b: TraceSample) -> float:
        """Public normalised state distance (used by tests and analysis)."""
        calibration = self._calibration
        return self._state_distance(
            a,
            b,
            calibration.position_scale,
            calibration.acceleration_scale,
            calibration.diameter,
        )

    def _alignment_window_samples(self) -> int:
        """The +/- sample-index tolerance used when comparing to profiles.

        The paper's profiling runs differ through genuine OS-level timing
        jitter, which their tau absorbs; the reproduction's runs are nearly
        deterministic, so instead the comparison tolerates a small time
        offset.  A fail-over that delays a mode transition by a second is
        live; a fly-away diverges far beyond any +/- 1.5 s alignment.
        """
        if len(self._profiles[0]) < 2:
            return 0
        sample_period = self._profiles[0][1].time - self._profiles[0][0].time
        if sample_period <= 0.0:
            return 0
        return max(int(self.ALIGNMENT_WINDOW_S / sample_period), 0)

    def distance_to_profiles(self, sample: TraceSample) -> float:
        """Distance from ``sample`` to the profiling runs (Equation 1).

        Candidates are every profiling run at every sample index within
        the alignment window of the test sample's index (padding past a
        profile's end, skipping negative indices).  Equation 1 is an
        existence test, so the search walks outward from offset 0 (0, -1,
        +1, -2, +2, ...) and stops at the first candidate within tau --
        usually the first one.  The result is therefore the exact minimum
        only when it lies above tau, i.e. exactly when the sample diverges;
        otherwise it is some distance within tau.  A NaN distance never
        lowers ``best``, as in the exact minimum.
        """
        calibration = self._calibration
        threshold = calibration.threshold
        position_scale = calibration.position_scale
        acceleration_scale = calibration.acceleration_scale
        diameter = calibration.diameter
        best = float("inf")
        for offset in self._offsets:
            index = sample.index + offset
            if index < 0:
                continue
            for profile in self._profiles:
                distance = self._state_distance(
                    sample,
                    self._profile_sample(profile, index),
                    position_scale,
                    acceleration_scale,
                    diameter,
                )
                if distance < best:
                    best = distance
                    if best <= threshold:
                        return best
        return best

    # ------------------------------------------------------------------
    # Violation checks
    # ------------------------------------------------------------------
    def is_safe_mode(self, label: str) -> bool:
        """True when ``label`` is one of the declared safe modes."""
        return label in self._safe_labels

    def check_sample(self, sample: TraceSample) -> Optional[LivelinessViolation]:
        """Equation 1 applied to one trace sample (online and offline).

        :meth:`distance_to_profiles` searches outward from offset 0 and
        stops at the first profiling sample within tau, so only a
        violation pays for the exact minimum it reports.  "Some candidate
        within tau" is exactly "the minimum within tau", so the verdict is
        the full scan's.
        """
        if self.is_safe_mode(sample.mode_label):
            return None
        if sample.on_ground and not sample.armed:
            # Refusing to fly (failed pre-arm checks, post-failsafe disarm)
            # preserves safety at the expense of liveliness; not a bug.
            return None
        distance = self.distance_to_profiles(sample)
        if distance > self._calibration.threshold:
            return LivelinessViolation(
                time=sample.time,
                kind="liveliness",
                description=(
                    f"state diverged from every profiling run "
                    f"(distance {distance:.2f} > tau {self._calibration.threshold:.2f})"
                ),
                mode_label=sample.mode_label,
                distance=distance,
                threshold=self._calibration.threshold,
            )
        return None

    def evaluate(
        self,
        result: RunResult,
        tolerance_windows: Sequence[ToleranceWindow] = (),
    ) -> List[LivelinessViolation]:
        """Offline evaluation of a completed run (Equation 1 + safe modes).

        Returns the first Equation-1 divergence (later ones add noise)
        followed by the safe-mode progress violations, in time order.

        ``tolerance_windows`` are the recovery-tolerance spans of the
        run's intermittent faults: a divergence inside one is expected
        degraded-but-recovering behaviour, not a violation, so samples
        inside them are not judged and the stream keeps judging
        afterwards -- divergence that *persists* beyond the window is
        still flagged instead of the whole run latching on the transient.
        """
        progress = progress_violations(result.trace, tolerance_windows)
        for sample in result.trace:
            if time_in_windows(sample.time, tolerance_windows):
                continue
            divergence = self.check_sample(sample)
            if divergence is not None:
                return [divergence] + progress
        return progress


def progress_violations(
    samples: Sequence[TraceSample], tolerance_windows: Sequence[ToleranceWindow]
) -> List[LivelinessViolation]:
    """Stream a completed trace through a fresh
    :class:`SafeModeProgressTracker`, tolerating ``tolerance_windows``."""
    tracker = SafeModeProgressTracker()
    violations = []
    for sample in samples:
        violation = tracker.observe(
            sample, tolerate=time_in_windows(sample.time, tolerance_windows)
        )
        if violation is not None:
            violations.append(violation)
    return violations
