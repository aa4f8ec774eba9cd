"""Sensor bugs: descriptors, triggers, effects, and the registry.

The paper's evaluation revolves around concrete sensor bugs in the
firmware's fault-handling logic:

* Table II lists ten *previously unknown* bugs Avis found in the current
  code base (six in ArduPilot, four in PX4).  Here they exist as latent,
  enabled-by-default code paths in the corresponding firmware flavour.
* Table V re-inserts five *previously known* bugs (APM-4455, APM-4679,
  APM-5428, APM-9349, PX4-13291) and checks whether each approach
  re-discovers them.  Those are disabled by default and can be
  re-inserted through :meth:`BugRegistry.reinsert`.

Each bug is a :class:`BugDescriptor` made of a :class:`BugTrigger` (which
sensor failure, in which operating-mode window, under what altitude and
joint-failure conditions the mishandling engages -- the "failure handling
logic that is too narrowly tailored to specific operating modes") and an
:class:`EffectScript` describing *how* the firmware mishandles it (frozen
estimates, wrong fail-safe, throttle cuts ...).  The firmware's bug-effect
engine (:mod:`repro.firmware.effects`) interprets the script; the
observable outcome is the bug's symptom: a crash, a fly-away, or a
takeoff failure.

The registry is also the ground truth the evaluation harness uses to map
unsafe conditions back to root-cause bugs (the paper does this manually
by studying the reports; the simulation can do it exactly).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.firmware.modes import FlightMode, OperatingModeLabel
from repro.sensors.base import SensorRole, SensorType


class BugSymptom(enum.Enum):
    """Observable symptom classes used in Table II."""

    CRASH = "Crash"
    FLY_AWAY = "Fly Away"
    TAKEOFF_FAILURE = "Takeoff Failure"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class BugTrigger:
    """The narrow condition under which a bug's mishandling engages.

    Attributes
    ----------
    sensor_type:
        The sensor type whose failure the buggy handler mishandles.
    mode_labels:
        Operating-mode labels (or prefixes, see ``prefix_match``) during
        which the failure is mishandled.  ``None`` means any mode.
    prefix_match:
        When True, a label matches if it *starts with* one of
        ``mode_labels`` -- used for waypoint legs (``waypoint`` matches
        ``waypoint-1``, ``waypoint-2`` ...).
    min_altitude / max_altitude:
        Estimated-altitude window (metres) for the mishandling.
    requires_failed_types:
        Additional sensor types that must *already* be failed for the bug
        to trigger (PX4-13291 needs GPS *and* battery).
    primary_only:
        When True the bug only triggers when the failed instance was the
        one the firmware was actively using (primary, or the backup that
        had taken over); failures of idle backups fail over cleanly.
    max_seconds_into_mode:
        When set, the failure must occur within this many seconds of the
        firmware *entering* the matching operating mode.  This encodes the
        paper's central observation: sensor-bug manifestations are
        time-sensitive and cluster around mode transitions (Figure 1's
        crash only reproduces when the IMU fails in a narrow window).
    """

    sensor_type: SensorType
    mode_labels: Optional[FrozenSet[str]] = None
    prefix_match: bool = False
    min_altitude: Optional[float] = None
    max_altitude: Optional[float] = None
    requires_failed_types: FrozenSet[SensorType] = frozenset()
    primary_only: bool = True
    max_seconds_into_mode: Optional[float] = None

    def matches(
        self,
        sensor_type: SensorType,
        mode_label: str,
        altitude: float,
        failed_types: FrozenSet[SensorType],
        was_active_instance: bool,
        seconds_into_mode: float = 0.0,
    ) -> bool:
        """Return True when a failure in this context engages the bug."""
        if sensor_type != self.sensor_type:
            return False
        if self.primary_only and not was_active_instance:
            return False
        if self.mode_labels is not None:
            if self.prefix_match:
                if not any(mode_label.startswith(prefix) for prefix in self.mode_labels):
                    return False
            elif mode_label not in self.mode_labels:
                return False
        if self.min_altitude is not None and altitude < self.min_altitude:
            return False
        if self.max_altitude is not None and altitude > self.max_altitude:
            return False
        if not self.requires_failed_types <= failed_types:
            return False
        if (
            self.max_seconds_into_mode is not None
            and seconds_into_mode > self.max_seconds_into_mode
        ):
            return False
        return True


@dataclass(frozen=True)
class EffectScript:
    """How the firmware mishandles the failure once a bug has triggered.

    The fields are primitives the bug-effect engine knows how to apply;
    one bug usually combines a corruption of the state estimate with a
    wrong fail-safe decision, because that combination -- "the difference
    between expectations, modeled state and reality" -- is what the paper
    identifies as the source of severe outcomes.
    """

    #: Freeze the horizontal position/velocity estimate at its value when
    #: the bug triggered (the navigation keeps chasing a stale position).
    freeze_horizontal: bool = False
    #: Freeze the altitude estimate (the altitude controller keeps
    #: climbing/descending toward a target it can never observe reaching).
    freeze_altitude: bool = False
    #: Freeze the heading estimate (the controller decomposes thrust along
    #: a stale heading and veers off track).
    freeze_heading: bool = False
    #: Constant error added to the altitude estimate (a wrong altitude
    #: reference after switching to GPS altitude, as in Figure 1).
    altitude_offset: float = 0.0
    #: Zero out the vertical-velocity estimate (climb not sensed ->
    #: overshoot, as in APM-16021).
    vertical_velocity_blind: bool = False
    #: Switch to this flight mode (the wrong fail-safe) after
    #: ``force_mode_delay_s`` seconds.
    force_mode: Optional[FlightMode] = None
    force_mode_delay_s: float = 0.0
    #: Cut the throttle once the *estimated* altitude drops below this
    #: value (models the "state estimate reset" near the end of landing in
    #: APM-16967, or an EKF fail-safe killing the motors).
    throttle_cut_below_altitude: Optional[float] = None
    #: Cut the throttle as soon as the vehicle is airborne (models a
    #: tip-over right after lift-off, PX4-17057).
    throttle_cut_once_airborne: bool = False
    #: Refuse to produce climb authority in takeoff (the vehicle never
    #: leaves the ground -- a takeoff failure).
    block_takeoff: bool = False
    #: Abort the takeoff at this altitude and hover there instead of
    #: continuing to the commanded altitude.
    abort_takeoff_at_altitude: Optional[float] = None


@dataclass(frozen=True)
class BugDescriptor:
    """One sensor bug, as listed in Table II or Table V of the paper."""

    bug_id: str
    firmware: str
    symptom: BugSymptom
    sensor_type: SensorType
    failure_moment: str
    summary: str
    trigger: BugTrigger
    effect: EffectScript
    #: True for previously-known bugs (Table V) that must be explicitly
    #: re-inserted; False for the latent, previously-unknown bugs of
    #: Table II that ship enabled in the "current code base".
    known: bool = False
    #: Whether firmware developers confirmed the bug (2 of the 10 new
    #: bugs had been confirmed at the time of writing).
    developer_confirmed: bool = False
    #: Whether Stratified BFI also found the bug in Table II / Table V
    #: (recorded for the experiment harness' expectations, not used by
    #: the firmware).
    found_by_stratified_bfi: bool = False


class BugRegistry:
    """The set of bugs present in one firmware instance.

    A registry is created per firmware instance (and therefore per test
    run).  Latent bugs are enabled from the start; known bugs become
    active only after :meth:`reinsert`.  During the run the firmware's
    fail-safe path calls :meth:`match` whenever a sensor failure is
    handled; the ids of matched bugs are recorded so the evaluation
    harness can attribute unsafe conditions to root causes.
    """

    def __init__(self, descriptors: Iterable[BugDescriptor] = ()) -> None:
        self._descriptors: Dict[str, BugDescriptor] = {}
        self._enabled: Dict[str, bool] = {}
        # Ids of bugs that engaged, in first-trigger order.
        self._triggered: List[str] = []
        for descriptor in descriptors:
            self.add(descriptor)

    # ------------------------------------------------------------------
    # Registry management
    # ------------------------------------------------------------------
    def add(self, descriptor: BugDescriptor) -> None:
        """Register a bug; latent bugs are enabled immediately."""
        if descriptor.bug_id in self._descriptors:
            raise ValueError(f"duplicate bug id {descriptor.bug_id}")
        self._descriptors[descriptor.bug_id] = descriptor
        self._enabled[descriptor.bug_id] = not descriptor.known

    def reinsert(self, bug_id: str) -> None:
        """Re-insert (enable) a previously-known bug, as in Table V."""
        if bug_id not in self._descriptors:
            raise KeyError(f"unknown bug id {bug_id}")
        self._enabled[bug_id] = True

    def disable(self, bug_id: str) -> None:
        """Disable a bug (equivalent to applying the fix)."""
        if bug_id not in self._descriptors:
            raise KeyError(f"unknown bug id {bug_id}")
        self._enabled[bug_id] = False

    def descriptor(self, bug_id: str) -> BugDescriptor:
        """Return the descriptor for ``bug_id``."""
        return self._descriptors[bug_id]

    @property
    def descriptors(self) -> List[BugDescriptor]:
        """All registered bugs in a stable order."""
        return [self._descriptors[bug_id] for bug_id in sorted(self._descriptors)]

    @property
    def enabled_descriptors(self) -> List[BugDescriptor]:
        """All currently enabled bugs in a stable order."""
        return [d for d in self.descriptors if self._enabled[d.bug_id]]

    # ------------------------------------------------------------------
    # Matching and recording
    # ------------------------------------------------------------------
    def match(
        self,
        sensor_type: SensorType,
        mode_label: str,
        altitude: float,
        failed_types: FrozenSet[SensorType],
        was_active_instance: bool,
        seconds_into_mode: float = 0.0,
    ) -> List[BugDescriptor]:
        """Return the enabled bugs whose trigger matches this failure.

        A bug's first match is recorded as a side effect.
        """
        matches: List[BugDescriptor] = []
        for descriptor in self.enabled_descriptors:
            if descriptor.trigger.matches(
                sensor_type,
                mode_label,
                altitude,
                failed_types,
                was_active_instance,
                seconds_into_mode,
            ):
                matches.append(descriptor)
                if descriptor.bug_id not in self._triggered:
                    self._triggered.append(descriptor.bug_id)
        return matches

    @property
    def triggered_bug_ids(self) -> List[str]:
        """Ids of bugs that engaged at least once, in first-trigger order."""
        return list(self._triggered)


# ----------------------------------------------------------------------
# The bug catalogue
# ----------------------------------------------------------------------
def _labels(*labels: str) -> FrozenSet[str]:
    return frozenset(labels)


ARDUPILOT_LATENT_BUGS: Tuple[BugDescriptor, ...] = (
    BugDescriptor(
        bug_id="APM-16020",
        firmware="ardupilot",
        symptom=BugSymptom.FLY_AWAY,
        sensor_type=SensorType.GPS,
        failure_moment="Takeoff -> Autopilot",
        summary=(
            "A GPS failure as the vehicle hands over from takeoff to autonomous "
            "flight leaves the navigation controller chasing a frozen position "
            "estimate; the vehicle accelerates away from the mission track."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.GPS,
            mode_labels=_labels(OperatingModeLabel.TAKEOFF, "waypoint-1"),
            prefix_match=False,
            min_altitude=5.0,
            max_seconds_into_mode=3.0,
        ),
        effect=EffectScript(freeze_horizontal=True),
    ),
    BugDescriptor(
        bug_id="APM-16021",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.ACCELEROMETER,
        failure_moment="Takeoff -> Waypoint 1",
        summary=(
            "An accelerometer failure late in the takeoff climb blinds the "
            "vertical-velocity estimate; the vehicle overshoots the target "
            "altitude, the firmware overcorrects into a landing with a stale, "
            "too-high altitude model, and the vehicle hits the ground hard "
            "(Figure 9 of the paper)."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.ACCELEROMETER,
            mode_labels=_labels(OperatingModeLabel.TAKEOFF),
            min_altitude=3.0,
        ),
        effect=EffectScript(
            vertical_velocity_blind=True,
            freeze_altitude=True,
            force_mode=FlightMode.LAND,
            force_mode_delay_s=5.0,
            altitude_offset=15.0,
        ),
    ),
    BugDescriptor(
        bug_id="APM-16027",
        firmware="ardupilot",
        symptom=BugSymptom.FLY_AWAY,
        sensor_type=SensorType.BAROMETER,
        failure_moment="Pre-Flight -> Takeoff",
        summary=(
            "A barometer failure at the start of the takeoff leaves the altitude "
            "reference stuck near zero; the climb controller never observes the "
            "target altitude being reached and the vehicle climbs away."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.BAROMETER,
            mode_labels=_labels(OperatingModeLabel.PREFLIGHT, OperatingModeLabel.TAKEOFF),
            max_altitude=3.0,
        ),
        effect=EffectScript(freeze_altitude=True),
    ),
    BugDescriptor(
        bug_id="APM-16967",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.COMPASS,
        failure_moment="Waypoint 1 -> Waypoint 2",
        summary=(
            "A compass failure between waypoints leaves the firmware navigating "
            "on an old heading while it turns; the land fail-safe engages, the "
            "state estimate is reset near the end of the landing and the vehicle "
            "crashes (Figure 10 of the paper)."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.COMPASS,
            mode_labels=_labels("waypoint-"),
            prefix_match=True,
            max_seconds_into_mode=3.0,
        ),
        effect=EffectScript(
            freeze_heading=True,
            force_mode=FlightMode.LAND,
            force_mode_delay_s=6.0,
            throttle_cut_below_altitude=4.0,
        ),
        developer_confirmed=True,
        found_by_stratified_bfi=True,
    ),
    BugDescriptor(
        bug_id="APM-16682",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.ACCELEROMETER,
        failure_moment="Return To Launch -> Land",
        summary=(
            "An IMU failure in the final metres of a landing triggers the GPS "
            "fail-safe; the GPS altitude reference is too coarse at low altitude "
            "and the firmware descends fast into the ground (Figure 1 of the "
            "paper)."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.ACCELEROMETER,
            mode_labels=_labels(OperatingModeLabel.LAND, OperatingModeLabel.RTL),
            max_altitude=9.0,
            max_seconds_into_mode=3.0,
        ),
        effect=EffectScript(
            force_mode=FlightMode.LAND,
            altitude_offset=20.0,
        ),
        developer_confirmed=True,
    ),
    BugDescriptor(
        bug_id="APM-16953",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.GYROSCOPE,
        failure_moment="Return to Launch -> Land",
        summary=(
            "A gyroscope failure during the return-to-launch descent makes the "
            "attitude estimate unusable; the EKF fail-safe cuts the motors while "
            "the vehicle is still metres above the ground."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.GYROSCOPE,
            mode_labels=_labels(OperatingModeLabel.RTL, OperatingModeLabel.LAND),
            max_altitude=12.0,
            max_seconds_into_mode=3.0,
        ),
        effect=EffectScript(throttle_cut_below_altitude=8.0),
    ),
)
"""The six previously-unknown ArduPilot bugs of Table II (APM-16021 /
APM-16967 are also the Figure 9 / Figure 10 case studies)."""


PX4_LATENT_BUGS: Tuple[BugDescriptor, ...] = (
    BugDescriptor(
        bug_id="PX4-17046",
        firmware="px4",
        symptom=BugSymptom.FLY_AWAY,
        sensor_type=SensorType.GYROSCOPE,
        failure_moment="Waypoint 3 -> Return To Launch",
        summary=(
            "A gyroscope failure around the hand-over from the last waypoint to "
            "return-to-launch corrupts the heading used for the return leg; the "
            "vehicle flies away from home instead of toward it."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.GYROSCOPE,
            mode_labels=_labels("waypoint-3", "waypoint-4", OperatingModeLabel.RTL),
            max_seconds_into_mode=3.0,
        ),
        effect=EffectScript(freeze_heading=True, freeze_horizontal=True),
        found_by_stratified_bfi=True,
    ),
    BugDescriptor(
        bug_id="PX4-17057",
        firmware="px4",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.GYROSCOPE,
        failure_moment="Pre-Flight -> Takeoff",
        summary=(
            "A gyroscope failure at the moment of lift-off leaves the rate "
            "controller without feedback; the vehicle tips over and impacts the "
            "ground immediately after leaving it."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.GYROSCOPE,
            mode_labels=_labels(OperatingModeLabel.PREFLIGHT, OperatingModeLabel.TAKEOFF),
            max_altitude=5.0,
        ),
        effect=EffectScript(throttle_cut_once_airborne=True),
        found_by_stratified_bfi=True,
    ),
    BugDescriptor(
        bug_id="PX4-17192",
        firmware="px4",
        symptom=BugSymptom.TAKEOFF_FAILURE,
        sensor_type=SensorType.COMPASS,
        failure_moment="Pre-Flight -> Takeoff",
        summary=(
            "A compass failure before takeoff wedges the heading-alignment check; "
            "the vehicle arms but never produces climb authority."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.COMPASS,
            mode_labels=_labels(OperatingModeLabel.PREFLIGHT, OperatingModeLabel.TAKEOFF),
            max_altitude=1.0,
        ),
        effect=EffectScript(block_takeoff=True),
    ),
    BugDescriptor(
        bug_id="PX4-17181",
        firmware="px4",
        symptom=BugSymptom.TAKEOFF_FAILURE,
        sensor_type=SensorType.BAROMETER,
        failure_moment="Pre-Flight -> Takeoff",
        summary=(
            "A barometer failure before takeoff invalidates the altitude "
            "reference; the takeoff aborts a metre and a half off the ground and "
            "the mission never proceeds."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.BAROMETER,
            mode_labels=_labels(OperatingModeLabel.PREFLIGHT, OperatingModeLabel.TAKEOFF),
            max_altitude=2.0,
        ),
        effect=EffectScript(abort_takeoff_at_altitude=1.5),
    ),
)
"""The four previously-unknown PX4 bugs of Table II."""


KNOWN_BUGS: Tuple[BugDescriptor, ...] = (
    BugDescriptor(
        bug_id="APM-4455",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.GPS,
        failure_moment="Land",
        summary=(
            "Previously reported: a GPS failure during the landing descent makes "
            "the position fail-safe cut the motors well above the ground."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.GPS,
            mode_labels=_labels(OperatingModeLabel.LAND, OperatingModeLabel.RTL),
            max_altitude=15.0,
            max_seconds_into_mode=6.0,
        ),
        effect=EffectScript(throttle_cut_below_altitude=6.0),
        known=True,
    ),
    BugDescriptor(
        bug_id="APM-4679",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.ACCELEROMETER,
        failure_moment="Takeoff",
        summary=(
            "Previously reported: an accelerometer failure during the takeoff "
            "climb leads to a landing fail-safe executed against a stale, "
            "too-high altitude model."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.ACCELEROMETER,
            mode_labels=_labels(OperatingModeLabel.TAKEOFF),
            min_altitude=3.0,
        ),
        effect=EffectScript(
            force_mode=FlightMode.LAND,
            altitude_offset=15.0,
        ),
        known=True,
        found_by_stratified_bfi=True,
    ),
    BugDescriptor(
        bug_id="APM-5428",
        firmware="ardupilot",
        symptom=BugSymptom.FLY_AWAY,
        sensor_type=SensorType.BAROMETER,
        failure_moment="Return To Launch",
        summary=(
            "Previously reported: a barometer failure during return-to-launch "
            "freezes the altitude reference and the vehicle climbs away instead "
            "of descending."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.BAROMETER,
            mode_labels=_labels(OperatingModeLabel.RTL),
            max_seconds_into_mode=4.0,
        ),
        effect=EffectScript(freeze_altitude=True),
        known=True,
    ),
    BugDescriptor(
        bug_id="APM-9349",
        firmware="ardupilot",
        symptom=BugSymptom.CRASH,
        sensor_type=SensorType.COMPASS,
        failure_moment="Waypoint navigation",
        summary=(
            "Previously reported: a compass failure while flying between "
            "waypoints corrupts the heading estimate; the subsequent emergency "
            "landing resets the state estimate and the vehicle falls the last "
            "metres."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.COMPASS,
            mode_labels=_labels("waypoint-"),
            prefix_match=True,
            max_seconds_into_mode=3.0,
        ),
        effect=EffectScript(
            freeze_heading=True,
            force_mode=FlightMode.LAND,
            force_mode_delay_s=5.0,
            throttle_cut_below_altitude=4.0,
        ),
        known=True,
        found_by_stratified_bfi=True,
    ),
    BugDescriptor(
        bug_id="PX4-13291",
        firmware="px4",
        symptom=BugSymptom.FLY_AWAY,
        sensor_type=SensorType.BATTERY,
        failure_moment="Auto (joint GPS + battery failure)",
        summary=(
            "Previously reported (the paper's multi-failure case): when the "
            "battery fail-safe fires while the local position estimate is "
            "already invalid because of a GPS failure, the return-to-launch "
            "fail-safe navigates on garbage and the vehicle flies away."
        ),
        trigger=BugTrigger(
            sensor_type=SensorType.BATTERY,
            mode_labels=_labels(
                "waypoint-",
                OperatingModeLabel.TAKEOFF,
                OperatingModeLabel.RTL,
                OperatingModeLabel.LAND,
            ),
            prefix_match=True,
            requires_failed_types=frozenset({SensorType.GPS}),
        ),
        effect=EffectScript(
            freeze_horizontal=True,
            force_mode=FlightMode.RTL,
        ),
        known=True,
    ),
)
"""The five previously-known, re-insertable bugs of Table V."""


def ardupilot_bug_registry(include_known: bool = True) -> BugRegistry:
    """The bug registry shipped with the ArduPilot flavour.

    Latent bugs are enabled; known bugs are registered but disabled until
    re-inserted.  ``include_known=False`` omits the known bugs entirely.
    """
    descriptors: List[BugDescriptor] = list(ARDUPILOT_LATENT_BUGS)
    if include_known:
        descriptors.extend(d for d in KNOWN_BUGS if d.firmware == "ardupilot")
    return BugRegistry(descriptors)


def px4_bug_registry(include_known: bool = True) -> BugRegistry:
    """The bug registry shipped with the PX4 flavour."""
    descriptors: List[BugDescriptor] = list(PX4_LATENT_BUGS)
    if include_known:
        descriptors.extend(d for d in KNOWN_BUGS if d.firmware == "px4")
    return BugRegistry(descriptors)


def all_table2_bugs() -> List[BugDescriptor]:
    """The ten previously-unknown bugs of Table II."""
    return list(ARDUPILOT_LATENT_BUGS) + list(PX4_LATENT_BUGS)


def all_table5_bugs() -> List[BugDescriptor]:
    """The five previously-known bugs of Table V."""
    return list(KNOWN_BUGS)
