"""Mission executor: runs an uploaded mission plan in AUTO mode.

The executor walks the mission items in order.  Takeoff items climb to
the item altitude; waypoint items fly to the item's location (expressed
as offsets from home -- the georeferencing helpers in
:mod:`repro.sim.environment` convert workload latitude/longitude pairs);
return-to-launch and land items hand control to the corresponding flight
modes.  It also produces the mission progress telemetry
(``MISSION_CURRENT`` / ``MISSION_ITEM_REACHED``) the GCS relies on.

The waypoint index the executor reports is what refines the operating
mode label (``waypoint-1``, ``waypoint-2`` ...) during AUTO flight.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.firmware.estimator import StateEstimate
from repro.firmware.params import FirmwareParameters
from repro.mavlink.messages import MavCommand, MissionItem
from repro.mavlink.mission import MissionPlan
from repro.sim.environment import GeoLocation


class MissionStep(NamedTuple):
    """What the executor wants the firmware to do this control period."""

    #: "takeoff", "waypoint", "rtl", "land", or "complete".
    kind: str
    target_north: Optional[float] = None
    target_east: Optional[float] = None
    target_altitude: Optional[float] = None
    #: 1-based waypoint leg index, used for the operating-mode label.
    waypoint_index: Optional[int] = None
    item_seq: Optional[int] = None


class MissionExecutor:
    """Sequences an uploaded :class:`MissionPlan`."""

    def __init__(self, params: FirmwareParameters, home: GeoLocation) -> None:
        self._params = params
        self._home = home
        self._plan: Optional[MissionPlan] = None
        self._current_index = 0
        self._waypoint_counter = 0
        self._waypoint_assignments: dict = {}
        self._reached: List[int] = []
        self._complete = False
        # Each waypoint item's (north, east) offset from home, by
        # sequence number; the home never moves.
        self._offsets: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def load(self, plan: MissionPlan) -> None:
        """Install a freshly uploaded plan and rewind to its start."""
        self._plan = plan
        self._current_index = 0
        self._waypoint_counter = 0
        self._waypoint_assignments = {}
        self._reached = []
        self._complete = False
        self._offsets = {}

    @property
    def has_plan(self) -> bool:
        """True when a mission plan is loaded."""
        return self._plan is not None and not self._plan.is_empty

    @property
    def complete(self) -> bool:
        """True when every item has been executed."""
        return self._complete

    @property
    def current_seq(self) -> int:
        """Sequence number of the item currently being executed."""
        return self._current_index

    @property
    def reached_items(self) -> List[int]:
        """Items completed so far (for ``MISSION_ITEM_REACHED``)."""
        return list(self._reached)

    def _item_offsets(self, item: MissionItem) -> Tuple[float, float]:
        """An item's lat/lon as local (north, east) offsets from home."""
        offsets = self._offsets.get(item.seq)
        if offsets is None:
            target = GeoLocation(
                latitude_deg=item.latitude,
                longitude_deg=item.longitude,
                altitude_msl_m=self._home.altitude_msl_m,
            )
            offsets = self._offsets[item.seq] = self._home.local_offset_to(target)
        return offsets

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, estimate: StateEstimate) -> MissionStep:
        """Advance the mission given the current state estimate."""
        if self._plan is None or self._complete:
            return MissionStep(kind="complete")

        while self._current_index < len(self._plan):
            item = self._plan.item(self._current_index)
            step = self._execute_item(item, estimate)
            if step is not None:
                return step
            # The item just completed; move on within the same period.
            self._reached.append(item.seq)
            self._current_index += 1

        self._complete = True
        return MissionStep(kind="complete")

    def _execute_item(
        self, item: MissionItem, estimate: StateEstimate
    ) -> Optional[MissionStep]:
        """Return the step for ``item`` or None when it has completed."""
        if item.command == MavCommand.NAV_TAKEOFF:
            if estimate.altitude >= item.altitude - self._params.takeoff_altitude_tolerance_m:
                return None
            return MissionStep(
                kind="takeoff",
                target_altitude=item.altitude,
                item_seq=item.seq,
            )
        if item.command == MavCommand.NAV_WAYPOINT:
            north, east = self._item_offsets(item)
            if self._waypoint_index_for(item.seq) is None:
                self._waypoint_counter += 1
                self._waypoint_assignments[item.seq] = self._waypoint_counter
            distance = estimate.horizontal_distance_to(north, east)
            altitude_ok = (
                item.altitude <= 0.0
                or abs(estimate.altitude - item.altitude) <= 2.0
            )
            if distance <= self._params.waypoint_radius_m and altitude_ok:
                return None
            return MissionStep(
                kind="waypoint",
                target_north=north,
                target_east=east,
                target_altitude=item.altitude if item.altitude > 0.0 else None,
                waypoint_index=self._waypoint_assignments[item.seq],
                item_seq=item.seq,
            )
        if item.command == MavCommand.NAV_RETURN_TO_LAUNCH:
            # Hand over to RTL; the mode controller owns completion.
            return MissionStep(kind="rtl", item_seq=item.seq)
        if item.command == MavCommand.NAV_LAND:
            return MissionStep(kind="land", item_seq=item.seq)
        # Unsupported items are skipped (mirrors firmware tolerance of
        # DO_* items it does not implement).
        return None

    def _waypoint_index_for(self, seq: int) -> Optional[int]:
        """Waypoint-leg number assigned to mission item ``seq``, if any.

        Legs are numbered 1, 2, 3 ... in execution order so the operating
        mode labels match Table II's "Waypoint 1 -> Waypoint 2" windows.
        """
        return self._waypoint_assignments.get(seq)
