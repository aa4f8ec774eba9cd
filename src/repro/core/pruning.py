"""Redundancy elimination (Section IV-B-1).

Two policies keep SABRE from wasting budget on equivalent scenarios:

* **Found-bug pruning** -- once injecting a set of failures has triggered
  a bug, supersets of that set (extra failures on top of it) are skipped:
  "if a vehicle cannot handle a single sensor failure then it is unlikely
  to correctly handle multiple failures in the same program context".
* **Sensor-instance symmetry** -- the firmware's handling depends on the
  *role* of the failed instance (primary vs. backup), not on which
  physical backup failed, so scenarios that fail the same roles at the
  same times are equivalent.  For ``N`` instances of one type this cuts
  the combinations from ``N x (2^N - 1)`` to ``2N - 1`` (Figure 6:
  21 -> 5 for three compasses).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Set, Tuple

from repro.hinj.faults import FaultScenario, TrafficFaultSpec
from repro.sensors.base import SensorId, SensorRole


#: A canonical signature: how many instances of each (vehicle, type, role)
#: fail at each time, for each recovery window (None = latched).  Two
#: scenarios with equal signatures are symmetric.  The vehicle index is
#: part of the signature because instance symmetry only holds within one
#: airframe: the same backup failing on a different fleet member is a
#: genuinely different scenario.  The window is part of it because a
#: recovering fault and a latched one at the same site are genuinely
#: different probes.
SymmetrySignature = FrozenSet[Tuple[int, str, str, float, Optional[float], int]]


def symmetry_signature(
    scenario: FaultScenario, role_of: Callable[[SensorId], SensorRole]
) -> SymmetrySignature:
    """The role-based canonical form of a scenario."""
    counts: Counter = Counter()
    for fault in scenario:
        if isinstance(fault, TrafficFaultSpec):
            # A coordination fault has no redundancy group: each
            # (vehicle, kind) is its own singleton, so only exact
            # duplicates are symmetric.
            counts[
                (
                    fault.vehicle,
                    fault.label,
                    "channel",
                    fault.start_time,
                    fault.duration_s,
                )
            ] += 1
            continue
        role = role_of(fault.sensor_id)
        counts[
            (
                fault.sensor_id.vehicle,
                fault.sensor_id.sensor_type.value,
                role.value,
                fault.start_time,
                fault.duration_s,
            )
        ] += 1
    return frozenset(
        (vehicle, sensor_type, role, time, duration, count)
        for (vehicle, sensor_type, role, time, duration), count in counts.items()
    )


def symmetric_fault_count(instance_count: int) -> int:
    """``2N - 1``: distinct role-signatures for N instances of one type.

    This is the figure-6 arithmetic: N ways to fail k backups (k = 0..N-1)
    together with the primary, plus N - 1 ways to fail k backups alone
    (k = 1..N-1), which totals ``2N - 1``.
    """
    if instance_count < 1:
        raise ValueError("a sensor type needs at least one instance")
    return 2 * instance_count - 1


def unpruned_fault_count(instance_count: int) -> int:
    """``N x (2^N - 1)``: the paper's count without symmetry pruning."""
    if instance_count < 1:
        raise ValueError("a sensor type needs at least one instance")
    return instance_count * (2 ** instance_count - 1)


@dataclass
class PruningStatistics:
    """Counts of how often each policy fired (for reports and ablation)."""

    found_bug_pruned: int = 0
    symmetry_pruned: int = 0
    duplicate_pruned: int = 0


class RedundancyPruner:
    """Implements ``CanPrune`` of Algorithm 1."""

    def __init__(
        self,
        role_of: Callable[[SensorId], SensorRole],
        enable_found_bug_pruning: bool = True,
        enable_symmetry_pruning: bool = True,
    ) -> None:
        self._role_of = role_of
        self._enable_found_bug = enable_found_bug_pruning
        self._enable_symmetry = enable_symmetry_pruning
        self._bug_scenarios: Set[FaultScenario] = set()
        self._seen_signatures: Set[SymmetrySignature] = set()
        self._seen_scenarios: Set[FaultScenario] = set()
        self.statistics = PruningStatistics()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_bug(self, scenario: FaultScenario) -> None:
        """Record that ``scenario`` triggered a bug (found-bug pruning)."""
        self._bug_scenarios.add(scenario)

    def record_explored(self, scenario: FaultScenario) -> None:
        """Record that ``scenario`` has been simulated."""
        self._seen_scenarios.add(scenario)
        self._seen_signatures.add(symmetry_signature(scenario, self._role_of))

    @property
    def found_bug_pruning_enabled(self) -> bool:
        """True when supersets of bug-triggering scenarios are pruned.

        Batched SABRE consults this to decide whether a candidate's
        admission can depend on the outcome of an in-flight simulation:
        with found-bug pruning disabled no such dependency exists and
        batches never need to be cut early.
        """
        return self._enable_found_bug

    # ------------------------------------------------------------------
    # The CanPrune decision
    # ------------------------------------------------------------------
    def can_prune(self, scenario: FaultScenario) -> bool:
        """True when ``scenario`` is redundant and should be skipped."""
        if scenario in self._seen_scenarios:
            self.statistics.duplicate_pruned += 1
            return True
        if self._enable_found_bug and self._is_superset_of_bug(scenario):
            self.statistics.found_bug_pruned += 1
            return True
        if self._enable_symmetry:
            signature = symmetry_signature(scenario, self._role_of)
            if signature in self._seen_signatures:
                self.statistics.symmetry_pruned += 1
                return True
        return False

    def _is_superset_of_bug(self, scenario: FaultScenario) -> bool:
        candidate = set(scenario)
        for bug_scenario in self._bug_scenarios:
            bug_faults = set(bug_scenario)
            if bug_faults and bug_faults < candidate:
                return True
        return False
