"""Redundancy elimination (Section IV-B-1).

Two checks keep SABRE from wasting budget on scenarios it need not fly:

* **Found-bug pruning** -- once injecting a set of failures has triggered
  a bug, supersets of that set (extra failures on top of it) are skipped:
  "if a vehicle cannot handle a single sensor failure then it is unlikely
  to correctly handle multiple failures in the same program context".
* **Duplicate pruning** -- a scenario already simulated is not flown
  again.

The paper's third policy, sensor-instance symmetry (Figure 6), treats
scenarios that fail the same *roles* at the same times as one.  It needs
two backups of one sensor type, which the Iris suite every run builds
does not have, so it is not implemented; ``repro.analysis`` still counts
the Figure 6 role classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.hinj.faults import FaultScenario


@dataclass
class PruningStatistics:
    """Counts of how often each check fired (for reports)."""

    found_bug_pruned: int = 0
    duplicate_pruned: int = 0


class RedundancyPruner:
    """Implements ``CanPrune`` of Algorithm 1."""

    def __init__(self) -> None:
        self._bug_scenarios: Set[FaultScenario] = set()
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

    # ------------------------------------------------------------------
    # The CanPrune decision
    # ------------------------------------------------------------------
    def can_prune(self, scenario: FaultScenario) -> bool:
        """True when ``scenario`` is redundant and should be skipped."""
        if scenario in self._seen_scenarios:
            self.statistics.duplicate_pruned += 1
            return True
        if self._is_superset_of_bug(scenario):
            self.statistics.found_bug_pruned += 1
            return True
        return False

    def _is_superset_of_bug(self, scenario: FaultScenario) -> bool:
        candidate = set(scenario)
        for bug_scenario in self._bug_scenarios:
            bug_faults = set(bug_scenario)
            if bug_faults and bug_faults < candidate:
                return True
        return False
