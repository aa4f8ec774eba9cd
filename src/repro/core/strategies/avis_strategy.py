"""Avis's own search strategy: SABRE plus redundancy pruning."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.sabre import SabreSearch
from repro.core.session import ExplorationSession
from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.hinj.faults import FailureHandle, FaultScenario, validate_burst_durations
from repro.sensors.base import SensorId


class AvisStrategy(SearchStrategy):
    """The paper's approach (column "Avis" of Table I).

    Each transition dequeue expands into up to
    ``max_scenarios_per_dequeue`` independent candidate scenarios that
    are simulated concurrently, with feedback (found-bug pruning, queue
    re-seeding) consumed between proposal rounds in canonical order --
    so a campaign is bit-identical at every round size and budget (see
    :mod:`repro.core.sabre` for the machinery).

    Extensions (all default off, so classic campaigns are untouched):
    ``include_traffic_faults`` adds the session's opted-in coordination
    failures (beacon dropout/freeze/delay) to the fault space alongside
    the sensor instances, ``separation_aware`` switches the transition
    dequeue to tightest-profiled-geometry-first ordering, and
    ``burst_durations`` enumerates intermittent (recovering) variants of
    every failure subset next to the latched ones -- the fault window
    opens at the transition-anchored injection time and closes after
    the configured duration.
    """

    name = "avis"
    features = StrategyFeatures(
        targets_mode_transitions=True,
        uses_prior_bugs=True,
        searches_dissimilar_first=True,
    )

    def __init__(
        self,
        failures: Optional[Sequence[FailureHandle]] = None,
        max_concurrent_failures: int = 2,
        time_quantum_s: float = 1.0,
        max_scenarios_per_dequeue: Optional[int] = 6,
        include_traffic_faults: bool = False,
        separation_aware: bool = False,
        burst_durations: Sequence[float] = (),
    ) -> None:
        self._failures = failures
        self._max_concurrent = max_concurrent_failures
        self._time_quantum = time_quantum_s
        self._per_dequeue = max_scenarios_per_dequeue
        self._include_traffic = include_traffic_faults
        self._separation_aware = separation_aware
        self._burst_durations = validate_burst_durations(burst_durations)
        self.last_search: Optional[SabreSearch] = None

    def _make_search(self, session: ExplorationSession) -> SabreSearch:
        failures = self._failures
        if self._include_traffic:
            if failures is None:
                failures = session.injectable_failures
            else:
                # An explicit failure list still gains the session's
                # coordination handles (without duplicates): asking for
                # traffic faults must never be silently ignored.
                failures = list(failures) + [
                    handle
                    for handle in session.traffic_failures
                    if handle not in failures
                ]
        return SabreSearch(
            session=session,
            failures=failures,
            max_concurrent_failures=self._max_concurrent,
            time_quantum_s=self._time_quantum,
            max_scenarios_per_dequeue=self._per_dequeue,
            separation_aware=self._separation_aware,
            burst_durations=self._burst_durations,
        )

    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """Expand the next transition dequeue(s) into a concurrent batch.

        The search machine is created on first use and keyed to the
        session, so a strategy instance reused for a second campaign
        restarts its queue rather than resuming the first campaign's.
        All budget charging happens inside the machine, per candidate,
        in canonical order.
        """
        search = self.last_search
        if search is None or search.session is not session:
            search = self._make_search(session)
            self.last_search = search
        return search.propose_batch(max_scenarios)
