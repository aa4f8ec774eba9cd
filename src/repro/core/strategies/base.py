"""The common interface of the fault-injection search strategies."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

from repro.core.session import ExplorationSession
from repro.hinj.faults import FaultScenario


@dataclass(frozen=True)
class StrategyFeatures:
    """The qualitative feature matrix of Table I."""

    targets_mode_transitions: bool
    uses_prior_bugs: bool
    searches_dissimilar_first: bool

    def as_row(self) -> tuple:
        """Render as the check-mark row used by the Table I benchmark."""
        def mark(flag: bool) -> str:
            return "yes" if flag else "no"

        return (
            mark(self.targets_mode_transitions),
            mark(self.uses_prior_bugs),
            mark(self.searches_dissimilar_first),
        )


class SearchStrategy(abc.ABC):
    """Base class for every fault-space search strategy."""

    #: Human-readable name used in result tables.
    name: str = "strategy"
    #: The Table I feature row for this strategy.
    features: StrategyFeatures = StrategyFeatures(False, False, False)

    def explore(self, session: ExplorationSession) -> None:
        """Explore the fault space until the session budget runs out.

        The plain serial loop over this strategy's one proposer, at
        round size 1: propose, simulate on the session's runner, record.
        Campaigns run the same proposer through the campaign engine
        instead, at the engine's round size and with its cache.
        """
        while True:
            batch = self.propose_batch(session, 1)
            if not batch:
                return
            for scenario in batch:
                session.ingest_result(scenario, session.runner.run(scenario))

    @abc.abstractmethod
    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """Propose up to ``max_scenarios`` unexplored scenarios to simulate.

        This is every strategy's one way to propose: the campaign engine
        asks for a batch, executes it (concurrently, when the backend
        can), and records the results in proposal order before the next
        call, so later batches see everything earlier batches explored;
        :meth:`explore` is the same protocol at round size 1.
        Feedback-driven proposers (SABRE's transition queue) defer their
        feedback consumption to the top of the next proposal round,
        applied in canonical per-candidate order, so a campaign's
        scenarios and budget trajectory do not depend on the round size.

        Contract:

        * ``[]`` -- the strategy has exhausted its search space or its
          budget; the campaign is over.
        * A non-empty list -- scenarios to simulate, in proposal order;
          none of them already explored in ``session`` and no duplicates
          within the batch.

        Budget protocol: the proposer charges costs per candidate, in
        its canonical order -- labelling via ``session.charge_label()``
        and, for every scenario it returns, one simulation via
        ``session.reserve_simulation()`` (stop the batch when it
        declines).  Whoever executes the batch records results without
        charging anything further, so the budget trajectory is the same
        at every round size.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} '{self.name}'>"
