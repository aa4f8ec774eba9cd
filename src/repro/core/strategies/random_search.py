"""Random fault injection (the "Rnd" column of Table I).

"Random fault injection chose fault injection sites from all sensor
readings with equal probability.  It also chose failure scenarios for
simulation randomly."  Every iteration picks a uniformly random set of
sensor instances and a uniformly random injection time for each, then
simulates.  Because the bug-manifesting windows are narrow slices of the
(sensor, time) space, random sampling rarely lands inside one -- the
measured inefficiency that motivates the stratified search.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.core.session import ExplorationSession
from repro.core.strategies.base import SearchStrategy, StrategyFeatures
from repro.hinj.faults import FaultScenario, spec_for


class RandomInjection(SearchStrategy):
    """Uniform random sampling of fault scenarios."""

    name = "random"
    features = StrategyFeatures(
        targets_mode_transitions=False,
        uses_prior_bugs=False,
        searches_dissimilar_first=True,
    )
    #: Consecutive duplicate draws after which the fault space counts as
    #: saturated and the campaign ends.
    MAX_DUPLICATE_STREAK = 50

    def __init__(
        self,
        rng_seed: int = 11,
        max_concurrent_failures: int = 2,
    ) -> None:
        # The RNG deliberately persists across campaigns of one instance.
        self._rng = random.Random(rng_seed)
        self._max_concurrent = max(1, max_concurrent_failures)
        self._streak_session: Optional[ExplorationSession] = None
        #: Consecutive duplicate draws since the last accepted one.
        self._duplicate_streak = 0

    def _draw(self, session: ExplorationSession) -> FaultScenario:
        """One seeded draw from the uniform (failure set, time) distribution.

        The draw pool is the session's injectable failure space: the
        sensor instances, plus any opted-in coordination failures.  With
        no traffic opt-in the pool -- and therefore the seeded draw
        sequence -- is exactly the classic sensor-only one.
        """
        failures = session.injectable_failures
        duration = max(session.mission_duration, 1.0)
        count = self._rng.randint(1, self._max_concurrent)
        chosen = self._rng.sample(failures, min(count, len(failures)))
        return FaultScenario(
            spec_for(failure, round(self._rng.uniform(0.0, duration), 2))
            for failure in chosen
        )

    def propose_batch(
        self, session: ExplorationSession, max_scenarios: int
    ) -> List[FaultScenario]:
        """Draw ``max_scenarios`` fresh scenarios from the seeded RNG.

        Draws that repeat an explored (or already batched) scenario are
        skipped, and each accepted scenario reserves its simulation
        cost, so a campaign visits the same scenarios, with the same
        budget trajectory, at every round size.

        Uniform draws rarely collide, but a tiny fault space saturates:
        the campaign ends after :attr:`MAX_DUPLICATE_STREAK` duplicate
        draws in a row.  The streak runs across calls and restarts with
        each campaign (session), so where it ends does not depend on the
        round size either.
        """
        if self._streak_session is not session:
            self._streak_session = session
            self._duplicate_streak = 0
        batch: List[FaultScenario] = []
        seen: Set[FaultScenario] = set()
        while (
            len(batch) < max_scenarios
            and self._duplicate_streak < self.MAX_DUPLICATE_STREAK
        ):
            if session.budget.exhausted:
                break
            scenario = self._draw(session)
            if session.was_explored(scenario) or scenario in seen:
                self._duplicate_streak += 1
                continue
            if not session.reserve_simulation():
                break
            self._duplicate_streak = 0
            seen.add(scenario)
            batch.append(scenario)
        return batch
