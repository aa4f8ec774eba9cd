"""The campaign engine: batched execution of one checking campaign.

:class:`CampaignEngine` sits between the orchestrator
(:class:`repro.core.avis.Avis`) and a search strategy, and is the only
way a campaign executes, caches and records its scenarios.  Every
strategy implements the batch protocol
(:meth:`repro.core.strategies.base.SearchStrategy.propose_batch`) and is
driven in rounds: the engine asks for a batch of scenarios (the
proposer charges labelling and simulation budget in its canonical
per-candidate order), resolves cache hits, fans the remainder out to
the execution backend, then records every result in proposal order
before asking for the next batch.

For SABRE -- the paper's headline strategy -- each round is (up to) one
transition-dequeue's worth of candidate expansion, so the proposal
round *is* the barrier of the barrier-per-dequeue pipeline: every
in-flight simulation of a round completes and is ingested before the
feedback-consuming decisions of the next round are taken.  The backend
is free to finish the round's simulations in any order (and does, see
:class:`repro.engine.backends.ProcessPoolBackend`); the engine reorders
them back into proposal order at recording time.

Recording in proposal order is what keeps a parallel campaign
bit-identical to a serial one: the per-run outcomes are deterministic
functions of ``(config, scenario)``, and order is the only thing a pool
could otherwise scramble.

A scenario whose every fault starts after the golden run's last sensor
read is *unfired*: no fault can fire, so its flight repeats the golden
run tick for tick.  Given that golden run, the engine answers such a
scenario from it without flying, before the cache is consulted (see
:meth:`CampaignEngine.execute`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import RunConfiguration
from repro.core.runner import RunResult
from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.cache import (
    ResultCache,
    adapt_cached_result,
    campaign_fingerprint,
    scenario_key,
)
from repro.obs import runtime as obs_runtime

#: Scenarios requested per proposal round.  Large enough to keep a
#: 4-worker pool busy, small enough that budget truncation stays tight.
#: Every strategy is bit-identical at every round size, so the size is
#: purely a scheduling decision and never changes campaign results.
DEFAULT_BATCH_SIZE = 8


class CampaignEngine:
    """Drives one strategy's campaign through a backend and a cache."""

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        # A ready backend: Avis parses the campaign's spec string.
        self._backend = backend if backend is not None else SerialBackend()
        self._cache = cache
        self.last_stats: Dict[str, int] = self._fresh_stats()

    @staticmethod
    def _fresh_stats() -> Dict[str, int]:
        return {
            "rounds": 0,
            "proposed": 0,
            "cache_hits": 0,
            "unfired": 0,
            "executed": 0,
        }

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend running each round's simulations."""
        return self._backend

    @property
    def cache(self) -> Optional[ResultCache]:
        """The shared result cache (None when caching is disabled)."""
        return self._cache

    def execute(self, strategy, session, golden: Optional[RunResult] = None) -> None:
        """Run ``strategy`` to budget exhaustion, recording into ``session``.

        Budget accounting happens entirely inside ``propose_batch`` (per
        candidate, in the proposer's canonical order), so the engine
        only executes what was proposed and records the results.
        :attr:`last_stats` afterwards reports how the campaign was
        scheduled: proposal rounds, scenarios proposed, cache hits
        resolved without a simulation, unfired scenarios answered from
        ``golden``, and scenarios the backend actually executed.

        ``golden`` is the fault-free run flown from exactly this
        campaign's configuration at ``config.noise_seed`` (``Avis``
        passes its profile 0).  Given it, a scenario none of whose
        faults can fire (see :func:`unfired_horizon`) is answered from
        it instead of flown, unless the re-judged verdict is unsafe: an
        online abort could then make the flight differ.  Answered
        scenarios neither read nor write the cache.
        """
        self.last_stats = self._fresh_stats()
        obs = obs_runtime.current()
        strategy_name = getattr(strategy, "name", type(strategy).__name__)

        config = session.runner.config
        monitor = session.runner.monitor
        workload_name = (
            campaign_fingerprint(config, monitor) if self._cache is not None else ""
        )
        horizon = unfired_horizon(config, golden)

        while True:
            round_start = obs.tracer.clock() if obs is not None else 0.0
            batch = strategy.propose_batch(session, DEFAULT_BATCH_SIZE)
            if not batch:
                return
            self.last_stats["rounds"] += 1
            self.last_stats["proposed"] += len(batch)

            # Answer unfired scenarios from the golden run, resolve cache
            # hits, then execute the rest as one batch.
            slots: List[Tuple[object, str, Optional[RunResult]]] = []
            pending = []
            unfired = 0
            for scenario in batch:
                key = ""
                answer = None
                if horizon is not None and all(
                    fault.start_time > horizon for fault in scenario
                ):
                    answer = adapt_cached_result(
                        replace(golden, scenario=scenario, flight_log=None), monitor
                    )
                    if answer.found_unsafe_condition:
                        answer = None
                    else:
                        unfired += 1
                if answer is None and self._cache is not None:
                    key = scenario_key(config, workload_name, scenario)
                    stored = self._cache.get(key)
                    if stored is not None:
                        answer = adapt_cached_result(stored, monitor)
                slots.append((scenario, key, answer))
                if answer is None:
                    pending.append(scenario)
            cache_hits = len(batch) - len(pending) - unfired
            self.last_stats["cache_hits"] += cache_hits
            self.last_stats["unfired"] += unfired
            self.last_stats["executed"] += len(pending)

            # The backend may complete the round's simulations in any
            # order; run_scenarios hands them back in submission order,
            # and recording follows proposal order slot by slot.
            executed = iter(
                self._backend.run_scenarios(config, monitor, pending)
            )
            for scenario, key, answer in slots:
                result = answer if answer is not None else next(executed)
                if answer is None and self._cache is not None:
                    self._cache.put(key, result)
                session.ingest_result(scenario, result)

            if obs is not None:
                round_seconds = obs.tracer.clock() - round_start
                obs.tracer.complete(
                    "engine.round",
                    round_start,
                    round_start + round_seconds,
                    strategy=strategy_name,
                    backend=self._backend.name,
                    proposed=len(batch),
                    cache_hits=cache_hits,
                    unfired=unfired,
                    executed=len(pending),
                )
                labels = {"strategy": strategy_name, "backend": self._backend.name}
                obs.metrics.counter("engine.rounds", **labels).inc()
                obs.metrics.counter("engine.proposed", **labels).inc(len(batch))
                obs.metrics.counter("engine.cache_hits", **labels).inc(cache_hits)
                obs.metrics.counter("engine.unfired", **labels).inc(unfired)
                obs.metrics.counter("engine.executed", **labels).inc(len(pending))
                obs.metrics.histogram("engine.round_seconds", **labels).observe(
                    round_seconds
                )

    def close(self) -> None:
        """Release backend resources."""
        self._backend.close()


def unfired_horizon(
    config: RunConfiguration, golden: Optional[RunResult]
) -> Optional[float]:
    """The time after which no fault of a campaign can fire, or None.

    On the reference stepper a single vehicle reads every sensor once
    per control period, at ``k * dt`` for step ``k``.  A faulted flight
    repeats ``golden`` tick for tick until a fault fires, so a fault
    starting after the golden run's last read, ``(steps - 1) * dt``,
    never fires.  Fleets and the adaptive stepper get no horizon: a
    fleet records proximity events against the monitor's separation
    threshold (the golden flew without a monitor), and adaptive windows
    split at pending fault times.
    """
    if golden is None or config.fleet_size != 1 or config.stepper != "reference":
        return None
    return (golden.steps - 1) * config.dt
