"""The campaign engine: batched execution of one checking campaign.

:class:`CampaignEngine` sits between the orchestrator
(:class:`repro.core.avis.Avis`) and a search strategy.  Strategies that
implement the batch protocol
(:meth:`repro.core.strategies.base.SearchStrategy.propose_batch`) are
driven in rounds: the engine asks for a batch of scenarios (the
proposer charges labelling and simulation budget in its sequential
per-candidate order), resolves cache hits, fans the remainder out to
the execution backend, then records every result in proposal order
before asking for the next batch.  Strategies without a batch
implementation fall back to their sequential ``explore()`` loop
unchanged, which still benefits from the result cache via the session.

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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
DEFAULT_BATCH_SIZE = 8

#: Auto-tuning bounds, as multiples of the backend's worker count.
AUTO_BATCH_MAX_FACTOR = 8


class CampaignEngine:
    """Drives one strategy's campaign through a backend and a cache.

    ``batch_size`` is either a fixed round size or the string ``"auto"``:
    auto-tuning sizes each proposal round from the backend's worker
    count and the campaign's running ``last_stats`` -- when cache hits
    resolve part of a round without touching the backend, the next round
    is inflated so the *executed* remainder still fills the workers.
    Because every batchable strategy is bit-identical at every batch
    size (the PR 1 contract), tuning is purely a scheduling decision and
    never changes campaign results.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        cache: Optional[ResultCache] = None,
        batch_size=DEFAULT_BATCH_SIZE,
    ) -> None:
        # A ready backend: Avis parses the campaign's spec string.
        self._backend = backend if backend is not None else SerialBackend()
        self._cache = cache
        self._auto_batch = batch_size == "auto"
        if self._auto_batch:
            self._batch_size = self._auto_initial_size()
        else:
            self._batch_size = max(1, int(batch_size))
        self.last_stats: Dict[str, int] = self._fresh_stats()

    @staticmethod
    def _fresh_stats() -> Dict[str, int]:
        return {"rounds": 0, "proposed": 0, "cache_hits": 0, "executed": 0}

    # ------------------------------------------------------------------
    # Adaptive batch sizing
    # ------------------------------------------------------------------
    def _worker_count(self) -> int:
        return max(1, getattr(self._backend, "max_workers", 1))

    def _auto_initial_size(self) -> int:
        """First-round size: two scenarios per worker keeps the pool busy
        while the first feedback arrives; a serial backend gains nothing
        from large rounds, so it stays at the classic default."""
        workers = self._worker_count()
        if workers <= 1:
            return DEFAULT_BATCH_SIZE
        return 2 * workers

    def _auto_tuned_size(self) -> int:
        """Next-round size from the campaign's running statistics.

        Targets two *executed* scenarios per worker and round: when the
        hit rate so far left workers idle (executed < proposed), the
        proposal size is inflated by the observed proposed/executed
        ratio, clamped to [workers, AUTO_BATCH_MAX_FACTOR * workers].
        """
        workers = self._worker_count()
        if workers <= 1:
            return DEFAULT_BATCH_SIZE
        stats = self.last_stats
        target = 2 * workers
        if stats["rounds"] == 0 or stats["executed"] == 0:
            inflation = 1.0 if stats["rounds"] == 0 else float(AUTO_BATCH_MAX_FACTOR)
        else:
            inflation = stats["proposed"] / stats["executed"]
        size = int(round(target * inflation))
        return max(workers, min(AUTO_BATCH_MAX_FACTOR * workers, size))

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend used for batched strategies."""
        return self._backend

    @property
    def cache(self) -> Optional[ResultCache]:
        """The shared result cache (None when caching is disabled)."""
        return self._cache

    @property
    def auto_batch_size(self) -> bool:
        """True when the engine tunes its round size at runtime."""
        return self._auto_batch

    @property
    def batch_size(self) -> int:
        """Scenarios requested per proposal round (the current size, for
        an auto-tuning engine)."""
        return self._batch_size

    def execute(self, strategy, session) -> None:
        """Run ``strategy`` to budget exhaustion, recording into ``session``.

        Budget accounting happens entirely inside ``propose_batch`` (in
        the same per-candidate order as the strategy's sequential loop),
        so the engine only executes what was proposed and records the
        results.  :attr:`last_stats` afterwards reports how the campaign
        was scheduled: proposal rounds, scenarios proposed, cache hits
        resolved without a simulation, and scenarios the backend
        actually executed.
        """
        self.last_stats = self._fresh_stats()
        obs = obs_runtime.current()
        strategy_name = getattr(strategy, "name", type(strategy).__name__)
        if not strategy.has_batch_support:
            if obs is not None:
                with obs.tracer.span(
                    "engine.sequential",
                    strategy=strategy_name,
                    backend=self._backend.name,
                ):
                    strategy.explore(session)
            else:
                strategy.explore(session)
            return

        config = session.runner.config
        monitor = session.runner.monitor
        workload_name = (
            campaign_fingerprint(config, monitor) if self._cache is not None else ""
        )

        while True:
            if self._auto_batch:
                tuned = self._auto_tuned_size()
                if obs is not None and tuned != self._batch_size:
                    obs.tracer.instant(
                        "engine.autotune",
                        size=tuned,
                        previous=self._batch_size,
                        strategy=strategy_name,
                    )
                    obs.metrics.gauge(
                        "engine.batch_size", strategy=strategy_name
                    ).set(tuned)
                self._batch_size = tuned
            round_start = obs.tracer.clock() if obs is not None else 0.0
            batch = strategy.propose_batch(session, self._batch_size)
            if batch is None:
                # The strategy withdrew from batching; finish sequentially.
                strategy.explore(session)
                return
            if not batch:
                return
            self.last_stats["rounds"] += 1
            self.last_stats["proposed"] += len(batch)

            # Resolve cache hits, then execute the misses as one batch.
            slots: List[Tuple[object, str, Optional[object]]] = []
            pending = []
            for scenario in batch:
                key = ""
                cached = None
                if self._cache is not None:
                    key = scenario_key(config, workload_name, scenario)
                    stored = self._cache.get(key)
                    if stored is not None:
                        cached = adapt_cached_result(stored, monitor)
                slots.append((scenario, key, cached))
                if cached is None:
                    pending.append(scenario)
            self.last_stats["cache_hits"] += len(batch) - len(pending)
            self.last_stats["executed"] += len(pending)

            # The backend may complete the round's simulations in any
            # order; run_scenarios hands them back in submission order,
            # and recording follows proposal order slot by slot.
            executed = iter(
                self._backend.run_scenarios(config, monitor, pending)
            )
            for scenario, key, cached in slots:
                result = cached if cached is not None else next(executed)
                if cached is None and self._cache is not None:
                    self._cache.put(key, result)
                session.ingest_result(scenario, result)
                if hasattr(strategy, "simulations_run"):
                    strategy.simulations_run += 1

            if obs is not None:
                round_seconds = obs.tracer.clock() - round_start
                obs.tracer.complete(
                    "engine.round",
                    round_start,
                    round_start + round_seconds,
                    strategy=strategy_name,
                    backend=self._backend.name,
                    proposed=len(batch),
                    cache_hits=len(batch) - len(pending),
                    executed=len(pending),
                )
                labels = {"strategy": strategy_name, "backend": self._backend.name}
                obs.metrics.counter("engine.rounds", **labels).inc()
                obs.metrics.counter("engine.proposed", **labels).inc(len(batch))
                obs.metrics.counter("engine.cache_hits", **labels).inc(
                    len(batch) - len(pending)
                )
                obs.metrics.counter("engine.executed", **labels).inc(len(pending))
                obs.metrics.histogram("engine.round_seconds", **labels).observe(
                    round_seconds
                )

    def close(self) -> None:
        """Release backend resources."""
        self._backend.close()
