"""Execution backends: where a batch of simulations actually runs.

The campaign engine hands a backend an ordered batch of fault scenarios
plus the campaign's :class:`~repro.core.runner.TestRunner` (its
configuration, calibrated invariant monitor and sensor-noise tables);
the backend returns one :class:`~repro.core.runner.RunResult` per
scenario, **in submission order**.  Because every run provisions a
fresh harness and the sensor noise is seeded from the configuration
(``iris_sensor_suite(noise_seed=config.noise_seed)``), a run's outcome
is a pure function of ``(config, scenario)`` -- the noise tables only
save recomputing deviates -- which is what makes the process-pool
backend bit-identical to the serial one.

Two backends ship with the engine:

* :class:`SerialBackend` -- runs the batch in-process, one scenario at a
  time.  The reference implementation and the fallback everywhere a
  process pool is unavailable.
* :class:`ProcessPoolBackend` -- fans the batch out over a
  ``multiprocessing`` pool using the ``fork`` start method.  Fork (not
  spawn) matters: run configurations carry workload factories that are
  frequently lambdas, which cannot be pickled; with fork the workers
  inherit the parent's runner (noise tables included) and only the
  scenarios and results cross the process boundary.  On platforms
  without ``fork`` the backend degrades to serial execution instead of
  failing.

Backends are named by spec strings: :func:`parse_backend_spec` turns
``"serial"``, ``"pool"`` or ``"pool:8"`` into a backend.
:class:`~repro.core.avis.Avis` is the one place a campaign's spec
becomes a backend; cell expansion (:func:`repro.engine.api.build_cells`)
only validates it.  Campaigns on other hosts share results through a
common cache directory, not through a backend.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.runner import RunResult, TestRunner
from repro.hinj.faults import FaultScenario
from repro.obs import runtime as obs_runtime

#: The runner forked workers inherit (set only while the pool forks).
_WORKER_RUNNER: Optional[TestRunner] = None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _run_one(scenario: FaultScenario) -> RunResult:
    """Execute one scenario inside a forked worker."""
    assert _WORKER_RUNNER is not None
    return _WORKER_RUNNER.run(scenario)


def _run_indexed(
    item: Tuple[int, FaultScenario]
) -> Tuple[int, RunResult, Optional[Tuple[int, float, float]]]:
    """Execute one (submission index, scenario) pair inside a worker.

    The index rides along so the parent can collect completions in
    whatever order the pool finishes them and still reorder the batch
    back into submission order.  When an observability runtime is
    installed (workers inherit it at fork), a ``(worker pid, start
    clock, execute seconds)`` triple rides along too -- ``perf_counter``
    is CLOCK_MONOTONIC-backed on Linux and therefore comparable across
    forked processes, which is what lets the parent split queue wait
    from execute time.
    """
    index, scenario = item
    if obs_runtime.current() is None:
        return index, _run_one(scenario), None
    start = time.perf_counter()
    result = _run_one(scenario)
    execute_s = time.perf_counter() - start
    return index, result, (os.getpid(), start, execute_s)


class ExecutionBackend(abc.ABC):
    """Executes batches of independent simulations."""

    #: Human-readable backend name used in summaries and logs.
    name: str = "backend"

    @abc.abstractmethod
    def run_scenarios(
        self, runner: TestRunner, scenarios: Sequence[FaultScenario]
    ) -> List[RunResult]:
        """Simulate every scenario on ``runner``; results are in
        submission order."""

    def close(self) -> None:
        """Release any resources held by the backend."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} '{self.name}'>"


class SerialBackend(ExecutionBackend):
    """Run the batch in-process, one scenario after the other."""

    name = "serial"

    def run_scenarios(
        self, runner: TestRunner, scenarios: Sequence[FaultScenario]
    ) -> List[RunResult]:
        obs = obs_runtime.current()
        results: List[RunResult] = []
        for scenario in scenarios:
            if obs is not None:
                start = time.perf_counter()
            result = runner.run(scenario)
            if obs is not None:
                execute_s = time.perf_counter() - start
                obs.metrics.counter("backend.worker_tasks", worker="serial").inc()
                obs.metrics.counter(
                    "backend.worker_execute_seconds", worker="serial"
                ).inc(execute_s)
                obs.metrics.histogram("backend.task_seconds").observe(execute_s)
            results.append(result)
        return results


class ProcessPoolBackend(ExecutionBackend):
    """Fan a batch out over a forked ``multiprocessing`` pool.

    The pool persists across batches as long as the run context (the
    runner and its monitor, compared by identity) is unchanged -- a
    campaign issues many small batches and must not pay a fork per
    batch.  A new context forks a fresh pool, since workers inherit the
    context at fork time.  Call :meth:`close` (or let the backend be
    garbage-collected) to release the workers.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count capped at 4.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = max(1, min(4, os.cpu_count() or 1))
        self._max_workers = max(1, max_workers)
        self._serial_fallback = SerialBackend()
        self._pool = None
        # Strong refs: identity comparison stays valid for the pool's
        # lifetime (an id() could be recycled after garbage collection).
        self._pool_context: Optional[Tuple[TestRunner, object]] = None

    @property
    def max_workers(self) -> int:
        """The configured pool size."""
        return self._max_workers

    def _ensure_pool(self, runner: TestRunner):
        if self._pool is not None:
            held_runner, held_monitor = self._pool_context
            if held_runner is runner and held_monitor is runner.monitor:
                return self._pool
            self.close()
        # Fork safety: set immediately before the pool forks so workers inherit
        # the run context.
        global _WORKER_RUNNER
        _WORKER_RUNNER = runner
        try:
            # The pool is created while the runner global is set, so
            # every forked worker inherits the runner without pickling;
            # only scenarios and results cross the process boundary
            # afterwards.
            self._pool = multiprocessing.get_context("fork").Pool(
                processes=self._max_workers
            )
        finally:
            _WORKER_RUNNER = None
        self._pool_context = (runner, runner.monitor)
        return self._pool

    def run_scenarios(
        self, runner: TestRunner, scenarios: Sequence[FaultScenario]
    ) -> List[RunResult]:
        if (
            not scenarios
            or self._max_workers <= 1
            or not _fork_available()
            # Daemonic pool workers (e.g. inside a campaign-grid shard)
            # cannot spawn children; degrade to serial instead of failing.
            or multiprocessing.current_process().daemon
        ):
            return self._serial_fallback.run_scenarios(runner, scenarios)

        pool = self._ensure_pool(runner)
        obs = obs_runtime.current()
        submit_clock = time.perf_counter() if obs is not None else 0.0
        # In-flight scheduling: collect completions as the workers finish
        # them (imap_unordered has no head-of-line blocking, so a slow
        # scenario never stalls the collection of those behind it) and
        # reorder into submission order via the indices that rode along.
        slots: List[Optional[RunResult]] = [None] * len(scenarios)
        for index, result, timing in pool.imap_unordered(
            _run_indexed, list(enumerate(scenarios)), chunksize=1
        ):
            if obs is not None and timing is not None:
                worker_pid, start_clock, execute_s = timing
                worker = f"pid{worker_pid}"
                obs.metrics.counter("backend.worker_tasks", worker=worker).inc()
                obs.metrics.counter(
                    "backend.worker_execute_seconds", worker=worker
                ).inc(execute_s)
                obs.metrics.counter(
                    "backend.worker_queue_wait_seconds", worker=worker
                ).inc(max(start_clock - submit_clock, 0.0))
                obs.metrics.histogram("backend.task_seconds").observe(execute_s)
                # Per-run phase metrics recorded inside the worker died
                # with its registry; re-aggregate them from the flight
                # log that travelled back with the result.
                log = getattr(result, "flight_log", None)
                if log is not None:
                    log.count_into(obs.metrics)
            slots[index] = result
        assert all(result is not None for result in slots)
        return slots  # type: ignore[return-value]

    def close(self) -> None:
        """Terminate the worker pool (if one is running)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_context = None

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Backend specs
# ----------------------------------------------------------------------
#: The spec grammar, documented once for every error message.
BACKEND_SPEC_HELP = "'serial', 'pool' or 'pool:<workers>'"


def parse_backend_spec(spec: str) -> ExecutionBackend:
    """Build an execution backend from its string spec.

    The grammar is ``serial | pool | pool:N``, shared by
    ``Avis(backend=...)``, grid cells, campaign requests and the CLI
    ``--backend`` flag.
    """
    text = spec.strip()
    if text == "serial":
        return SerialBackend()
    if text == "pool":
        return ProcessPoolBackend()
    if text.startswith("pool:"):
        argument = text[len("pool:") :]
        try:
            workers = int(argument)
        except ValueError:
            raise ValueError(
                f"invalid pool spec '{spec}': expected pool:<workers>"
            ) from None
        if workers < 1:
            raise ValueError(f"invalid pool spec '{spec}': workers must be >= 1")
        return ProcessPoolBackend(max_workers=workers)
    if text == "remote" or text.startswith("remote:"):
        raise ValueError(
            f"remote backends were removed in 8.0 ('{spec}'): for local "
            "workers use pool:N; campaigns on other hosts share results "
            "through one cache directory on a shared mount (--cache DIR)"
        )
    raise ValueError(f"unknown backend spec '{spec}': {BACKEND_SPEC_HELP}")
