"""Benchmark-side instrumentation, installed from outside the program.

Nothing under ``src/`` is edited and ``repro.obs`` is never installed:
every hook here replaces a public entry point of a layer (a method on
its class, or a function in the module namespace the caller resolves it
from) with a timing wrapper, and :meth:`Patches.undo` puts the original
back.  Two instruments use it:

* :class:`Probe` -- simulation granularity, on in every run.  It times
  each executed fault-free ``TestRunner.run`` and notes when the first
  unsafe result is ingested.  A few microseconds per simulation.
* :class:`LayerTracer` -- the traced run.  Every layer's calls and self
  time (span minus child spans) are aggregated in memory; layers entered
  once per simulation or less often also record Chrome-trace spans that
  carry the id of the simulation they belong to.  Per-tick layers never
  emit spans: the trace would outgrow the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import signal
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> the entry points it covers, as (module, "Class.method")
#: or (module, "function") -- functions are patched in the namespace of
#: the module that calls them, so "engine.cache.key" counts the calls
#: the campaign engine and the exploration session make.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("sensors.read_all", (("repro.sensors.suite", "SensorSuite.read_all"),)),
    ("hinj.should_fail", (("repro.hinj.scheduler", "FaultScheduler.should_fail"),)),
    ("firmware.update", (("repro.firmware.base", "ControlFirmware.update"),)),
    ("firmware.estimator", (("repro.firmware.estimator", "StateEstimator.update"),)),
    ("sim.step_fleet", (("repro.sim.simulator", "Simulator.step_fleet"),)),
    ("sim.planner", (("repro.sim.planner", "StepPlanner.plan"),)),
    (
        "mavlink.link",
        (
            ("repro.mavlink.link", "MavLink.advance"),
            ("repro.mavlink.gcs", "GroundControlStation.poll"),
        ),
    ),
    (
        "mavlink.traffic",
        (
            ("repro.mavlink.traffic", "TrafficChannel.advance"),
            ("repro.mavlink.traffic", "TrafficChannel.broadcast"),
        ),
    ),
    ("core.runner.step", (("repro.core.runner", "SimulationHarness.step"),)),
    ("core.runner.provision", (("repro.core.runner", "SimulationHarness.__init__"),)),
    ("core.runner.build_result", (("repro.core.runner", "SimulationHarness.build_result"),)),
    ("workloads.run", (("repro.workloads.framework", "Target.run"),)),
    (
        "core.monitor.online",
        (
            ("repro.core.monitor", "InvariantMonitor.check_sample"),
            ("repro.core.monitor", "InvariantMonitor.check_vehicle_sample"),
        ),
    ),
    ("core.monitor.evaluate", (("repro.core.monitor", "InvariantMonitor.evaluate"),)),
    # Filled in from the strategy classes at install time (see
    # ``_strategy_targets``): every strategy's own propose_batch.
    ("core.strategies.propose", ()),
    ("core.session.ingest", (("repro.core.session", "ExplorationSession.ingest_result"),)),
    (
        "engine.cache.key",
        (
            ("repro.engine.campaign", "scenario_key"),
            ("repro.engine.campaign", "campaign_fingerprint"),
            ("repro.engine.cache", "scenario_key"),
            ("repro.engine.cache", "campaign_fingerprint"),
        ),
    ),
    ("engine.cache.get", (("repro.engine.cache", "ResultCache.get"),)),
    ("engine.cache.put", (("repro.engine.cache", "ResultCache.put"),)),
    (
        "engine.cache.adapt",
        (
            ("repro.engine.campaign", "adapt_cached_result"),
            ("repro.engine.cache", "adapt_cached_result"),
        ),
    ),
    ("engine.backends.run_scenarios", (("repro.engine.backends", "SerialBackend.run_scenarios"),)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: Layers entered at least once per simulated tick: aggregated only.
PER_TICK = frozenset(
    {
        "sensors.read_all",
        "hinj.should_fail",
        "firmware.update",
        "firmware.estimator",
        "sim.step_fleet",
        "sim.planner",
        "mavlink.link",
        "mavlink.traffic",
        "core.runner.step",
        "core.monitor.online",
    }
)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a "Class.method" or "function" path."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _strategy_targets() -> List[Tuple[object, str]]:
    """Every search strategy class that defines its own propose_batch."""
    from repro.core.strategies.base import SearchStrategy

    targets = []
    pending = [SearchStrategy]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if "propose_batch" in cls.__dict__:
            targets.append((cls, "propose_batch"))
        pending.extend(cls.__subclasses__())
    return sorted(targets, key=lambda target: target[0].__qualname__)


def layer_targets(name: str) -> List[Tuple[object, str]]:
    """The (owner, attribute) pairs the layer ``name`` wraps."""
    if name == "core.strategies.propose":
        return _strategy_targets()
    return [_resolve(module, path) for module, path in dict(LAYERS)[name]]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        """Restore every replaced attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


#: The calibration loop: a fixed piece of interpreter work, how often it
#: runs, and its length at the reference speed times are scaled to.
CALIBRATION_ITERATIONS = 2000
CALIBRATION_PERIOD_S = 0.02
CALIBRATION_REFERENCE_S = 0.000175


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value
    return time.perf_counter() - start


class Speedometer:
    """Samples the machine's speed 50 times a second while running.

    The machine is shared, and the speed a single-threaded Python program
    gets from it drifts by tens of percent within seconds.  An interval
    timer runs the calibration loop between bytecodes of whatever is
    executing; :meth:`measure` then turns an interval's wall-clock into
    seconds at the reference speed, leaving out the samples' own time.
    The samples cost about 1 % of the run.  Scaling by the mean sample
    over the interval halved the spread of repeated identical
    simulations' times on a shared 2-vCPU machine.
    """

    def __init__(self) -> None:
        #: (end time, duration) of every sample, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        """Start sampling (and forget earlier samples)."""
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        duration = calibrate()
        self.samples.append((time.perf_counter(), duration))

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """(wall-clock, reference-speed) seconds of ``[start, end]``,
        both without the samples taken inside it."""
        ends = [sample_end for sample_end, _ in self.samples]
        inside = [
            duration
            for _, duration in self.samples[
                bisect.bisect_left(ends, start) : bisect.bisect_right(ends, end)
            ]
        ]
        speed = inside or [duration for _, duration in self.samples]
        seconds = end - start - sum(inside)
        if not speed:
            return seconds, seconds
        return seconds, seconds * CALIBRATION_REFERENCE_S * len(speed) / sum(speed)


class Probe:
    """Executed simulations, the (start, end) of the fault-free ones, and
    the time the first unsafe result reached the session; reset before
    every timed repetition."""

    def __init__(self) -> None:
        self.raised = 0
        self.reset()

    def reset(self) -> None:
        self.executed = 0
        #: (start, end) of every fault-free (profiling) simulation.
        self.golden_sims: List[Tuple[float, float]] = []
        self.first_unsafe_at: Optional[float] = None

    def install(self, patches: Patches) -> None:
        from repro.core.runner import TestRunner
        from repro.core.session import ExplorationSession

        clock = time.perf_counter
        probe = self

        def timed_run(original):
            @functools.wraps(original)
            def run(*args, **kwargs):
                start = clock()
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    probe.raised += 1
                    raise
                if result.is_golden:
                    probe.golden_sims.append((start, clock()))
                probe.executed += 1
                return result

            return run

        def ingest(original):
            # Every strategy the workloads run proposes in batches, so
            # each result reaches its session through here.
            @functools.wraps(original)
            def ingest_result(self, scenario, result):
                original(self, scenario, result)
                if (
                    probe.first_unsafe_at is None
                    and result is not None
                    and result.found_unsafe_condition
                ):
                    probe.first_unsafe_at = clock()

            return ingest_result

        patches.wrap(TestRunner, "run", timed_run)
        patches.wrap(ExplorationSession, "ingest_result", ingest)


class LayerTracer:
    """Calls and self time per layer, plus Chrome-trace spans at
    simulation granularity and above."""

    def __init__(self) -> None:
        self.calls: List[int] = [0] * len(LAYER_NAMES)
        self.self_s: List[float] = [0.0] * len(LAYER_NAMES)
        self.events: List[Dict[str, object]] = []
        # Index of the first event since the last reset.
        self._mark = 0
        # Child-time accumulators of the open layer spans, innermost last.
        self._stack: List[float] = []
        self._sim_id: Optional[int] = None
        self._sims = 0
        self._origin = time.perf_counter()

    def reset(self) -> None:
        """Zero the per-layer totals in place (the installed wrappers
        hold the lists); spans accumulate across resets."""
        self.calls[:] = [0] * len(LAYER_NAMES)
        self.self_s[:] = [0.0] * len(LAYER_NAMES)
        self._mark = len(self.events)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Layer name -> (calls, self seconds) since the last reset."""
        return {
            name: (self.calls[index], self.self_s[index])
            for index, name in enumerate(LAYER_NAMES)
        }

    def inclusive_s(self, name: str) -> float:
        """Seconds inside spans called ``name`` since the last reset."""
        return sum(
            event["dur"] for event in self.events[self._mark:] if event["name"] == name
        ) / 1e6

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, start: float, end: float, **args: object) -> None:
        """Record a span, tagged with the simulation it belongs to."""
        if self._sim_id is not None:
            args["sim"] = self._sim_id
        self.events.append(
            {
                "name": name,
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )

    def chrome_trace(self) -> Dict[str, object]:
        """The recorded spans as a Chrome trace-event document."""
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, patches: Patches) -> None:
        for index, name in enumerate(LAYER_NAMES):
            for owner, attr in layer_targets(name):
                patches.wrap(
                    owner,
                    attr,
                    functools.partial(
                        self._layer_wrapper, index, name, name not in PER_TICK
                    ),
                )
        from repro.core.avis import Avis
        from repro.core.runner import TestRunner

        for method in ("profile", "check"):
            patches.wrap(
                Avis, method, functools.partial(self._span_wrapper, f"core.avis.{method}")
            )
        patches.wrap(TestRunner, "run", self._simulate_wrapper)

    def _layer_wrapper(self, index: int, name: str, emit: bool, original):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        span = self.span

        @functools.wraps(original)
        def layer(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self_s[index] += elapsed - stack.pop()
                calls[index] += 1
                if stack:
                    stack[-1] += elapsed
                if emit:
                    span(name, start, end)

        return layer

    def _span_wrapper(self, name: str, original):
        """An inclusive span that takes no part in self-time accounting."""
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.span(name, start, clock())

        return spanned

    def _simulate_wrapper(self, original):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def simulate(*args, **kwargs):
            tracer._sims += 1
            outer = tracer._sim_id
            tracer._sim_id = tracer._sims
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.span("simulate", start, clock())
                tracer._sim_id = outer

        return simulate

