"""SABRE: stratified breadth-first exploration of the fault space.

This is Algorithm 1 of the paper.  A profiling run discovers the times of
the operating-mode transitions; the transition queue is seeded with one
entry per transition; each dequeued entry is expanded with every
non-redundant combination of sensor failures injected at that timestamp;
bug-free runs re-enqueue their own transitions (so multi-time,
multi-sensor scenarios are reached), and each entry is finally re-enqueued
with a shifted timestamp so the neighbourhood of every transition is
eventually covered.

One engineering refinement is exposed as a parameter:
``max_scenarios_per_dequeue`` bounds how many new scenarios are simulated
for a single queue entry before the entry is put back (with its
enumeration cursor) at the tail.  With the bound disabled SABRE is
exactly Algorithm 1; with a small bound the same scenarios are explored
in a fairer order across transitions, which matters when the simulation
budget is far smaller than the paper's two hours.  The default campaign
(``AvisStrategy``) uses a bound of 6.

Three extensions, all off by default so classic campaigns are untouched:

* The ``failures`` sequence accepts any
  :data:`~repro.hinj.faults.FailureHandle` -- sensor instances and
  traffic-channel handles alike -- so the coordination fault family
  (beacon dropout/freeze/delay) is explored exactly like sensor
  failures.
* ``separation_aware=True`` replaces the FIFO dequeue with a weighted
  one: each queue entry's injection window is scored by the minimum
  pairwise fleet separation the profiling run exhibited inside that
  mode window, and the tightest-geometry window is dequeued first
  (ties in FIFO order).  Takeoff, formation joins and return legs are
  probed before wide-open cruise, which measurably shortens the path
  to the first separation violation.  The weighting engages only when
  the profiling run carries fleet separation data; otherwise -- and for
  every single-vehicle campaign -- the queue is bit-identical FIFO.
* ``burst_durations`` opens the *recovery-window* axis: besides the
  latched faults of Algorithm 1, every dequeued transition is expanded
  with intermittent variants of each failure subset -- the fault window
  opens at the transition-anchored timestamp (inside the profiled mode
  window SABRE is probing) and closes ``duration`` seconds later.  The
  latched subsets are enumerated first, in exactly their classic order,
  so the default (no burst durations) is bit-identical to before; a
  burst whose recovery would land beyond the mission end is skipped as
  behaviourally latched-equivalent.

Batched exploration
-------------------

SABRE is feedback-driven: an unsafe result feeds the found-bug pruner and
a bug-free result re-seeds the transition queue.  The search is therefore
implemented as a *resumable proposal machine* rather than a plain loop:

* :meth:`SabreSearch.propose_batch` walks the dequeue -> candidate
  expansion of Algorithm 1 -- budget checks, pruning decisions, cursor
  bookkeeping -- but instead of simulating each accepted candidate it
  *reserves* its simulation cost and appends it to the batch.  Feedback that depends on a run's outcome
  (found-bug pruning, queue re-seeding, the end-of-visit re-enqueue that
  must follow it) is written to a pending log.
* The campaign engine executes the whole batch concurrently on its
  execution backend and ingests every result into the session in
  proposal order.
* The next :meth:`propose_batch` call replays the pending log in
  canonical order -- bugs recorded, transitions enqueued, entries
  re-enqueued exactly where Algorithm 1 would have put them -- before
  proposing more work.

The one place a candidate's *admission* genuinely depends on an outcome
still in flight is found-bug pruning: a strict superset of an in-flight
scenario must be skipped if that scenario turns out unsafe.  The machine
cuts the batch immediately before any such candidate (the cursor is not
advanced), so the decision is re-taken next round with full knowledge.
Everything else that feeds ``CanPrune`` -- duplicate pruning --
depends only on a candidate having been *explored*, which is certain
the moment its simulation is reserved, so that state is applied eagerly
at proposal time.

The result is the determinism contract for the paper's headline
strategy: a campaign is bit-identical at every round size -- same
scenarios in the same order, same budget trajectory, same pruning
statistics -- at every budget.  At round size one every outcome is
consumed before the next candidate is decided, which reduces to
Algorithm 1 by construction; ``SearchStrategy.explore`` is that
driver.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.pruning import RedundancyPruner
from repro.core.session import ExplorationSession
from repro.obs import runtime as obs_runtime
from repro.hinj.faults import (
    EMPTY_SCENARIO,
    BurstFailure,
    FailureHandle,
    FaultScenario,
    FaultSpec,
    spec_for,
    validate_burst_durations,
)
from repro.sensors.base import SensorId


@dataclass
class _QueueEntry:
    """One entry of the transition queue: inject at ``timestamp`` on top of
    the already-injected ``base`` scenario, starting at subset ``cursor``."""

    timestamp: float
    base: FaultScenario
    cursor: int = 0


#: Pending-feedback operations, replayed in canonical (Algorithm 1) order:
#: ``("ran", scenario)`` consumes the scenario's result -- record the bug
#: or re-seed the queue; ``("requeue", entry)`` re-enqueues a visited
#: entry behind the queue appends of the runs that preceded it.
_PendingOp = Tuple[str, Union[FaultScenario, _QueueEntry]]


@dataclass
class SabreReport:
    """Summary of one SABRE exploration."""

    simulations: int = 0
    unsafe_scenarios: int = 0
    pruned: int = 0
    queue_exhausted: bool = False


class SabreSearch:
    """Algorithm 1: stratified breadth-first search over injection sites."""

    def __init__(
        self,
        session: ExplorationSession,
        failures: Optional[Sequence[FailureHandle]] = None,
        max_concurrent_failures: int = 2,
        time_quantum_s: float = 1.0,
        max_scenarios_per_dequeue: Optional[int] = None,
        separation_aware: bool = False,
        burst_durations: Sequence[float] = (),
    ) -> None:
        self._session = session
        self._failures = list(failures) if failures is not None else list(session.sensor_ids)
        if not self._failures:
            raise ValueError("SABRE needs at least one sensor failure to inject")
        self._max_concurrent = max(1, max_concurrent_failures)
        self._time_quantum = time_quantum_s
        self._per_dequeue = max_scenarios_per_dequeue
        self._pruner = RedundancyPruner()
        self._burst_durations = list(validate_burst_durations(burst_durations))
        if self._burst_durations and any(
            isinstance(failure, BurstFailure) for failure in self._failures
        ):
            # A burst handle carries its own window; sweeping it again
            # with burst_durations would schedule conflicting windows.
            raise ValueError(
                "failures already contain burst handles: pass either "
                "pre-burst handles or burst_durations, not both"
            )
        self._subsets = self._enumerate_subsets()
        # The per-dequeue expansion walks (subset, window) variants: the
        # latched subsets first, in exactly the classic order -- so with
        # no burst durations the variant list IS the subset list and the
        # search is bit-identical to the pre-window engine -- then every
        # subset again per burst duration.
        self._variants: List[Tuple[Tuple[FailureHandle, ...], Optional[float]]] = [
            (subset, None) for subset in self._subsets
        ] + [
            (subset, duration)
            for duration in self._burst_durations
            for subset in self._subsets
        ]
        self.report = SabreReport()
        # --- separation-aware dequeue ordering ------------------------
        # Weighted dequeue only engages when asked for AND the profiling
        # run carries fleet separation data; otherwise the queue is the
        # exact FIFO of Algorithm 1 (bit-identical to every pre-feature
        # campaign).
        self._separation_profile = (
            self._build_separation_profile() if separation_aware else []
        )
        self._separation_aware = bool(self._separation_profile)
        self._separation_weights: dict = {}
        # --- proposal-machine state -----------------------------------
        self._queue: Optional[Deque[_QueueEntry]] = None
        self._visit_entry: Optional[_QueueEntry] = None
        self._visit_cursor: int = 0
        self._visit_ran: int = 0
        self._pending_ops: List[_PendingOp] = []
        self._in_flight: List[FrozenSet[FaultSpec]] = []
        self._finished = False

    # ------------------------------------------------------------------
    # Subset enumeration (the PowerSet of line 5, smallest subsets first)
    # ------------------------------------------------------------------
    def _enumerate_subsets(self) -> List[Tuple[FailureHandle, ...]]:
        """Failure subsets ordered smallest-and-most-informative first.

        Singletons precede pairs; within a size, subsets failing primary
        instances precede those failing backups (failing an idle backup
        rarely changes behaviour, so it is the least informative probe).
        Coordination failure handles have no redundancy role and count
        as primaries.
        """
        subsets: List[Tuple[FailureHandle, ...]] = []
        for size in range(1, self._max_concurrent + 1):
            for combo in itertools.combinations(self._failures, size):
                subsets.append(combo)

        def backup_count(subset: Tuple[FailureHandle, ...]) -> int:
            from repro.sensors.base import SensorRole

            return sum(
                1
                for sensor_id in subset
                if isinstance(sensor_id, SensorId)
                and self._session.sensor_role(sensor_id) == SensorRole.BACKUP
            )

        subsets.sort(
            key=lambda subset: (
                len(subset),
                backup_count(subset),
                tuple(sensor_id.label for sensor_id in subset),
            )
        )
        return subsets

    @property
    def subsets(self) -> List[Tuple[FailureHandle, ...]]:
        """The ordered failure subsets considered at each injection point."""
        return list(self._subsets)

    @property
    def variants(self) -> List[Tuple[Tuple[FailureHandle, ...], Optional[float]]]:
        """The ordered (subset, recovery window) variants actually walked
        at each injection point: the latched subsets, then the burst
        expansions (empty ``burst_durations`` leaves only the former)."""
        return list(self._variants)

    @property
    def burst_durations(self) -> List[float]:
        """The recovery windows explored next to the latched faults."""
        return list(self._burst_durations)

    @property
    def separation_aware(self) -> bool:
        """True when the weighted (tightest-geometry-first) dequeue is
        active -- it engages only when requested *and* the profiling run
        carries fleet separation data."""
        return self._separation_aware

    @property
    def pruner(self) -> RedundancyPruner:
        """The redundancy pruner (exposes pruning statistics)."""
        return self._pruner

    @property
    def session(self) -> ExplorationSession:
        """The exploration session this search charges and records into."""
        return self._session

    @property
    def max_scenarios_per_dequeue(self) -> Optional[int]:
        """The per-dequeue simulation bound (None disables it)."""
        return self._per_dequeue

    @property
    def finished(self) -> bool:
        """True once the queue or the budget has been exhausted."""
        return self._finished

    # ------------------------------------------------------------------
    # Separation-aware dequeue ordering
    # ------------------------------------------------------------------
    def _build_separation_profile(self) -> List[Tuple[float, float]]:
        """(time, min pairwise separation) samples from the profiling run.

        Built from the per-vehicle traces the fleet harness records;
        empty for single-vehicle profiles, which leaves the feature
        inert.  Only samples with at least two airborne vehicles count:
        vehicles parked on their pads are not traffic.
        """
        import math

        profile = self._session.profiling_run
        traces = getattr(profile, "vehicle_traces", None)
        if not traces or len(traces) < 2:
            return []
        samples: List[Tuple[float, float]] = []
        length = min(len(trace) for trace in traces.values())
        ordered = [traces[vehicle] for vehicle in sorted(traces)]
        for index in range(length):
            airborne = [
                trace[index].position
                for trace in ordered
                if not trace[index].on_ground
            ]
            if len(airborne) < 2:
                continue
            separation = min(
                math.dist(airborne[a], airborne[b])
                for a in range(len(airborne))
                for b in range(a + 1, len(airborne))
            )
            samples.append((ordered[0][index].time, separation))
        return samples

    def _window_separation(self, timestamp: float) -> float:
        """The tightest profiled separation in the mode window opened at
        ``timestamp``.

        The window runs from the injection time to the next profiled
        mode transition (or the mission end): a fault injected at ``t``
        lands in the mode in effect until that boundary, so the whole
        window's geometry is what the injection can perturb.  ``inf``
        when the window never has an airborne pair -- an injection there
        cannot tighten any fleet geometry.
        """
        weight = self._separation_weights.get(timestamp)
        if weight is not None:
            return weight
        window_end = self._session.mission_duration
        for transition_time in self._session.transition_times:
            if transition_time > timestamp:
                window_end = min(window_end, transition_time)
                break
        window_end = max(window_end, timestamp + self._time_quantum)
        weight = min(
            (
                separation
                for time, separation in self._separation_profile
                if timestamp <= time <= window_end
            ),
            default=float("inf"),
        )
        self._separation_weights[timestamp] = weight
        return weight

    def _pop_entry(self) -> _QueueEntry:
        """Dequeue the next transition entry.

        Uniform SABRE pops FIFO (Algorithm 1).  Separation-aware SABRE
        pops the entry whose injection window showed the tightest fleet
        geometry during profiling, breaking ties in FIFO order -- so
        takeoff, formation joins and crossings are explored before
        wide-open cruise windows, and the ordering degenerates to FIFO
        exactly when every window is equally tight.
        """
        assert self._queue is not None
        if not self._separation_aware:
            return self._queue.popleft()
        best_index = 0
        best_weight = self._window_separation(self._queue[0].timestamp)
        for index in range(1, len(self._queue)):
            weight = self._window_separation(self._queue[index].timestamp)
            if weight < best_weight:
                best_index = index
                best_weight = weight
        entry = self._queue[best_index]
        del self._queue[best_index]
        return entry

    # ------------------------------------------------------------------
    # The proposal machine
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._queue is not None:
            return
        self._queue = deque(
            _QueueEntry(timestamp=time, base=EMPTY_SCENARIO)
            for time in self._initial_injection_times()
        )
        if not self._queue:
            self._queue.append(_QueueEntry(timestamp=0.0, base=EMPTY_SCENARIO))

    def _apply_feedback(self) -> None:
        """Replay the pending log in canonical order.

        Every ``"ran"`` scenario's result must already be in the session
        (every driver ingests the whole batch, in proposal order, before
        asking for more work).
        """
        assert self._queue is not None
        for op, payload in self._pending_ops:
            if op == "ran":
                scenario = payload
                result = self._session.result_for(scenario)
                if result is None:
                    raise RuntimeError(
                        "batched SABRE proposed a scenario whose result was "
                        "never ingested -- the engine must record every "
                        "proposed scenario before the next proposal round"
                    )
                if result.found_unsafe_condition:
                    self.report.unsafe_scenarios += 1
                    self._pruner.record_bug(scenario)
                else:
                    # Bug-free runs seed deeper, multi-time scenarios.
                    for transition_time in result.transition_times:
                        self._queue.append(
                            _QueueEntry(timestamp=transition_time, base=scenario)
                        )
            else:
                self._queue.append(payload)
        self._pending_ops.clear()
        self._in_flight.clear()

    def _emit_requeue(self, entry: _QueueEntry) -> None:
        """Re-enqueue ``entry``, behind any queue appends still pending."""
        if self._pending_ops:
            self._pending_ops.append(("requeue", entry))
        else:
            assert self._queue is not None
            self._queue.append(entry)

    def _end_visit(self, completed: bool) -> None:
        entry = self._visit_entry
        assert entry is not None
        if not completed:
            # Not finished with this entry: come back to it later.
            self._emit_requeue(
                _QueueEntry(
                    timestamp=entry.timestamp,
                    base=entry.base,
                    cursor=self._visit_cursor,
                )
            )
        else:
            # Line 20: revisit the neighbourhood of this transition at a
            # later timestamp (bounded by the mission duration).
            shifted_time = entry.timestamp + self._time_quantum
            if shifted_time <= self._session.mission_duration:
                self._emit_requeue(
                    _QueueEntry(timestamp=shifted_time, base=entry.base)
                )
        self._visit_entry = None

    def _depends_on_in_flight(self, scenario: FaultScenario) -> bool:
        """True when Algorithm 1 *might* prune ``scenario`` based on the
        outcome of a simulation still in flight.

        Found-bug pruning skips strict supersets of a scenario that
        triggered a bug, so a candidate is only outcome-dependent when
        its fault set strictly contains an in-flight scenario's faults.
        """
        if not self._in_flight:
            return False
        faults = frozenset(scenario)
        return any(pending < faults for pending in self._in_flight)

    def propose_batch(self, max_scenarios: int) -> List[FaultScenario]:
        """Propose up to ``max_scenarios`` independent scenarios.

        Walks the dequeue expansion in Algorithm 1's order, charging one
        simulation per accepted candidate.  Returns ``[]`` once the queue or the budget is exhausted; a
        non-empty batch must be fully simulated and ingested into the
        session before the next call.
        """
        session = self._session
        self._start()
        self._apply_feedback()
        assert self._queue is not None
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.gauge("sabre.queue_depth").set(len(self._queue))
        batch: List[FaultScenario] = []
        while len(batch) < max_scenarios and not self._finished:
            if self._visit_entry is None:
                # The outer loop: pop the next entry, if any work remains.
                if not self._queue:
                    if self._pending_ops:
                        # In-flight runs may refill the queue; wait.
                        break
                    self._finished = True
                    break
                if not session.budget.can_afford_simulation():
                    self._finished = True
                    break
                entry = self._pop_entry()
                self._visit_entry = entry
                self._visit_cursor = entry.cursor
                self._visit_ran = 0
            entry = self._visit_entry
            # The inner loop's exit conditions, in Algorithm 1's order.
            if self._visit_cursor >= len(self._variants):
                self._end_visit(completed=True)
                continue
            if not session.budget.can_afford_simulation():
                self._end_visit(completed=False)
                continue
            if self._per_dequeue is not None and self._visit_ran >= self._per_dequeue:
                self._end_visit(completed=False)
                continue
            subset, duration = self._variants[self._visit_cursor]
            if (
                duration is not None
                and entry.timestamp + duration >= session.mission_duration
            ):
                # The window would outlive the mission: behaviourally the
                # latched variant, which is enumerated separately -- skip
                # rather than spend budget on a duplicate probe.
                self._visit_cursor += 1
                self.report.pruned += 1
                if obs is not None:
                    obs.metrics.counter(
                        "sabre.pruned", reason="latched_equivalent"
                    ).inc()
                continue
            scenario = entry.base.extended(
                spec_for(failure, entry.timestamp, duration) for failure in subset
            )
            if self._depends_on_in_flight(scenario):
                # Admission depends on an outcome still in flight: cut the
                # batch here (cursor untouched) and re-decide next round.
                if obs is not None:
                    obs.metrics.counter(
                        "sabre.batch_cuts", reason="in_flight_dependency"
                    ).inc()
                break
            self._visit_cursor += 1
            # Evaluated in Algorithm 1's exact short-circuit order;
            # split only so the prune reason can be attributed.
            if self._pruner.can_prune(scenario):
                self.report.pruned += 1
                if obs is not None:
                    obs.metrics.counter("sabre.pruned", reason="redundant").inc()
                continue
            if session.was_explored(scenario):
                self.report.pruned += 1
                if obs is not None:
                    obs.metrics.counter("sabre.pruned", reason="explored").inc()
                continue
            if not session.reserve_simulation():
                # Unreachable in practice: affordability was checked just
                # above and nothing has charged the budget since.
                self._visit_cursor -= 1
                self._end_visit(completed=False)
                continue
            self._visit_ran += 1
            self.report.simulations += 1
            if obs is not None:
                obs.metrics.counter(
                    "sabre.proposed",
                    variant="burst" if duration is not None else "latched",
                ).inc()
            # Exploration is certain from this point on, so duplicate
            # pruning may see the candidate immediately.
            self._pruner.record_explored(scenario)
            self._in_flight.append(frozenset(scenario))
            self._pending_ops.append(("ran", scenario))
            batch.append(scenario)
        if self._finished and not self._pending_ops:
            self.report.queue_exhausted = not self._queue
        return batch

    # ------------------------------------------------------------------
    # Seed injection points
    # ------------------------------------------------------------------
    def _profile_transition_times(self) -> List[float]:
        """The injection timestamps discovered by the profiling run."""
        times = self._session.transition_times
        # The initial "preflight" announcement at t=0 is not a transition
        # between flight operations; keep it only if nothing else exists.
        meaningful = [time for time in times if time > 0.0]
        return meaningful if meaningful else times

    def _initial_injection_times(self) -> List[float]:
        """Seed injection points: each transition and its near neighbourhood.

        Avis injects failures *around* mode transitions: the transition
        instant itself (where the failure lands at the tail of the
        outgoing mode) and one time quantum into the new mode (where it
        lands at the head of the incoming mode).  Both sides of the
        boundary are critical windows.
        """
        duration = self._session.mission_duration
        times: List[float] = []
        for time in self._profile_transition_times():
            for candidate in (time, time + self._time_quantum):
                if candidate <= duration and candidate not in times:
                    times.append(candidate)
        return times
