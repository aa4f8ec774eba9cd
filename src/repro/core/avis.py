"""Avis: the campaign orchestrator (Figure 4 of the paper).

``Avis`` ties the pieces together for one (firmware, workload) pair:

1. **Profiling** -- run the workload fault-free a few times (with
   different sensor-noise seeds); the runs calibrate the liveliness
   monitor, build the mode graph, and give SABRE its initial transition
   queue.
2. **Checking** -- run a search strategy (SABRE + pruning by default,
   or one of the Table I baselines) under a simulation/labelling budget,
   evaluating every run with the invariant monitor.
3. **Reporting** -- collect the unsafe scenarios, the per-mode breakdown
   (Table IV), and the root-cause bugs each unsafe scenario maps to
   (Tables II and V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.config import RunConfiguration
from repro.core.monitor import InvariantMonitor, UnsafeCondition, mode_category_of
from repro.core.runner import RunResult, TestRunner
from repro.core.session import BudgetAccount, ExplorationSession
from repro.core.strategies import AvisStrategy, SearchStrategy
from repro.engine.backends import parse_backend_spec
from repro.engine.cache import ResultCache
from repro.engine.campaign import CampaignEngine
from repro.hinj.faults import default_traffic_failures, validate_burst_durations
from repro.obs import runtime as obs_runtime
from repro.sensors.suite import iris_sensor_suite

class ProfilingError(RuntimeError):
    """Raised when the fault-free profiling run does not pass the workload."""


@dataclass
class CampaignResult:
    """Outcome of one checking campaign (one strategy, one budget)."""

    strategy_name: str
    firmware_name: str
    workload_name: str
    results: List[RunResult]
    simulations: int
    labels: int
    budget_spent: float

    @property
    def unsafe_results(self) -> List[RunResult]:
        """Runs that produced at least one unsafe condition."""
        return [result for result in self.results if result.found_unsafe_condition]

    @property
    def unsafe_scenario_count(self) -> int:
        """Number of unsafe scenarios identified (the Table III metric)."""
        return len(self.unsafe_results)

    @property
    def unsafe_condition_count(self) -> int:
        """Total number of unsafe conditions across all runs."""
        return sum(len(result.unsafe_conditions) for result in self.results)

    @property
    def triggered_bug_ids(self) -> Set[str]:
        """Root-cause bugs behind the unsafe scenarios (ground truth)."""
        bugs: Set[str] = set()
        for result in self.unsafe_results:
            bugs.update(result.triggered_bugs)
        return bugs

    @property
    def per_mode_counts(self) -> Dict[str, int]:
        """Unsafe scenarios per mode category (the Table IV metric)."""
        counts: Dict[str, int] = {"takeoff": 0, "manual": 0, "waypoint": 0, "land": 0}
        for result in self.unsafe_results:
            condition = result.unsafe_conditions[0]
            category = mode_category_of(condition)
            counts[category] = counts.get(category, 0) + 1
        return counts

    def simulations_to_find(self, bug_id: str) -> Optional[int]:
        """Number of simulations executed up to and including the first
        unsafe scenario attributable to ``bug_id`` (the Table V metric)."""
        for index, result in enumerate(self.results, start=1):
            if result.found_unsafe_condition and bug_id in result.triggered_bugs:
                return index
        return None

    @property
    def efficiency(self) -> float:
        """Unsafe scenarios per simulation (the paper's efficiency metric)."""
        if self.simulations == 0:
            return 0.0
        return self.unsafe_scenario_count / self.simulations

    def summary(self) -> str:
        """One-line summary used by the benchmark harnesses."""
        return (
            f"{self.strategy_name:>16}: {self.unsafe_scenario_count:3d} unsafe scenarios "
            f"in {self.simulations:3d} simulations "
            f"({self.labels} labels, {self.budget_spent:.1f} budget units)"
        )


class Avis:
    """The aerial-vehicle in-situ model checker."""

    def __init__(
        self,
        config: RunConfiguration,
        profiling_runs: int = 2,
        budget_units: float = 60.0,
        backend: str = "serial",
        cache: Optional[ResultCache] = None,
        traffic_faults: bool = False,
        burst_durations: Sequence[float] = (),
    ) -> None:
        if profiling_runs < 1:
            # Clamping would fly one profile under a count claiming
            # otherwise; every profile count names exactly its runs.
            raise ValueError(f"profiling_runs must be >= 1, got {profiling_runs!r}")
        self._config = config
        self._profiling_run_count = profiling_runs
        self._budget_units = budget_units
        # Recovery windows the default (SABRE) strategy explores next to
        # the latched faults; empty keeps the classic fault space.
        self._burst_durations = validate_burst_durations(burst_durations)
        # Opt-in coordination fault space: one handle per (vehicle,
        # fault kind), offered to strategies through the session.
        if traffic_faults and config.fleet_size < 2:
            # A single vehicle has no inter-vehicle channel; silently
            # running a sensor-only campaign would misrepresent coverage.
            raise ValueError(
                "traffic_faults=True needs a fleet (fleet_size >= 2): a "
                "single-vehicle campaign has no inter-vehicle channel to fault"
            )
        self._traffic_failures = (
            default_traffic_failures(config.fleet_size) if traffic_faults else []
        )
        # A per-orchestrator cache by default: compare() runs several
        # strategies over the same fault space, so overlapping scenarios
        # are only ever simulated once.
        self._cache = cache if cache is not None else ResultCache()
        if not isinstance(backend, str):
            raise TypeError(
                "backend must be a spec string such as 'serial' or "
                f"'pool:4', got {type(backend).__name__}"
            )
        self._engine = CampaignEngine(
            backend=parse_backend_spec(backend),
            cache=self._cache,
        )
        # Every simulation -- the profiling runs and each campaign's --
        # flies through this one runner, so all of them share its sensor
        # noise tables, and forked pool workers inherit them.
        self._runner = TestRunner(config)
        self._profiles: Optional[List[RunResult]] = None
        self._monitor: Optional[InvariantMonitor] = None

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def config(self) -> RunConfiguration:
        """The run configuration used for every simulation."""
        return self._config

    @property
    def engine(self) -> CampaignEngine:
        """The campaign engine executing this orchestrator's campaigns."""
        return self._engine

    @property
    def runner(self) -> TestRunner:
        """The test runner every simulation of this orchestrator flies
        through (its monitor is the calibrated one during campaigns)."""
        return self._runner

    @property
    def cache(self) -> ResultCache:
        """The result cache shared by every campaign of this orchestrator."""
        return self._cache

    @property
    def monitor(self) -> InvariantMonitor:
        """The invariant monitor (profiles the workload on first use)."""
        if self._monitor is None:
            self.profile()
        assert self._monitor is not None
        return self._monitor

    @property
    def profiling_results(self) -> List[RunResult]:
        """The fault-free profiling runs (profiles on first use)."""
        if self._profiles is None:
            self.profile()
        assert self._profiles is not None
        return list(self._profiles)

    def profile(self) -> List[RunResult]:
        """Fly the fault-free profiling runs and calibrate the monitor."""
        obs = obs_runtime.current()
        if obs is None:
            profiles = self._fly_profiles()
        else:
            with obs.tracer.span(
                "avis.profile",
                firmware=self._config.firmware_name,
                runs=self._profiling_run_count,
            ):
                profiles = self._fly_profiles()
            obs.metrics.counter("avis.profile.flown").inc(len(profiles))
        self._calibrate(profiles)
        return profiles

    def calibrate(self, profiles: Sequence[RunResult]) -> None:
        """Adopt ``profiles`` flown by :meth:`profile` of another
        orchestrator over the same configuration and profiling count.

        The runs are shared, read-only; the monitor built from them is
        this orchestrator's own, because it carries online state.
        """
        if len(profiles) != self._profiling_run_count:
            raise ValueError(
                f"expected {self._profiling_run_count} profiling runs, "
                f"got {len(profiles)}"
            )
        self._calibrate(profiles)
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.counter("avis.profile.reused").inc(len(profiles))

    def _fly_profiles(self) -> List[RunResult]:
        runner = self._runner
        runner.monitor = None  # the profiling runs calibrate the monitor
        profiles: List[RunResult] = []
        for index in range(self._profiling_run_count):
            result = runner.run(noise_seed=self._config.noise_seed + index)
            if not result.workload_passed:
                reason = (
                    result.workload_result.reason
                    if result.workload_result is not None
                    else "no workload result"
                )
                raise ProfilingError(
                    f"fault-free profiling run {index} did not pass: {reason}"
                )
            profiles.append(result)
        return profiles

    def _calibrate(self, profiles: Sequence[RunResult]) -> None:
        self._profiles = list(profiles)
        self._monitor = InvariantMonitor(self._profiles)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def check(
        self,
        strategy: Optional[SearchStrategy] = None,
        budget_units: Optional[float] = None,
    ) -> CampaignResult:
        """Run one checking campaign with ``strategy`` (SABRE by default).

        The default strategy inherits this orchestrator's
        ``burst_durations`` and explores the opted-in coordination fault
        space when ``traffic_faults=True`` was requested.
        """
        if strategy is None:
            strategy = AvisStrategy(
                include_traffic_faults=bool(self._traffic_failures),
                burst_durations=self._burst_durations,
            )
        profiles = self.profiling_results
        monitor = self.monitor

        runner = self._runner
        runner.monitor = monitor
        budget = BudgetAccount(
            total_units=budget_units if budget_units is not None else self._budget_units,
        )
        session = ExplorationSession(
            runner=runner,
            budget=budget,
            profiling_run=profiles[0],
            suite=iris_sensor_suite(noise_seed=self._config.noise_seed),
            traffic_failures=self._traffic_failures,
        )
        obs = obs_runtime.current()
        if obs is not None:
            with obs.tracer.span(
                "avis.check",
                strategy=strategy.name,
                firmware=self._config.firmware_name,
                budget=budget.total_units,
            ):
                self._engine.execute(strategy, session, golden=profiles[0])
        else:
            self._engine.execute(strategy, session, golden=profiles[0])
        return CampaignResult(
            strategy_name=strategy.name,
            firmware_name=self._config.firmware_name,
            workload_name=profiles[0].workload_name,
            results=session.results,
            simulations=budget.simulations,
            labels=budget.labels,
            budget_spent=budget.spent_units,
        )

    def compare(
        self,
        strategies: Sequence[SearchStrategy],
        budget_units: Optional[float] = None,
    ) -> List[CampaignResult]:
        """Run the same budgeted campaign once per strategy (Table III).

        Campaigns share this orchestrator's result cache, so scenarios
        several strategies propose are only simulated once (a cache hit
        still charges the hitting campaign's budget, keeping the
        comparison fair), and each campaign's simulations run through the
        configured execution backend.
        """
        return [self.check(strategy=strategy, budget_units=budget_units) for strategy in strategies]
