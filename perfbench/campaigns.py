"""The benchmark's four workloads: real Avis campaigns driven through the
public API from one process.

The load is a closed loop with one client: the campaign engine asks for
the next proposal round only after the previous round is ingested, on
the ``serial`` backend, and grids run in-process (``max_workers=1``).
The workload seed reaches the program only as
``RunConfiguration.noise_seed`` on the generated configurations.

Each workload splits into ``build`` (configuration or cell generation,
counted in ``setup_s``) and ``run`` (one timed repetition of the whole
campaign).  The warm grid also has ``fill``, benchmark preparation
outside every timing that writes its cache directory, and ``adopt``,
which points the plan at what ``fill`` wrote.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.avis import Avis
from repro.core.config import RunConfiguration
from repro.core.strategies import AvisStrategy
from repro.engine.api import CampaignRequest, build_cells
from repro.engine.grid import CampaignGrid
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.workloads.builtin import WaypointFenceWorkload
from repro.workloads.fleet import ConvoyFollowWorkload

#: Budgets in simulation units per campaign (per cell for the grids),
#: sized so one repetition takes a few seconds on one core.
WAYPOINT_BUDGET = 6.0
CONVOY_BUDGET = 3.0
GRID_BUDGET = 3.0

#: Scale of the single-vehicle mission, as in the paper benchmarks.
ALTITUDE_M = 15.0
BOX_SIDE_M = 15.0


@dataclass
class Rep:
    """One timed repetition of a workload."""

    #: ``time.perf_counter()`` when the timing began, and its length.
    started: float
    seconds: float
    #: Campaign results in execution order (grid cells in matrix order).
    campaigns: list
    #: The AvisStrategy instances that ran, for SABRE's prune report.
    avis_strategies: list
    profiling_runs: int
    cache_hits: int
    cache_lookups: int
    fleet_size: int = 1

    @property
    def simulations(self) -> int:
        """Simulations charged to the budgets (cache hits included)."""
        return sum(campaign.simulations for campaign in self.campaigns)

    @property
    def results(self) -> list:
        """Every campaign result, cells concatenated in execution order."""
        return [result for campaign in self.campaigns for result in campaign.results]


class SingleCampaign:
    """One ``Avis`` orchestrator, profiled and checked inside the timing,
    on its private in-memory cache."""

    warm = False

    def __init__(self, name: str) -> None:
        self.name = name

    def build(self, seed: int) -> RunConfiguration:
        if self.name == "sabre-waypoint":
            return RunConfiguration(
                firmware_class=ArduPilotFirmware,
                workload_factory=lambda: WaypointFenceWorkload(
                    altitude=ALTITUDE_M, box_side=BOX_SIDE_M
                ),
                noise_seed=seed,
            )
        return RunConfiguration(
            firmware_class=ArduPilotFirmware,
            workload_factory=ConvoyFollowWorkload,
            fleet_size=2,
            stepper="adaptive",
            noise_seed=seed,
        )

    def run(self, config: RunConfiguration, workdir: str) -> Rep:
        convoy = config.fleet_size > 1
        start = time.perf_counter()
        avis = Avis(
            config,
            budget_units=CONVOY_BUDGET if convoy else WAYPOINT_BUDGET,
            traffic_faults=convoy,
        )
        strategy = AvisStrategy(
            include_traffic_faults=convoy, separation_aware=convoy
        )
        campaign = avis.check(strategy=strategy)
        seconds = time.perf_counter() - start
        stats = avis.cache.stats
        return Rep(
            started=start,
            seconds=seconds,
            campaigns=[campaign],
            avis_strategies=[strategy],
            profiling_runs=len(avis.profiling_results),
            cache_hits=stats["hits"],
            cache_lookups=stats["hits"] + stats["misses"],
            fleet_size=config.fleet_size,
        )


@dataclass
class GridPlan:
    cells: list
    #: Every strategy the cells' factories made during the current run.
    strategies: list = field(default_factory=list)
    #: Cache directory of the warm workload and the entries its fill wrote.
    warm_dir: Optional[str] = None
    warm_entries: List[str] = field(default_factory=list)
    reps: int = 0


class WarmCacheError(RuntimeError):
    """The warm workload would not read only from its filled cache."""


def _cache_entries(directory: str) -> List[str]:
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory) if name.endswith(".pkl"))


class Table3Grid:
    """PX4 ``waypoint`` x {avis, stratified-bfi, bfi, random} through
    ``build_cells`` and ``CampaignGrid`` over one shared cache directory:
    fresh per repetition (cold) or filled once beforehand (warm)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.warm = name.endswith("-warm")

    def build(self, seed: int) -> GridPlan:
        request = CampaignRequest(
            firmwares=("px4",),
            workloads=("waypoint",),
            strategies=("avis", "stratified-bfi", "bfi", "random"),
            budgets=(GRID_BUDGET,),
            altitude=ALTITUDE_M,
            box_side=BOX_SIDE_M,
            workers=1,
        )
        plan = GridPlan(cells=build_cells(request))
        for cell in plan.cells:
            cell.config = cell.config.with_noise_seed(seed)
            cell.strategy_factory = _recording(cell.strategy_factory, plan.strategies)
        return plan

    def fill(self, plan: GridPlan, workdir: str) -> None:
        """Run the grid once into the warm cache directory."""
        self._run_grid(plan, os.path.join(workdir, "warm-cache"))

    def adopt(self, plan: GridPlan, workdir: str) -> None:
        """Time later runs against the cache ``fill`` wrote."""
        plan.warm_dir = os.path.join(workdir, "warm-cache")
        plan.warm_entries = _cache_entries(plan.warm_dir)

    def run(self, plan: GridPlan, workdir: str) -> Rep:
        if self.warm:
            missing = sorted(set(plan.warm_entries) - set(_cache_entries(plan.warm_dir)))
            if missing or not plan.warm_entries:
                raise WarmCacheError(
                    f"warm cache lost {len(missing)} of {len(plan.warm_entries)} entries"
                )
            rep = self._run_grid(plan, plan.warm_dir)
            if rep.cache_hits != rep.cache_lookups:
                raise WarmCacheError(
                    f"warm pass hit {rep.cache_hits} of {rep.cache_lookups} lookups"
                )
            return rep
        plan.reps += 1
        directory = os.path.join(workdir, f"cold-cache-{plan.reps}")
        try:
            return self._run_grid(plan, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _run_grid(self, plan: GridPlan, directory: str) -> Rep:
        for cell in plan.cells:
            cell.cache_spec = directory
        start = time.perf_counter()
        outcome = CampaignGrid(plan.cells, max_workers=1).run()
        seconds = time.perf_counter() - start
        cache = outcome.cache_totals() or {}
        hits = int(cache.get("hits", 0))
        strategies = [s for s in plan.strategies if isinstance(s, AvisStrategy)]
        plan.strategies.clear()
        return Rep(
            started=start,
            seconds=seconds,
            campaigns=list(outcome.results.values()),
            avis_strategies=strategies,
            profiling_runs=sum(cell.profiling_runs for cell in plan.cells),
            cache_hits=hits,
            cache_lookups=hits + int(cache.get("misses", 0)),
        )


def _recording(factory, sink: list):
    def make():
        strategy = factory()
        sink.append(strategy)
        return strategy

    return make


WORKLOADS: Dict[str, object] = {
    "sabre-waypoint": SingleCampaign("sabre-waypoint"),
    "convoy-adaptive": SingleCampaign("convoy-adaptive"),
    "table3-grid": Table3Grid("table3-grid"),
    "table3-grid-warm": Table3Grid("table3-grid-warm"),
}
