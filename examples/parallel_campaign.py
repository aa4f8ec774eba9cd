#!/usr/bin/env python3
"""Parallel campaigns: the engine's backends, cache, and campaign grid.

Three stages, each building on the previous one:

1. run one random-injection campaign serially (backend ``"serial"``),
   then again through a 4-worker process pool (``"pool:4"``), and show
   the results are identical;
2. re-run the campaign against the orchestrator's result cache and show
   the repeat costs (almost) no simulation time;
3. shard a small (strategy x budget) campaign grid across workers --
   the Python-API equivalent of ``python -m repro.engine``;
4. run SABRE itself -- the paper's feedback-driven headline strategy --
   through the batch protocol: each transition dequeue fans out as one
   concurrent batch, and the campaign stays bit-identical to serial.

Run with:  python examples/parallel_campaign.py
"""

from __future__ import annotations

import time

from repro import Avis, RunConfiguration
from repro.core.strategies import AvisStrategy, RandomInjection, StratifiedBFI
from repro.engine.grid import CampaignGrid, GridCell
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.workloads.builtin import AutoWorkload


def make_config() -> RunConfiguration:
    return RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=10.0, init_wait_ms=1000.0),
        max_sim_time_s=90.0,
    )


def timed_campaign(backend: str, label: str):
    avis = Avis(make_config(), profiling_runs=2, budget_units=12, backend=backend)
    avis.profile()
    started = time.perf_counter()
    campaign = avis.check(strategy=RandomInjection(rng_seed=5))
    elapsed = time.perf_counter() - started
    print(f"  {label:>12}: {campaign.summary().strip()}  [{elapsed:.1f}s]")
    return avis, campaign


def main() -> None:
    print("1. Serial vs. 4-worker process pool (identical results):")
    _, serial_campaign = timed_campaign("serial", "serial")
    avis, pooled_campaign = timed_campaign("pool:4", "4 workers")
    assert pooled_campaign.unsafe_scenario_count == serial_campaign.unsafe_scenario_count
    assert [r.scenario for r in pooled_campaign.results] == [
        r.scenario for r in serial_campaign.results
    ]

    print("\n2. Result cache: the same campaign again is (almost) free:")
    started = time.perf_counter()
    repeat = avis.check(strategy=RandomInjection(rng_seed=5))
    elapsed = time.perf_counter() - started
    print(f"  {'cached':>12}: {repeat.summary().strip()}  [{elapsed:.1f}s]")
    print(f"  cache stats : {avis.cache.stats}")

    print("\n3. A small campaign grid, sharded across workers:")
    cells = [
        GridCell(
            cell_id=f"ardupilot/auto/{name}",
            config=make_config(),
            strategy_factory=factory,
            budget_units=10,
        )
        for name, factory in (
            ("random", lambda: RandomInjection(rng_seed=5)),
            ("stratified-bfi", StratifiedBFI),
        )
    ]
    outcome = CampaignGrid(cells, max_workers=2).run(
        on_progress=lambda cell_id, c: print(f"  done {cell_id}: {c.summary().strip()}")
    )
    totals = outcome.summary()["totals"]
    print(f"  grid totals : {totals} in {outcome.wall_seconds:.1f}s "
          f"across {outcome.workers} worker(s)")

    print("\n4. Batched SABRE: the headline strategy, dequeue-parallel:")

    def sabre_campaign(backend: str, label: str):
        avis = Avis(make_config(), profiling_runs=2, budget_units=10, backend=backend)
        avis.profile()
        started = time.perf_counter()
        campaign = avis.check(strategy=AvisStrategy(max_scenarios_per_dequeue=4))
        elapsed = time.perf_counter() - started
        stats = avis.engine.last_stats
        print(f"  {label:>12}: {campaign.summary().strip()}  [{elapsed:.1f}s, "
              f"{stats['proposed']} scenarios in {stats['rounds']} rounds]")
        return campaign

    serial_sabre = sabre_campaign("serial", "serial")
    pooled_sabre = sabre_campaign("pool:4", "4 workers")
    assert [r.scenario for r in pooled_sabre.results] == [
        r.scenario for r in serial_sabre.results
    ]
    assert pooled_sabre.triggered_bug_ids == serial_sabre.triggered_bug_ids
    print("  bit-identical: same scenarios, same order, same found-bug set")


if __name__ == "__main__":
    main()
