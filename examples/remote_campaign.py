#!/usr/bin/env python3
"""The distributed campaign fabric, end to end on one machine.

Three stages, each building on the previous one:

1. describe a campaign as a :class:`repro.CampaignRequest` and run it
   in-process through :func:`repro.run_campaign` -- the declarative
   twin of the ``python -m repro.engine`` flags;
2. start two ``python -m repro.engine worker`` processes for the same
   cell, run the request over the remote execution backend against
   them, and show the records are bit-identical;
3. share one content-addressed result cache directory between two
   campaigns -- the second campaign runs warm.

Run with:  python examples/remote_campaign.py
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile

from repro import Avis, CampaignRequest, RunConfiguration, run_campaign
from repro.core.strategies import RandomInjection
from repro.engine.cache import ResultCache
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.workloads.builtin import AutoWorkload


def start_worker(*flags: str):
    """Start one CLI worker on an ephemeral port; returns the process
    and the ``host:port`` it announces once profiling is done."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.engine", "worker", "--port", "0", *flags],
        stdout=subprocess.PIPE, text=True,
    )
    for line in process.stdout:
        match = re.search(r"worker serving \S+ on (\S+) ", line)
        if match:
            return process, match.group(1)
    raise RuntimeError("worker exited before serving")


def main() -> None:
    request = CampaignRequest(
        strategies=("random",), budgets=(8.0,), workers=1
    )

    print("1. One declarative request, run in-process:")
    records = list(run_campaign(request).cell_summaries.values())
    for record in records:
        print(f"  {record['cell']}: {record['simulations']} simulations, "
              f"{record['unsafe_scenarios']} unsafe")

    print("\n2. The same request on two CLI-started remote workers:")
    # Workers take the request's matrix flags, so they serve its one cell.
    workers = [start_worker("--strategy", "random", "--budget", "8")
               for _ in range(2)]
    try:
        addresses = ",".join(address for _, address in workers)
        print(f"  workers on {addresses}")
        remote_request = CampaignRequest(
            strategies=("random",), budgets=(8.0,), workers=1,
            backend=f"remote:{addresses}",
        )
        remote_records = list(
            run_campaign(remote_request).cell_summaries.values()
        )
    finally:
        for process, _ in workers:
            process.kill()
            process.wait()
    same = all(
        (a["simulations"], a["unsafe_scenarios"], a["triggered_bugs"])
        == (b["simulations"], b["unsafe_scenarios"], b["triggered_bugs"])
        for a, b in zip(records, remote_records)
    )
    print(f"  bit-identical to in-process: {same}")

    print("\n3. A shared cache directory warming a second campaign:")
    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=10.0),
        max_sim_time_s=90.0,
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        for label in ("cold", "warm"):
            # Each orchestrator opens its own store over the directory,
            # as separate processes or hosts on a shared mount would.
            cache = ResultCache(directory=cache_dir)
            avis = Avis(config, profiling_runs=2, budget_units=6.0,
                        cache=cache)
            avis.profile()
            campaign = avis.check(strategy=RandomInjection(rng_seed=5))
            print(f"  {label}: {campaign.simulations} simulations, "
                  f"{cache.hits} hits / {cache.misses} misses")


if __name__ == "__main__":
    main()
