"""repro: a reproduction of "Avis: In-Situ Model Checking for UAVs" (DSN 2021).

The package is organised as the paper's system plus every substrate it
depends on:

* :mod:`repro.sim` -- the flight simulator (vehicle dynamics, environment).
* :mod:`repro.sensors` -- sensor models with redundancy and clean failures.
* :mod:`repro.hinj` -- the ``libhinj`` equivalent (driver instrumentation,
  fault scheduling, mode-transition reporting).
* :mod:`repro.mavlink` -- the MAVLink-like ground-control protocol.
* :mod:`repro.firmware` -- ArduPilot- and PX4-flavoured control firmware,
  including the latent and re-insertable sensor bugs the evaluation uses.
* :mod:`repro.workloads` -- the workload framework and default workloads.
* :mod:`repro.core` -- Avis itself: SABRE, pruning, the invariant monitor,
  the baseline strategies, replay and reporting.
* :mod:`repro.bugstudy` -- the Section III bug-study dataset and analysis.
* :mod:`repro.analysis` -- figure/table regeneration helpers.

Quickstart::

    from repro import Avis, RunConfiguration
    from repro.firmware import ArduPilotFirmware
    from repro.workloads import AutoWorkload

    config = RunConfiguration(
        firmware_class=ArduPilotFirmware,
        workload_factory=lambda: AutoWorkload(altitude=15.0),
    )
    avis = Avis(config, budget_units=30)
    campaign = avis.check()
    for run in campaign.unsafe_results:
        print(run.summary())

Campaign matrices run through the request API, which streams the same
records as ``python -m repro.engine --stream`` and resumes from them::

    from repro import CampaignRequest, run_campaign

    request = CampaignRequest(strategies=("avis", "random"),
                              budgets=(30.0,), backend="pool:4")
    outcome = run_campaign(request, stream_path="runs.jsonl")
    records = list(outcome.cell_summaries.values())
"""

from repro.core.avis import Avis, CampaignResult
from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.monitor import InvariantMonitor, UnsafeCondition
from repro.core.runner import RunResult, TestRunner
from repro.hinj.faults import FaultScenario, FaultSpec, TrafficFaultSpec

__version__ = "16.0.0"

__all__ = [
    "Avis",
    "CampaignRequest",
    "CampaignResult",
    "FaultScenario",
    "FaultSpec",
    "InvariantMonitor",
    "ResultCache",
    "RunConfiguration",
    "RunResult",
    "TestRunner",
    "TrafficFaultSpec",
    "UnsafeCondition",
    "VehicleSpec",
    "__version__",
    "parse_backend_spec",
    "run_campaign",
]

#: Campaign-fabric symbols, re-exported lazily: the engine modules
#: import the orchestrator above, so an eager import here would cycle.
_ENGINE_EXPORTS = {
    "CampaignRequest",
    "ResultCache",
    "parse_backend_spec",
    "run_campaign",
}


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        import repro.engine as _engine

        return getattr(_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
