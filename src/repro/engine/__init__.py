"""The parallel campaign engine.

The engine is the execution layer under :class:`repro.core.avis.Avis`:

* :mod:`repro.engine.backends` -- where batches of simulations run
  (:class:`SerialBackend` in-process, :class:`ProcessPoolBackend` across
  a forked worker pool -- bit-identical; ``Avis`` takes one as a spec
  string: ``"serial"``, ``"pool"`` or ``"pool:8"``).
* :mod:`repro.engine.cache` -- the content-addressed
  :class:`ResultCache`, keyed on ``(firmware, workload, scenario,
  noise seed, params)``, so repeated campaigns skip already-simulated
  scenarios; campaigns share results by pointing at one cache
  directory (local, or on a mount other hosts see too).
* :mod:`repro.engine.campaign` -- :class:`CampaignEngine`, which drives
  a search strategy's batch proposals through the cache and a backend.
* :mod:`repro.engine.grid` -- :class:`CampaignGrid`, sharding a
  (firmware x workload x strategy x budget) matrix across workers;
  exposed on the command line as ``python -m repro.engine``.
* :mod:`repro.engine.api` -- the request API:
  :class:`CampaignRequest` (one declarative matrix value) and
  :func:`run_campaign` (expand, shard, stream, resume).

Grid/api symbols are re-exported lazily because those modules import
the orchestrator (which itself imports this package).
"""

from repro.engine.backends import (
    BACKEND_SPEC_HELP,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    parse_backend_spec,
)
from repro.engine.cache import (
    ResultCache,
    adapt_cached_result,
    bug_registry_stamp,
    config_fingerprint,
    scenario_key,
    workload_fingerprint,
)
from repro.engine.campaign import DEFAULT_BATCH_SIZE, CampaignEngine

__all__ = [
    "BACKEND_SPEC_HELP",
    "CampaignEngine",
    "CampaignGrid",
    "CampaignRequest",
    "DEFAULT_BATCH_SIZE",
    "ExecutionBackend",
    "GridCell",
    "GridOutcome",
    "ProcessPoolBackend",
    "ResultCache",
    "STREAM_SCHEMA_VERSION",
    "SerialBackend",
    "adapt_cached_result",
    "build_cells",
    "bug_registry_stamp",
    "config_fingerprint",
    "load_completed_cells",
    "parse_backend_spec",
    "run_campaign",
    "scenario_key",
    "summarize_campaign",
    "validate_stream_record",
    "workload_fingerprint",
]

#: Lazily-resolved re-exports, mapped to their defining module (these
#: modules import the orchestrator, which imports this package).
_LAZY = {
    "CampaignGrid": "repro.engine.grid",
    "GridCell": "repro.engine.grid",
    "GridOutcome": "repro.engine.grid",
    "STREAM_SCHEMA_VERSION": "repro.engine.grid",
    "load_completed_cells": "repro.engine.grid",
    "summarize_campaign": "repro.engine.grid",
    "validate_stream_record": "repro.engine.grid",
    "CampaignRequest": "repro.engine.api",
    "build_cells": "repro.engine.api",
    "run_campaign": "repro.engine.api",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
