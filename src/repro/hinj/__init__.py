"""The ``libhinj`` equivalent: driver instrumentation and fault scheduling.

In the paper, ``libhinj`` is a small C library linked into ArduPilot and
PX4 that (1) reports every operating-mode change to Avis through
``hinj_update_mode()`` and (2) intercepts each sensor driver's ``read()``
to ask Avis's scheduler whether the read should fail.  The scheduler, in
turn, executes the fault scenario chosen by the search strategy.

This package reproduces both halves in-process:

* :class:`~repro.hinj.faults.FaultSpec` / :class:`~repro.hinj.faults.FaultScenario`
  describe *what* to fail and *when* -- the ``(Timestamp, Fault)`` tuples
  of Section V-B.
* :class:`~repro.hinj.faults.TrafficFaultSpec` extends the scenario
  grammar to the inter-vehicle traffic channel: vehicle-namespaced
  beacon dropout / freeze / delay faults, scheduled exactly like sensor
  faults (and enumerated by the strategies through
  :class:`~repro.hinj.faults.TrafficFailure` handles).
* :class:`~repro.hinj.scheduler.FaultScheduler` answers the per-read
  "should this instance fail now?" query and records the injections it
  actually performed.
* :class:`~repro.hinj.instrumentation.HinjInterface` is the firmware-facing
  API: ``update_mode()`` reports mode transitions, ``install()`` hooks the
  sensor suite's read path.

As in the paper, where every test runs on a freshly provisioned
firmware and simulator, each of these is built for one run and one
scenario: nothing re-loads a scenario into a live scheduler, unhooks a
suite or listens in on a run's mode changes.
"""

from repro.hinj.faults import (
    BurstFailure,
    FaultScenario,
    FaultSpec,
    TrafficFailure,
    TrafficFaultKind,
    TrafficFaultSpec,
    burst_failures,
    default_traffic_failures,
    scenario_from_pairs,
    spec_for,
)
from repro.hinj.instrumentation import HinjInterface, ModeTransition
from repro.hinj.scheduler import FaultScheduler, InjectionRecord

__all__ = [
    "BurstFailure",
    "FaultScenario",
    "FaultScheduler",
    "FaultSpec",
    "HinjInterface",
    "InjectionRecord",
    "ModeTransition",
    "TrafficFailure",
    "TrafficFaultKind",
    "TrafficFaultSpec",
    "burst_failures",
    "default_traffic_failures",
    "scenario_from_pairs",
    "spec_for",
]
