"""repro.lint: AST-based determinism & fork-safety analysis.

The repo's whole value proposition is that campaigns are deterministic
and replayable -- serial == pool bit-for-bit, cache
fingerprints cover every behaviour-affecting field, observability inert
by default.  This package enforces the statically checkable part of
those invariants, so the bug classes are rejected at lint time instead
of bisected out of a flaky nightly.  Hash-seed independence is a
runtime property and has a runtime check instead: a tier-1 test
computes every cache key and fingerprint under two ``PYTHONHASHSEED``
values and compares them.

Rule families
-------------

``DET`` -- determinism sources.  No wall clocks, entropy, or unseeded
    global ``random`` inside the simulation core.
``FPR`` -- fingerprint coverage.  Every field of the registered
    behaviour-bearing dataclasses (``RunConfiguration``, ``FaultSpec``,
    ``TrafficFaultSpec``, ``VehicleSpec``) must be consumed by its
    fingerprint routine or exempted, with justification, in
    :mod:`repro.lint.fingerprint_registry`.
``OBS`` -- observability hygiene.  Instrumentation must route through
    the gated runtime (``obs_runtime.current()`` guarded by a None
    check), and the simulation core imports only the runtime module
    of ``repro.obs`` eagerly.
``FAB`` -- fork safety.  Modules imported by forked pool and grid
    workers do not rebind module-global state.
``LNT`` -- analyzer meta rules (waivers without justification, files
    that fail to parse).

Findings can be waived inline::

    value = risky()  # repro-lint: disable=DET001 -- measured, not hashed

The CLI lives at ``python -m repro.lint`` (also installed as
``repro-lint``).  The package is zero-dependency and pure-stdlib.
"""

from __future__ import annotations

from repro.lint.driver import LintResult, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import all_rules

__all__ = ["Finding", "LintResult", "all_rules", "run_lint"]
