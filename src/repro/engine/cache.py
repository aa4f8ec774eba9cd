"""Content-addressed result caching for repeated campaigns.

Every simulation in this reproduction is a pure function of its inputs:
the run configuration (firmware flavour and parameters, workload,
airframe, time-step, bug set) plus the fault scenario and the sensor
noise seed fully determine the recorded :class:`~repro.core.runner.RunResult`.
That makes results content-addressable: the cache key is a SHA-256 over
a canonical rendering of ``(firmware, workload, scenario, noise_seed,
params)``, and any campaign that would re-simulate an already-explored
scenario -- ``Avis.compare()`` running several strategies over the same
fault space, a re-run of the benchmark matrix, a campaign-grid shard --
can reuse the stored result instead.

Budget semantics: a cache hit still *counts* as a simulation (the
session charges the simulation cost and the result appears in the
campaign), so warm- and cold-cache campaigns report identical Table
III/IV/V numbers; the cache only removes wall-clock work.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import pickle
import tempfile
from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.core.config import RunConfiguration
from repro.core.runner import RunResult
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.obs import runtime as obs_runtime
from repro.sim.environment import default_environment

#: Version of the cached-result schema.  Bumped whenever the recorded
#: :class:`RunResult` payload or the fingerprint grammar changes shape
#: (the heterogeneous-fleet refactor added per-vehicle specs and
#: traffic-fault terms; v3 added the non-default environment term), so
#: cache directories written by an older engine self-invalidate instead
#: of serving structurally stale hits.
CACHE_SCHEMA_VERSION = 3


def config_fingerprint(config: RunConfiguration, workload_name: str) -> str:
    """A canonical string identifying everything a run's outcome depends on.

    ``workload_name`` is passed separately because the configuration only
    holds an opaque factory; the workload's display name (plus its
    parameters as rendered by the factory's product) is the stable part.
    """
    parts = [
        f"firmware={config.firmware_name}",
        f"workload={workload_name}",
        f"airframe={config.airframe!r}",
        f"params={config.firmware_params!r}",
        f"dt={config.dt!r}",
        f"max_sim_time_s={config.max_sim_time_s!r}",
        f"sample_interval_steps={config.sample_interval_steps!r}",
        f"noise_seed={config.noise_seed!r}",
        f"reinserted={sorted(config.reinserted_bugs)!r}",
        f"disabled={sorted(config.disabled_bugs)!r}",
        f"stop_on_unsafe={config.stop_on_unsafe!r}",
    ]
    fleet_size = getattr(config, "fleet_size", 1)
    if fleet_size != 1:
        # Only fleet runs render fleet terms: classic (fleet size 1)
        # fingerprints -- and therefore cache keys -- keep the exact
        # pre-fleet key format.  (Pre-upgrade cache *directories* are
        # still purged once by the version-stamp check, which cannot
        # attribute unstamped entries to a bug registry.)
        parts.append(f"fleet_size={fleet_size!r}")
        parts.append(f"fleet_pad_spacing_m={config.fleet_pad_spacing_m!r}")
        # Heterogeneous fleets render one term per vehicle; homogeneous
        # fleets -- scalar aliases or explicit identical specs -- omit
        # them, keeping the exact pre-VehicleSpec key format.
        if getattr(config, "is_heterogeneous", False):
            rendered = ";".join(
                f"v{index}:firmware={spec.firmware_name},"
                f"airframe={spec.airframe!r},params={spec.firmware_params!r}"
                for index, spec in enumerate(config.vehicle_specs)
            )
            parts.append(f"vehicles=[{rendered}]")
        # Traffic-channel timing shapes every beacon a fleet run records;
        # render it only when it deviates from the dataclass defaults so
        # existing fleet keys are unperturbed.
        fields = RunConfiguration.__dataclass_fields__
        defaults = (
            fields["traffic_beacon_interval_s"].default,
            fields["traffic_latency_s"].default,
        )
        interval = getattr(config, "traffic_beacon_interval_s", defaults[0])
        latency = getattr(config, "traffic_latency_s", defaults[1])
        if (interval, latency) != defaults:
            parts.append(f"traffic={interval!r}/{latency!r}")
    # The stepper term appears only for modes that can change what a run
    # records.  "soa" deliberately shares keys with "reference": the two
    # are pinned bit-identical (states, events, traces) by the fast-core
    # suite, so a cache entry is equally valid under either -- and the
    # term's absence keeps every pre-stepper key format unperturbed.
    stepper = getattr(config, "stepper", "reference")
    if stepper not in ("reference", "soa"):
        parts.append(f"stepper={stepper}")
    # The environment shapes every trajectory (wind, obstacles, fences,
    # ground altitude), so a non-default environment must key its own
    # cache entries.  The term is emitted only when the factory deviates
    # from ``default_environment`` so every historical key format is
    # unperturbed; the factory's *product* is rendered (sorted fields)
    # because factories themselves have no stable identity.
    environment_factory = getattr(
        config, "environment_factory", default_environment
    )
    if environment_factory is not default_environment:
        environment = environment_factory()
        rendered = ",".join(
            f"{name}={_canonical(value)}"
            for name, value in sorted(vars(environment).items())
        )
        parts.append(f"environment=[{rendered}]")
    return "|".join(parts)


def _canonical(value) -> str:
    """A deterministic rendering of a workload parameter.

    Scalars and containers render structurally.  Anything else falls
    back to ``repr`` prefixed with its type -- if that repr embeds a
    memory address the key becomes process-local, which degrades the
    cache to misses (safe) rather than risking a false hit.
    """
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in value)) + "}"
    if isinstance(value, dict):
        rendered = sorted(
            f"{_canonical(key)}:{_canonical(item)}" for key, item in value.items()
        )
        return "{" + ",".join(rendered) + "}"
    return f"<{type(value).__qualname__}:{value!r}>"


def workload_fingerprint(config: RunConfiguration) -> str:
    """Identify the configured workload *including its parameters*.

    The configuration only holds an opaque factory, and display names do
    not encode parameters (a 10 m and a 20 m box workload share one), so
    this instantiates a throwaway workload and renders every public
    attribute alongside the name.
    """
    workload = config.workload_factory()
    params = {
        key: _canonical(value)
        for key, value in sorted(vars(workload).items())
        if not key.startswith("_")
    }
    return f"{workload.display_name}{params!r}"


def campaign_fingerprint(config: RunConfiguration, monitor=None) -> str:
    """The workload term of a cache key, including monitor calibration.

    For fleet campaigns the recorded proximity events depend on the
    monitor's calibrated separation threshold (the simulator filters
    conflicts below it at run time), so results simulated under
    different calibrations -- e.g. grid cells with different
    ``profiling_runs`` -- must not share cache entries.  Classic
    campaigns have no threshold and keep the plain workload fingerprint,
    i.e. the exact pre-fleet key format.
    """
    fingerprint = workload_fingerprint(config)
    threshold = getattr(monitor, "separation_threshold_m", None)
    if threshold is not None:
        fingerprint += f"|separation_threshold={threshold!r}"
    return fingerprint


def scenario_fingerprint(scenario: FaultScenario) -> str:
    """A canonical string for a fault scenario (sorted fault tuples).

    Sensor faults render exactly as before; coordination faults render
    through their vehicle-namespaced labels (``traffic:v1:dropout``,
    including the delay parameter for delayed beacons), so traffic-fault
    scenarios can never collide with sensor-fault cache entries.  A
    recovery window renders as a ``~duration`` term -- emitted only for
    intermittent faults, so every latched (default) scenario keeps its
    exact pre-window fingerprint and existing cache directories stay
    valid.
    """
    rendered = []
    for fault in scenario:
        label = (
            fault.sensor_id.label if isinstance(fault, FaultSpec) else fault.label
        )
        term = f"{label}@{fault.start_time!r}"
        if fault.duration_s is not None:
            term += f"~{fault.duration_s!r}"
        rendered.append(term)
    return ";".join(rendered)


def scenario_key(
    config: RunConfiguration, workload_name: str, scenario: FaultScenario
) -> str:
    """The content address of one simulation."""
    payload = config_fingerprint(config, workload_name) + "||" + scenario_fingerprint(
        scenario
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical_repr(value) -> str:
    """``repr`` with set-valued fields rendered sorted.

    A frozenset's ``repr`` follows the interpreter's hash seed, so the
    plain ``repr`` of a descriptor differs between processes.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canonical_repr(item) for item in value)) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{field.name}={_canonical_repr(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    return repr(value)


def bug_registry_stamp() -> str:
    """A version stamp over the shipped firmware bug registries.

    Cached results embed the behaviour of the firmware's bug set: adding,
    removing or editing a bug descriptor changes what a simulation would
    record, so a directory cache written under a different registry is
    stale.  The stamp is a SHA-256 over the canonical rendering of every
    descriptor in both shipped flavours -- any registry edit changes it,
    and :class:`ResultCache` then invalidates the directory's entries.

    The stamp also folds in :data:`CACHE_SCHEMA_VERSION`: schema-shape
    changes (per-vehicle specs, traffic faults) invalidate pre-refactor
    directories even when the bug registries are untouched.  It does not
    depend on ``PYTHONHASHSEED``, so every process agrees on it.
    """
    from repro.firmware.bugs import ardupilot_bug_registry, px4_bug_registry

    parts = [f"schema:{CACHE_SCHEMA_VERSION}"]
    for flavour, registry in (
        ("ardupilot", ardupilot_bug_registry()),
        ("px4", px4_bug_registry()),
    ):
        for descriptor in registry.descriptors:
            parts.append(f"{flavour}:{_canonical_repr(descriptor)}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def adapt_cached_result(result: RunResult, monitor=None) -> RunResult:
    """Prepare a cached result for use in a (possibly different) campaign.

    Returns a shallow copy so campaigns never share mutable state, and
    re-evaluates the invariant monitor when one is supplied -- the
    monitor is calibrated deterministically from the same configuration,
    so this reproduces the verdict a fresh simulation would have had.
    """
    adapted = copy.copy(result)
    if monitor is not None:
        adapted.unsafe_conditions = monitor.evaluate(adapted)
    else:
        adapted.unsafe_conditions = list(result.unsafe_conditions)
    return adapted


@runtime_checkable
class CacheStore(Protocol):
    """The store contract behind the engine's result caching.

    :class:`ResultCache` (in-process, optionally directory-backed) and
    :class:`repro.engine.cache_remote.RemoteCacheStore` (a socket client
    of a network-shared store) both satisfy it, so the campaign engine,
    the exploration session and the orchestrator never care where a
    result is actually held.  Keys are the content addresses produced by
    :func:`scenario_key`; because the bug-registry/schema version stamps
    are folded into every *directory* store, a shared store serves only
    results the current engine could have produced itself.
    """

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or None on a miss."""
        ...

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` (last write wins)."""
        ...

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss (and store-specific) counters."""
        ...


class ResultCache:
    """In-memory (and optionally on-disk) store of simulated run results.

    Parameters
    ----------
    directory:
        When given, every stored result is also pickled to
        ``<directory>/<key>.pkl`` and lookups fall back to disk, so the
        cache survives across processes and across campaign-grid runs.
    max_entries:
        Cross-run GC: cap on the number of ``.pkl`` entries kept in the
        directory.  When a put pushes the directory over the cap, the
        least recently used entries (by file modification time, which
        :meth:`get` refreshes on disk hits) are deleted.  ``None`` (the
        default) keeps the directory unbounded, as before.
    max_bytes:
        Cross-run GC: cap on the total size of the directory's ``.pkl``
        entries, enforced the same way.

    A directory cache is stamped with the firmware bug registry version
    (see :func:`bug_registry_stamp`): opening a directory written under
    a different registry discards its entries, so stale results
    self-invalidate when the bug set changes.
    """

    #: Name of the version-stamp file kept next to the ``.pkl`` entries.
    VERSION_FILENAME = "CACHE_VERSION"

    #: Puts between directory rescans of the GC totals (bounds how far
    #: concurrent writers sharing one directory can exceed the caps).
    RESCAN_INTERVAL = 64

    def __init__(
        self,
        directory: Optional[str] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        self._memory: Dict[str, RunResult] = {}
        self._directory = directory
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._gc_enabled = max_entries is not None or max_bytes is not None
        # Running totals of the directory's .pkl entries, maintained so a
        # put only rescans the directory when a cap is actually crossed.
        # The totals are per-process, so concurrent grid shards sharing a
        # directory could drift past the caps unnoticed; a periodic
        # rescan (every RESCAN_INTERVAL puts) bounds that overshoot.
        self._entry_count = 0
        self._entry_bytes = 0
        self._puts_since_rescan = 0
        self.evictions = 0
        self.invalidated = 0
        self.corrupt = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._sweep_orphan_tmp()
            self._check_version_stamp()
            if self._gc_enabled:
                self._rescan_totals()
                self._enforce_limits()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Version stamping
    # ------------------------------------------------------------------
    def _version_path(self) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, self.VERSION_FILENAME)

    def _check_version_stamp(self) -> None:
        """Discard on-disk entries written under a different bug registry.

        A directory holding entries but no stamp at all is also purged:
        without a stamp there is no way to tell which registry produced
        those results, and serving potentially-stale hits silently is
        worse than re-simulating once.
        """
        stamp = bug_registry_stamp()
        path = self._version_path()
        stored = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = handle.read().strip()
        except OSError:
            stored = None
        if stored != stamp:
            purged = self._purge_entries()
            self.invalidated += purged
            obs = obs_runtime.current()
            if obs is not None and purged:
                obs.metrics.counter("cache.invalidated").inc(purged)
            try:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(stamp + "\n")
            except OSError:
                pass

    def _sweep_orphan_tmp(self) -> None:
        """Delete ``.tmp`` spool files a crashed writer left behind.

        Every put writes to a ``tempfile.mkstemp`` spool and atomically
        renames it over the entry, so a writer that dies mid-write can
        only leak a ``.tmp`` file -- never a torn ``.pkl``.  Sweeping
        them at open keeps a long-lived shared directory from
        accumulating dead spools.  In the unlikely race that this sweep
        removes a *live* writer's spool, that writer's rename fails with
        an OSError that :meth:`put` already tolerates (the entry simply
        stays a miss), so the sweep can never corrupt an entry.
        """
        assert self._directory is not None
        try:
            names = sorted(os.listdir(self._directory))
        except OSError:
            return
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError:
                    pass

    def _purge_entries(self) -> int:
        """Delete every ``.pkl`` entry in the directory; returns the count."""
        purged = 0
        for name in self._entry_names():
            try:
                os.unlink(os.path.join(self._directory, name))
                purged += 1
            except OSError:
                pass
        return purged

    def _entry_names(self) -> List[str]:
        assert self._directory is not None
        try:
            return sorted(
                name
                for name in os.listdir(self._directory)
                if name.endswith(".pkl")
            )
        except OSError:
            return []

    # ------------------------------------------------------------------
    # Cross-run GC
    # ------------------------------------------------------------------
    def _rescan_totals(self) -> None:
        """Re-seed the running entry/byte totals from the directory."""
        count = 0
        total = 0
        for name in self._entry_names():
            try:
                total += os.stat(os.path.join(self._directory, name)).st_size
            except OSError:
                continue
            count += 1
        self._entry_count = count
        self._entry_bytes = total

    def _over_limits(self) -> bool:
        if self._max_entries is not None and self._entry_count > self._max_entries:
            return True
        return self._max_bytes is not None and self._entry_bytes > self._max_bytes

    def _enforce_limits(self) -> None:
        """Evict least-recently-used disk entries beyond the limits.

        The full directory is only walked when the running totals say a
        cap has actually been crossed, so an in-budget put stays O(1).
        """
        if self._directory is None or not self._gc_enabled:
            return
        if not self._over_limits():
            return
        entries = []
        total_bytes = 0
        for name in self._entry_names():
            path = os.path.join(self._directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, name, stat.st_size))
            total_bytes += stat.st_size
        entries.sort()  # oldest first
        over_entries = (
            len(entries) - self._max_entries if self._max_entries is not None else 0
        )
        while entries and (
            over_entries > 0
            or (self._max_bytes is not None and total_bytes > self._max_bytes)
        ):
            _, name, size = entries.pop(0)
            try:
                os.unlink(os.path.join(self._directory, name))
            except OSError:
                continue
            self.evictions += 1
            obs = obs_runtime.current()
            if obs is not None:
                obs.metrics.counter("cache.evictions").inc()
            total_bytes -= size
            over_entries -= 1
            self._memory.pop(name[: -len(".pkl")], None)
        self._entry_count = len(entries)
        self._entry_bytes = total_bytes

    # ------------------------------------------------------------------
    # Key construction
    # ------------------------------------------------------------------
    key_for = staticmethod(scenario_key)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def keys(self) -> List[str]:
        """Every key with an in-memory entry, sorted.

        The determinism tests compare a batched campaign's cache keys
        against a sequential one's -- content-addressed keys make that a
        direct statement of "the same (config, scenario) pairs ran".
        """
        return sorted(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self._directory is not None and os.path.exists(self._path(key))
        )

    def _path(self, key: str) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, f"{key}.pkl")

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or None on a miss."""
        result = self._memory.get(key)
        if result is None and self._directory is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path, "rb") as handle:
                        result = pickle.load(handle)
                except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                    # A torn or stale entry (e.g. written by a crashed
                    # non-atomic writer from an older engine).  Unlink it
                    # so ``key in cache`` stops reporting a phantom entry
                    # and the next put rewrites it cleanly.
                    result = None
                    self.corrupt += 1
                    obs = obs_runtime.current()
                    if obs is not None:
                        obs.metrics.counter("cache.corrupt").inc()
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                if result is not None:
                    self._memory[key] = result
        obs = obs_runtime.current()
        if result is None:
            self.misses += 1
            if obs is not None:
                obs.metrics.counter("cache.misses").inc()
            return None
        if self._directory is not None and self._gc_enabled:
            try:
                # Refresh the entry's mtime (memory hits included) so the
                # cross-run GC evicts least-recently-used entries first.
                os.utime(self._path(key))
            except OSError:
                pass
        self.hits += 1
        if obs is not None:
            obs.metrics.counter("cache.hits").inc()
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` (last write wins)."""
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.counter("cache.puts").inc()
        self._memory[key] = result
        if self._directory is not None:
            path = self._path(key)
            old_size = None
            if self._gc_enabled:
                try:
                    old_size = os.stat(path).st_size
                except OSError:
                    old_size = None
            # Write-then-rename so concurrent grid shards never observe a
            # partially written pickle.
            fd, tmp_path = tempfile.mkstemp(dir=self._directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(result, handle)
                os.replace(tmp_path, path)
            except OSError:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            else:
                if self._gc_enabled:
                    try:
                        new_size = os.stat(path).st_size
                    except OSError:
                        new_size = 0
                    if old_size is None:
                        self._entry_count += 1
                        self._entry_bytes += new_size
                    else:
                        self._entry_bytes += new_size - old_size
                    self._puts_since_rescan += 1
                    if self._puts_since_rescan >= self.RESCAN_INTERVAL:
                        self._puts_since_rescan = 0
                        self._rescan_totals()
                    self._enforce_limits()

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss/GC counters plus the in-memory entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memory),
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "corrupt": self.corrupt,
        }
