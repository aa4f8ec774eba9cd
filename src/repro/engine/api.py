"""The campaign request API: one declarative matrix, one execution path.

Historically a campaign matrix could only be described as CLI flags
(``python -m repro.engine --firmware ... --strategy ...``) or by
hand-building :class:`~repro.engine.grid.GridCell` lists.  This module
redesigns that surface around a single declarative value:

* :class:`CampaignRequest` -- a plain dataclass naming the matrix
  (firmwares x workloads x strategies x budgets), the fleet, the fault
  families, and the execution fabric (backend spec, shared cache,
  worker count).
* :func:`build_cells` -- the one request -> grid-cell expansion.  The
  CLI turns its flags into a request
  (:func:`repro.engine.cli.request_from_args`) and expands that, so a
  request produces byte-identical cell ids and fingerprints to the same
  matrix typed as flags.
* :func:`run_campaign` -- the in-process path: expand, shard, stream.

Every record a campaign produces is the JSONL schema the grid CLI
streams (``--stream``/``--resume``), so resuming, validating
(``repro.obs report --validate``) and summarising work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import RunConfiguration, VehicleSpec
from repro.core.strategies import (
    AvisStrategy,
    BayesianFaultInjection,
    BreadthFirstSearch,
    DepthFirstSearch,
    RandomInjection,
    StratifiedBFI,
)
from repro.engine.backends import parse_backend_spec
from repro.engine.grid import (
    CampaignGrid,
    GridCell,
    GridOutcome,
    load_completed_cells,
)
from repro.firmware.ardupilot import ArduPilotFirmware
from repro.firmware.px4 import Px4Firmware
from repro.sim.vehicle import IRIS_QUADCOPTER, SOLO_QUADCOPTER
from repro.workloads.builtin import (
    AutoWorkload,
    PositionHoldBoxWorkload,
    WaypointFenceWorkload,
)
from repro.workloads.fleet import (
    ConvoyFollowWorkload,
    CrossingPathsWorkload,
    MultiPadTakeoffLandWorkload,
)

FIRMWARES = {"ardupilot": ArduPilotFirmware, "px4": Px4Firmware}

AIRFRAMES = {"iris": IRIS_QUADCOPTER, "solo": SOLO_QUADCOPTER}

#: Workloads that need a fleet, mapped to the minimum fleet size each
#: implies (taken from the workload classes so the API cannot drift).
FLEET_WORKLOADS = {
    "convoy": ConvoyFollowWorkload.fleet_size,
    "crossing": CrossingPathsWorkload.fleet_size,
    # Multi-pad scales to whatever fleet_size asks for; two vehicles is
    # the smallest fleet its constructor accepts.
    "multi-pad": 2,
}

#: Fleet workloads whose choreography flies a fixed number of vehicles;
#: any other fleet_size would provision vehicles that never fly.
FIXED_FLEET_WORKLOADS = {
    "convoy": ConvoyFollowWorkload.fleet_size,
    "crossing": CrossingPathsWorkload.fleet_size,
}

STRATEGIES: Dict[str, Callable[[], object]] = {
    "avis": AvisStrategy,
    "stratified-bfi": StratifiedBFI,
    "bfi": BayesianFaultInjection,
    "random": RandomInjection,
    "depth-first": DepthFirstSearch,
    "breadth-first": BreadthFirstSearch,
}

#: Strategies that draw from ``session.injectable_failures`` and can
#: therefore explore the coordination fault space.  The BFI family
#: scores candidates through a sensor-typed model and the exhaustive
#: enumerators eagerly materialise every failure subset, so a
#: traffic-faults grid restricted to these strategies is the honest
#: option: a cell tagged ``+traffic`` really injects them.
TRAFFIC_STRATEGIES = frozenset({"avis", "random"})

#: Strategies that can sweep intermittent (recovering) fault windows
#: next to the latched faults; burst durations are rejected for any
#: other strategy so a cell tagged ``+burst`` really explores bursts.
BURST_STRATEGIES = frozenset({"avis", "stratified-bfi", "bfi"})

WORKLOADS = ("auto", "waypoint", "poshold", "convoy", "crossing", "multi-pad")

#: Accepted ``--stepper`` spellings; owned by the run configuration.
STEPPERS = RunConfiguration.STEPPERS


def parse_vehicle_spec(text: str) -> VehicleSpec:
    """Parse one vehicle spec: ``firmware=px4,airframe=solo``."""
    kwargs = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"--vehicle: expected key=value pairs, got '{item}'"
            )
        key, value = (part.strip() for part in item.split("=", 1))
        if key == "firmware":
            if value not in FIRMWARES:
                raise ValueError(
                    f"--vehicle: unknown firmware '{value}' "
                    f"(choose from {', '.join(sorted(FIRMWARES))})"
                )
            kwargs["firmware_class"] = FIRMWARES[value]
        elif key == "airframe":
            if value not in AIRFRAMES:
                raise ValueError(
                    f"--vehicle: unknown airframe '{value}' "
                    f"(choose from {', '.join(sorted(AIRFRAMES))})"
                )
            kwargs["airframe"] = AIRFRAMES[value]
        else:
            raise ValueError(
                f"--vehicle: unknown key '{key}' (use firmware/airframe)"
            )
    return VehicleSpec(**kwargs)


@dataclass
class CampaignRequest:
    """A declarative campaign matrix plus its execution fabric.

    The matrix axes (``firmwares x workloads x strategies x budgets``)
    and the per-cell knobs mirror the grid CLI flags one-to-one; the
    defaults are the CLI defaults, so ``CampaignRequest()`` is exactly
    ``python -m repro.engine`` with no flags.  ``backend``, ``cache``
    and ``workers`` describe *where* the work runs and never enter cell
    fingerprints -- the same request is bit-identical on every fabric.
    """

    firmwares: Tuple[str, ...] = ("ardupilot",)
    workloads: Tuple[str, ...] = ("waypoint",)
    strategies: Tuple[str, ...] = ("avis", "stratified-bfi", "bfi", "random")
    budgets: Tuple[float, ...] = (30.0,)
    fleet_size: int = 1
    #: Per-vehicle fleet specs, one string per fleet member in vehicle
    #: order (``"firmware=px4,airframe=solo"``); parsed by
    #: :func:`build_cells`.
    vehicles: Tuple[str, ...] = ()
    traffic_faults: bool = False
    separation_aware: bool = False
    burst_durations: Tuple[float, ...] = ()
    per_dequeue: Optional[int] = None
    stepper: str = "reference"
    profiling_runs: int = 2
    altitude: float = 15.0
    box_side: float = 15.0
    #: Execution backend spec for every cell's campaign engine:
    #: ``"serial"``, ``"pool[:N]"`` or ``"remote:host:port[,...]"`` (see
    #: :data:`repro.engine.backends.BACKEND_SPEC_HELP`).
    backend: str = "serial"
    #: Shared result cache: a directory path (local, or on a mount every
    #: host sees).  None runs each cell on its private in-memory cache.
    cache: Optional[str] = None
    #: Grid shard processes (None: CPU count, capped at 4).
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        # Tolerate lists everywhere a tuple is due.
        for name in (
            "firmwares", "workloads", "strategies", "budgets", "vehicles",
            "burst_durations",
        ):
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _workload_factory(name: str, altitude: float, box_side: float, fleet_size: int):
    if name == "auto":
        return lambda: AutoWorkload(altitude=altitude)
    if name == "waypoint":
        return lambda: WaypointFenceWorkload(altitude=altitude, box_side=box_side)
    if name == "poshold":
        return lambda: PositionHoldBoxWorkload(altitude=altitude, box_side=box_side)
    if name == "convoy":
        return lambda: ConvoyFollowWorkload()
    if name == "crossing":
        return lambda: CrossingPathsWorkload()
    if name == "multi-pad":
        return lambda: MultiPadTakeoffLandWorkload(fleet_size=max(fleet_size, 2))
    raise ValueError(f"unknown workload '{name}'")


def _strategy_factory(strategy_name: str, request: CampaignRequest):
    """The per-cell strategy factory, honouring the SABRE/burst knobs."""
    bursts = request.burst_durations
    if strategy_name == "avis" and (
        request.per_dequeue is not None
        or request.traffic_faults
        or request.separation_aware
        or bursts
    ):
        kwargs = dict(
            include_traffic_faults=request.traffic_faults,
            separation_aware=request.separation_aware,
            burst_durations=bursts,
        )
        if request.per_dequeue is not None:
            kwargs["max_scenarios_per_dequeue"] = (
                None if request.per_dequeue == 0 else request.per_dequeue
            )
        return lambda: AvisStrategy(**kwargs)
    if strategy_name == "stratified-bfi" and bursts:
        return lambda: StratifiedBFI(burst_durations=bursts)
    if strategy_name == "bfi" and bursts:
        return lambda: BayesianFaultInjection(burst_durations=bursts)
    if strategy_name not in STRATEGIES:
        raise ValueError(
            f"unknown strategy '{strategy_name}' "
            f"(choose from {', '.join(sorted(STRATEGIES))})"
        )
    return STRATEGIES[strategy_name]


def _strategy_id(strategy_name: str, request: CampaignRequest) -> str:
    """The cell-id fragment for a strategy; default knobs keep the
    historical ids so existing stream files still resume."""
    bursts = request.burst_durations
    burst_fragment = (
        "+burst" + ",".join(f"{duration:g}" for duration in bursts)
        if bursts and strategy_name in BURST_STRATEGIES
        else ""
    )
    if strategy_name != "avis":
        return strategy_name + burst_fragment
    fragment = "avis"
    if request.per_dequeue is not None:
        fragment += f"@pd{request.per_dequeue}"
    if request.separation_aware:
        fragment += "+sep"
    return fragment + burst_fragment


def _vehicle_fleet(request: CampaignRequest) -> Optional[Tuple[VehicleSpec, ...]]:
    """The per-vehicle fleet requested via ``vehicles``, if any."""
    if not request.vehicles:
        return None
    specs = tuple(parse_vehicle_spec(text) for text in request.vehicles)
    if len(specs) < 2:
        raise ValueError("--vehicle needs at least two specs (one per fleet member)")
    return specs


def build_cells(request: CampaignRequest) -> List[GridCell]:
    """Expand a request into its grid cells, validating every axis.

    This is the single matrix expansion in the codebase: the grid CLI,
    the worker CLI and :func:`run_campaign` all call it, so a given
    request yields identical cell ids and fingerprints no matter how it
    was described.  (Error messages use
    the CLI flag spellings -- the request fields map one-to-one.)
    """
    if request.stepper not in STEPPERS:
        raise ValueError(
            f"unknown stepper '{request.stepper}' "
            f"(choose from {', '.join(STEPPERS)})"
        )
    # Fabric specs never enter a cell fingerprint, but a bad one must
    # fail here -- not at the first cell of a running grid.
    try:
        parse_backend_spec(request.backend)
    except ValueError as error:
        raise ValueError(f"--backend: {error}") from None
    if request.cache is not None and request.cache.startswith("remote:"):
        # Without this check the spec would quietly become a local
        # directory named "remote:host:port".
        raise ValueError(
            f"--cache: '{request.cache}' is not a cache directory; share "
            "results by pointing every campaign at one directory "
            "(local, or on a shared mount)"
        )
    for firmware_name in request.firmwares:
        if firmware_name not in FIRMWARES:
            raise ValueError(
                f"unknown firmware '{firmware_name}' "
                f"(choose from {', '.join(sorted(FIRMWARES))})"
            )
    for workload_name in request.workloads:
        if workload_name not in WORKLOADS:
            raise ValueError(
                f"unknown workload '{workload_name}' "
                f"(choose from {', '.join(WORKLOADS)})"
            )
    vehicles = _vehicle_fleet(request)
    fleet_size = request.fleet_size
    if vehicles is not None:
        if not any(workload in FLEET_WORKLOADS for workload in request.workloads):
            raise ValueError(
                "--vehicle applies only to fleet workloads "
                f"({', '.join(sorted(FLEET_WORKLOADS))}); none requested"
            )
        if request.fleet_size not in (1, len(vehicles)):
            raise ValueError(
                f"--fleet-size {request.fleet_size} disagrees with "
                f"{len(vehicles)} --vehicle spec(s)"
            )
        fleet_size = len(vehicles)
    elif request.fleet_size != 1 and not any(
        workload in FLEET_WORKLOADS for workload in request.workloads
    ):
        raise ValueError(
            "--fleet-size applies only to fleet workloads "
            f"({', '.join(sorted(FLEET_WORKLOADS))}); none requested"
        )
    if request.traffic_faults and fleet_size < 2 and vehicles is None:
        raise ValueError(
            "--traffic-faults needs a fleet (use --fleet-size or --vehicle)"
        )
    if request.traffic_faults:
        unsupported = sorted(set(request.strategies) - TRAFFIC_STRATEGIES)
        if unsupported:
            raise ValueError(
                "--traffic-faults applies only to strategies that explore "
                f"the coordination fault space "
                f"({', '.join(sorted(TRAFFIC_STRATEGIES))}); "
                f"got: {', '.join(unsupported)}"
            )
    if request.burst_durations:
        from repro.hinj.faults import validate_burst_durations

        try:
            validate_burst_durations(request.burst_durations)
        except ValueError:
            raise ValueError("--burst-duration values must be positive seconds")
        unsupported = sorted(set(request.strategies) - BURST_STRATEGIES)
        if unsupported:
            raise ValueError(
                "--burst-duration applies only to strategies that sweep "
                f"recovery windows ({', '.join(sorted(BURST_STRATEGIES))}); "
                f"got: {', '.join(unsupported)}"
            )
    if request.per_dequeue is not None:
        if request.per_dequeue < 0:
            raise ValueError("--per-dequeue must be >= 0 (0 disables the bound)")
        if "avis" not in request.strategies:
            raise ValueError("--per-dequeue applies only to the 'avis' strategy")
    if request.separation_aware and "avis" not in request.strategies:
        raise ValueError("--separation-aware applies only to the 'avis' strategy")
    if request.profiling_runs < 1:
        # Avis always profiles at least once; accepting 0 or less would
        # fly that one profile under a fingerprint claiming otherwise.
        raise ValueError("--profiling-runs must be >= 1")
    cells: List[GridCell] = []
    cell_ids = set()
    for firmware_index, firmware_name in enumerate(request.firmwares):
        for workload_name in request.workloads:
            required_fleet = FLEET_WORKLOADS.get(workload_name, 1)
            if required_fleet > 1 and fleet_size < required_fleet:
                raise ValueError(
                    f"workload '{workload_name}' needs --fleet-size >= {required_fleet}"
                )
            if workload_name in FIXED_FLEET_WORKLOADS and (
                fleet_size != FIXED_FLEET_WORKLOADS[workload_name]
            ):
                # Extra vehicles would be provisioned and integrated every
                # step but never flown -- reject rather than burn budget
                # on a campaign whose cell id would overstate the fleet.
                raise ValueError(
                    f"workload '{workload_name}' flies exactly "
                    f"{FIXED_FLEET_WORKLOADS[workload_name]} vehicles; "
                    f"run it with --fleet-size {FIXED_FLEET_WORKLOADS[workload_name]}"
                )
            # Classic workloads in a mixed grid always fly solo; only the
            # fleet workloads consume fleet_size / vehicles.
            is_fleet_cell = required_fleet > 1
            cell_firmware_id = firmware_name
            if is_fleet_cell and vehicles is not None:
                # A per-vehicle fleet fully determines the cell's firmware
                # mix; emit it once (with the first firmware) rather than
                # once per firmware.
                if firmware_index:
                    continue
                cell_firmware_id = "+".join(
                    spec.firmware_name for spec in vehicles
                )
                config = RunConfiguration(
                    workload_factory=_workload_factory(
                        workload_name, request.altitude, request.box_side,
                        fleet_size,
                    ),
                    vehicles=vehicles,
                    stepper=request.stepper,
                )
            else:
                config = RunConfiguration(
                    firmware_class=FIRMWARES[firmware_name],
                    workload_factory=_workload_factory(
                        workload_name, request.altitude, request.box_side,
                        fleet_size,
                    ),
                    fleet_size=fleet_size if is_fleet_cell else 1,
                    stepper=request.stepper,
                )
            workload_id = workload_name
            if is_fleet_cell:
                workload_id = f"{workload_name}@fleet{fleet_size}"
                if request.traffic_faults:
                    workload_id += "+traffic"
            if request.stepper != "reference":
                # Non-default spellings mark the cell id so streams and
                # resumes distinguish them at a glance.  'soa' keeps its
                # '+soa' cell ids (old streams still resume) while its
                # configs, and so its cache keys, are 'reference'.
                workload_id += f"+{request.stepper}"
            for strategy_name in request.strategies:
                for budget in request.budgets:
                    cell_id = (
                        f"{cell_firmware_id}/{workload_id}/"
                        f"{_strategy_id(strategy_name, request)}/{budget:g}"
                    )
                    if cell_id in cell_ids:
                        # Ids render budgets with :g, so 1 and 1.0000001
                        # collide too; two campaigns cannot share one.
                        raise ValueError(
                            f"cell '{cell_id}' appears twice: a matrix "
                            "axis repeats a value"
                        )
                    cell_ids.add(cell_id)
                    cells.append(
                        GridCell(
                            cell_id=cell_id,
                            config=config,
                            strategy_factory=_strategy_factory(
                                strategy_name, request
                            ),
                            budget_units=budget,
                            profiling_runs=request.profiling_runs,
                            traffic_faults=(
                                request.traffic_faults and is_fleet_cell
                            ),
                            backend_spec=request.backend,
                            cache_spec=request.cache,
                        )
                    )
    return cells


def run_campaign(
    request: CampaignRequest,
    stream_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    on_progress: Optional[Callable[[str, object], None]] = None,
) -> GridOutcome:
    """Run a request in-process: expand, shard, stream, summarise.

    ``stream_path`` appends each finished cell's record as one JSON
    line; ``resume_path`` skips the cells a previous stream recorded
    (the grid decides which records to trust, see
    :func:`~repro.engine.grid.filter_completed`).  The records of every
    cell, resumed or run, are in the outcome's ``cell_summaries``.
    """
    grid = CampaignGrid(build_cells(request), max_workers=request.workers)
    completed = load_completed_cells(resume_path) if resume_path else None
    return grid.run(
        on_progress=on_progress,
        stream_path=stream_path,
        completed=completed,
    )
