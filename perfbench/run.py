"""Campaign benchmark for the Avis reproduction.

Run from the root of a checkout (the program is imported from its
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload sabre-waypoint --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, one table

``--seconds`` is the wall-clock budget of the whole run: set-up probes,
the warm cache fill and the timed repetitions.  Another repetition
starts only while it is expected to end within the budget, except that
every run makes at least ``MIN_REPS`` (or, traced, ``MIN_TRACED_REPS``).
``--trace 0`` repeats the timed workload and reports the end-to-end
metrics (medians over the repetitions).  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
ledger: calls, self time and time per call of every layer, plus ratios.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, for people.

Correctness: each repetition's ordered (scenario, unsafe, triggered bugs)
list and budget totals are hashed; the hash must match
``perfbench/oracle.json`` for seeds recorded there, and must be equal
across every repetition of the run (traced ones included) for any seed.
A mismatch counts the repetition's results as failed.
``--record-oracle`` stores the current hash for the seed instead.

Times: the machine this was built on is shared, and the speed one
Python thread gets from it drifts by tens of percent within seconds.
Untimed calibration samples (see ``tracing.Speedometer``) run 50 times a
second during untraced repetitions and set-up probes; every end-to-end
time is the interval's wall-clock without the samples, scaled to the
speed at which the calibration loop takes ``CALIBRATION_REFERENCE_S``.
The raw wall-clock of each repetition is printed next to it.  Traced
repetitions take no samples and report raw seconds.  ``sim_p50_s``
times the fault-free profiling flights, the simulations every workload
flies alike at every seed: a campaign simulation ends when its fault
makes the flight unsafe, at a seed-dependent time.  No tail of that
time is reported: a repetition flies two fault-free simulations, too
few for any percentile above the median to have ten samples beyond it.

``peak_rss_mb`` is the high-water mark of the measuring process.  Each
repetition is reduced to an :class:`Outcome` as soon as it ends and the
warm cache is filled in a forked child, so the mark covers one
repetition's working set whatever the number of repetitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

#: The start of the run; ``--seconds`` counts from here.
RUN_STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
ORACLE_PATH = os.path.join(HERE, "oracle.json")

WORKLOAD_NAMES = ("sabre-waypoint", "convoy-adaptive", "table3-grid", "table3-grid-warm")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Repetitions every run makes, whatever ``--seconds`` says.
MIN_REPS = 2
MIN_TRACED_REPS = 2

END_TO_END_UNITS = {
    "campaign_s": "s",
    "s_per_sim": "s",
    "first_unsafe_s": "s",
    "sim_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"perfbench: {SRC}/repro not found; run from a checkout of the repository"
        )
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> None:
    """Child side: time importing ``repro`` and building the workload."""
    from tracing import Speedometer

    speedometer = Speedometer()
    speedometer.start()
    start = time.perf_counter()
    use_source_tree()
    from campaigns import WORKLOADS

    WORKLOADS[workload].build(seed)
    end = time.perf_counter()
    speedometer.stop()
    print(repr(speedometer.measure(start, end)[1]))


def measure_setup(workload: str, seed: int) -> list:
    """Seconds of set-up in fresh interpreters, one per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def fill_in_child(workload, plan, workdir: str) -> None:
    """Fill the warm cache under ``workdir`` in a forked child, so the
    fill's memory stays out of ``peak_rss_mb``.

    A fork rather than a fresh interpreter: the cache directory's
    bug-registry stamp varies with the interpreter's hash seed, so a
    directory written by another interpreter would be invalidated.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            workload.fill(plan, workdir)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"perfbench: filling the warm cache failed (status {status})")


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def verdict(rep) -> dict:
    """The search outcome of one repetition and its digest."""
    from repro.engine.cache import scenario_fingerprint

    digest = hashlib.sha256()
    first = None
    bugs = set()
    for index, result in enumerate(rep.results, start=1):
        unsafe = result.found_unsafe_condition
        if unsafe:
            bugs.update(result.triggered_bugs)
            if first is None:
                first = index
        line = [scenario_fingerprint(result.scenario), unsafe, sorted(result.triggered_bugs)]
        digest.update((json.dumps(line) + "\n").encode("utf-8"))
    budget = round(sum(campaign.budget_spent for campaign in rep.campaigns), 6)
    digest.update(json.dumps([rep.simulations, budget]).encode("utf-8"))
    return {
        "digest": digest.hexdigest()[:24],
        "simulations": rep.simulations,
        "budget_spent": budget,
        "unsafe_scenarios": sum(c.unsafe_scenario_count for c in rep.campaigns),
        "sims_to_first_unsafe": first,
        "bugs_found": sorted(bugs),
    }


def load_oracle() -> dict:
    with open(ORACLE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_oracle(workload: str, seed: int, entry: dict) -> None:
    oracle = load_oracle() if os.path.exists(ORACLE_PATH) else {}
    oracle.setdefault(workload, {})[str(seed)] = entry
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(oracle, handle, indent=1, sort_keys=True)
        handle.write("\n")


class Ledger:
    """Attempted/failed simulation counts and the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def check_verdicts(outcomes, expected, ledger: Ledger) -> str:
    """Count repetitions whose verdicts disagree with the oracle entry
    (or, without one, with the first repetition) as failed."""
    reference = expected["digest"] if expected else outcomes[0].verdict["digest"]
    for index, outcome in enumerate(outcomes):
        found = outcome.verdict["digest"]
        if found != reference:
            ledger.fail(outcome.results,
                        f"repetition {index}: verdict digest {found} != {reference}")
    if not expected:
        return f"no oracle entry for this seed; run-to-run equal: {ledger.failed == 0}"
    return f"oracle match: {all(o.verdict['digest'] == reference for o in outcomes)}"


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What the report needs from one repetition, without its results."""

    #: ``time.perf_counter()`` when the repetition began.
    started: float
    #: Wall-clock without calibration samples, and at reference speed.
    raw_seconds: float
    seconds_ref: float
    #: Fault-free simulations' seconds, and the first unsafe result's
    #: time from the start (None when nothing unsafe was found).
    sim_seconds: List[float]
    first_unsafe_s: Optional[float]
    verdict: dict
    simulations: int
    results: int
    cache_hits: int
    cache_lookups: int
    fleet_size: int
    #: SABRE's prune report, summed over its searches.
    pruned: int
    searched: int


def timed_rep(workload, plan, workdir, probe, speedometer, ledger: Ledger):
    """One repetition with the probe reset, as an :class:`Outcome`; None
    when it raised.

    With a ``speedometer``, ``seconds_ref``, ``sim_seconds`` and
    ``first_unsafe_s`` are scaled to the reference speed; ``raw_seconds``
    is always the wall-clock without calibration samples.
    """
    probe.reset()
    raised_before = probe.raised
    if speedometer is not None:
        speedometer.start()
    try:
        rep = workload.run(plan, workdir)
    except Exception as error:  # the repetition fails as a whole; say why
        ledger.attempted += max(1, probe.executed)
        ledger.fail(max(1, probe.raised - raised_before), f"{type(error).__name__}: {error}")
        return None
    finally:
        if speedometer is not None:
            speedometer.stop()

    def measure(start, end):
        if speedometer is None:
            return end - start, end - start
        return speedometer.measure(start, end)

    raw_seconds, seconds_ref = measure(rep.started, rep.started + rep.seconds)
    first_unsafe_s = None
    if probe.first_unsafe_at is not None:
        first_unsafe_s = measure(rep.started, probe.first_unsafe_at)[1]
    reports = [strategy.last_search.report for strategy in rep.avis_strategies]
    results = len(rep.results)
    ledger.attempted += rep.profiling_runs + results
    outcome = Outcome(
        started=rep.started,
        raw_seconds=raw_seconds,
        seconds_ref=seconds_ref,
        sim_seconds=[measure(start, end)[1] for start, end in probe.golden_sims],
        first_unsafe_s=first_unsafe_s,
        verdict=verdict(rep),
        simulations=rep.simulations,
        results=results,
        cache_hits=rep.cache_hits,
        cache_lookups=rep.cache_lookups,
        fleet_size=rep.fleet_size,
        pruned=sum(report.pruned for report in reports),
        searched=sum(report.simulations for report in reports),
    )
    # Free this repetition's results before the next one runs.
    del rep, reports
    gc.collect()
    return outcome


def time_left(last: Outcome, seconds: float) -> bool:
    """True while another repetition as long as ``last`` would end
    within ``seconds`` of the start of the run."""
    return time.perf_counter() - RUN_STARTED + last.raw_seconds < seconds


def end_to_end(reps, setup_samples, lines) -> dict:
    sims = [s for rep in reps for s in rep.sim_seconds]
    found = reps[0].verdict
    values = {
        "campaign_s": statistics.median([rep.seconds_ref for rep in reps]),
        "s_per_sim": statistics.median([rep.seconds_ref / rep.simulations for rep in reps]),
        # A seed whose campaign finds nothing unsafe is censored at the
        # campaign's end (the repetitions of one seed agree on this).
        "first_unsafe_s": statistics.median(
            [rep.seconds_ref if rep.first_unsafe_s is None else rep.first_unsafe_s for rep in reps]
        ),
        "sim_p50_s": statistics.median(sims),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines.append(
        "repetitions (wall-clock s -> reference-speed s): "
        + ", ".join(f"{rep.raw_seconds:.3f} -> {rep.seconds_ref:.3f}" for rep in reps)
    )
    lines.append(f"sim_p50_s over n={len(sims)} fault-free simulations")
    lines.append(
        f"search: unsafe_scenarios {found['unsafe_scenarios']}, sims_to_first_unsafe "
        f"{found['sims_to_first_unsafe']}, bugs_found {found['bugs_found']}"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(untraced, traced, tracer_totals, lines) -> dict:
    from tracing import LAYER_NAMES

    metrics = {}
    found = traced[0].verdict
    first = tracer_totals[0]
    traced_s = statistics.median([rep.raw_seconds for rep in traced])
    self_sum = [
        sum(seconds for _, seconds in totals["layers"].values()) for totals in tracer_totals
    ]
    for name in LAYER_NAMES:
        calls = first["layers"][name][0]
        self_s = statistics.median([totals["layers"][name][1] for totals in tracer_totals])
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    profile_s = statistics.median([totals["profile_s"] for totals in tracer_totals])
    unattributed = statistics.median([rep.raw_seconds - s for rep, s in zip(traced, self_sum)])
    lookups = traced[0].cache_lookups
    # Sensor-suite reads per vehicle per simulated tick.
    reads = first["layers"]["sensors.read_all"][0]
    ticks = first["layers"]["sim.step_fleet"][0] * traced[0].fleet_size
    pruned, searched = traced[0].pruned, traced[0].searched
    metrics.update(
        {
            "core.avis.profile_s": (profile_s, "s"),
            "core.avis.profile_share": (profile_s / traced_s, "ratio"),
            "unattributed_s": (unattributed, "s"),
            "unattributed_share": (unattributed / traced_s, "ratio"),
            "tracing_overhead": (traced_s / statistics.median([rep.raw_seconds for rep in untraced]), "ratio"),
            "engine.cache.hit_ratio": (
                traced[0].cache_hits / lookups if lookups else 0.0, "ratio"
            ),
            "core.sabre.prune_ratio": (
                pruned / (pruned + searched) if pruned + searched else 0.0, "ratio"
            ),
            "sim.reads_per_tick": (reads / ticks if ticks else 0.0, "ratio"),
            "core.avis.unsafe_scenarios": (found["unsafe_scenarios"], "count"),
            "core.avis.sims_to_first_unsafe": (found["sims_to_first_unsafe"] or 0, "count"),
            "core.avis.bugs_found": (len(found["bugs_found"]), "count"),
        }
    )
    lines.append(
        f"repetitions: {len(untraced)} untraced, {len(traced)} traced; "
        f"traced campaign_s {traced_s:.4f} s"
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_trace(tracer, workload: str, seed: int, ledger: Ledger, lines) -> None:
    """Write the Chrome trace next to the run and schema-check it."""
    from repro.obs.trace import validate_chrome_trace

    document = tracer.chrome_trace()
    problems = validate_chrome_trace(document)
    if problems:
        ledger.fail(0, f"invalid Chrome trace: {problems[:3]}")
    directory = os.path.join(WORKDIR, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    lines.append(
        f"chrome trace: {os.path.relpath(path, ROOT)} "
        f"({len(document['traceEvents'])} spans, valid: {not problems})"
    )


def measure(args, lines) -> dict:
    """Run one workload; returns the result object printed last."""
    from campaigns import WORKLOADS
    from tracing import LayerTracer, Patches, Probe, Speedometer

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    patches = Patches()
    try:
        plan = workload.build(args.seed)
        if workload.warm:
            fill_in_child(workload, plan, workdir)
            workload.adopt(plan, workdir)
        probe = Probe()
        probe.install(patches)
        tracer = LayerTracer() if args.trace else None
        speedometer = Speedometer()
        untraced, traced, tracer_totals = [], [], []
        while True:
            # Traced runs go U T T U T U T ...: the untraced repetitions
            # give the baseline of tracing_overhead.
            trace_this = bool(args.trace) and 1 <= len(untraced) >= len(traced)
            if trace_this:
                tracer.reset()
                layer_patches = Patches()
                tracer.install(layer_patches)
                # No speedometer: its samples would land in layer self time.
                try:
                    rep = timed_rep(workload, plan, workdir, probe, None, ledger)
                finally:
                    layer_patches.undo()
                if rep is not None:
                    tracer.span("workload", rep.started, rep.started + rep.raw_seconds,
                                workload=args.workload, seed=args.seed)
                    traced.append(rep)
                    tracer_totals.append(
                        {"layers": tracer.totals(), "profile_s": tracer.inclusive_s("core.avis.profile")}
                    )
            else:
                rep = timed_rep(workload, plan, workdir, probe, speedometer, ledger)
                if rep is not None:
                    untraced.append(rep)
            if rep is None:
                break
            enough = len(untraced) >= (1 if args.trace else MIN_REPS) and (
                len(traced) >= MIN_TRACED_REPS or not args.trace
            )
            if enough and not time_left(rep, args.seconds):
                break
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)
    reps = untraced + traced
    if not untraced or (args.trace and not traced):
        raise SystemExit(f"perfbench: {args.workload} failed: {'; '.join(ledger.problems)}")

    if args.record_oracle:
        record_oracle(args.workload, args.seed, reps[0].verdict)
    oracle = load_oracle().get(args.workload, {}) if os.path.exists(ORACLE_PATH) else {}
    lines.append(check_verdicts(reps, oracle.get(str(args.seed)), ledger))
    if args.trace:
        calls = [
            {name: layer[0] for name, layer in totals["layers"].items()}
            for totals in tracer_totals
        ]
        for index, counts in enumerate(calls[1:], start=1):
            if counts != calls[0]:
                ledger.fail(traced[index].results,
                            f"traced repetition {index}: layer call counts differ")
        metrics = per_layer(untraced, traced, tracer_totals, lines)
        write_trace(tracer, args.workload, args.seed, ledger, lines)
    else:
        metrics = end_to_end(untraced, setup_samples, lines)
    lines.append(
        f"failed_frac: {ledger.failed / ledger.attempted:.4f} "
        f"({ledger.failed} of {ledger.attempted} simulations)"
    )
    lines.extend(f"problem: {problem}" for problem in ledger.problems)
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own interpreter; one table, one JSON line."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        output = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not output:
            sys.stderr.write(completed.stderr)
            print(f"{name}: failed with exit code {completed.returncode}")
            return 1
        for line in output[:-1]:
            print(f"{name}: {line}")
        results[name] = json.loads(output[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-oracle", action="store_true",
                        help="store this run's verdict digest for the seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_source_tree()
    lines = []
    result = measure(args, lines)
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
