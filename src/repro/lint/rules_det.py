"""DET: determinism-source rules.

The simulation core (``sim``, ``core``, ``firmware``, ``hinj``,
``sensors``) must be a pure function of its inputs: a wall clock, an
entropy source or the unseeded global ``random`` anywhere inside it
breaks serial == pool bit-identity.

Hash-seed independence of cache keys and fingerprints is not checked
here: ``tests/test_engine.py`` computes every fingerprint under two
``PYTHONHASHSEED`` values and compares them.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.astutil import call_name, import_map, symbol_for
from repro.lint.findings import Finding
from repro.lint.registry import Rule
from repro.lint.walker import LintModule

#: Packages forming the determinism core.
DET_SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.firmware",
    "repro.hinj",
    "repro.sensors",
)

#: Canonical names of wall-clock reads.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Canonical names of entropy sources (uuid3/uuid5 are input-derived and
#: therefore deterministic; uuid1 is clock/MAC-based, uuid4 is random).
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
ENTROPY_PREFIXES = ("secrets.",)

#: Module-level functions of the global (process-shared, unseeded at
#: import) random instance.  ``random.Random(seed)`` stays legal.
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "uniform",
        "triangular",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

# ----------------------------------------------------------------------
# DET001/002/003: forbidden calls in the determinism core
# ----------------------------------------------------------------------
def _scan_calls(modules: List[LintModule]) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        if not module.in_package(*DET_SCOPE):
            continue
        imap = import_map(module.tree, module.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imap)
            if name is None:
                continue
            rule: Optional[str] = None
            message = ""
            if name in WALL_CLOCK_CALLS:
                rule = "DET001"
                message = (
                    f"wall-clock read {name}() inside the simulation core;"
                    " inject the simulated clock instead"
                )
            elif name in ENTROPY_CALLS or name.startswith(ENTROPY_PREFIXES):
                rule = "DET002"
                message = (
                    f"entropy source {name}() inside the simulation core;"
                    " derive values from the run's seed"
                )
            elif (
                name.startswith("random.")
                and name.rsplit(".", 1)[-1] in GLOBAL_RANDOM_FUNCTIONS
            ):
                rule = "DET003"
                message = (
                    f"{name}() uses the unseeded process-global RNG;"
                    " use a random.Random(seed) instance"
                )
            if rule is not None:
                findings.append(
                    Finding(
                        rule=rule,
                        family="DET",
                        path=module.display,
                        line=node.lineno,
                        col=node.col_offset,
                        message=message,
                        symbol=symbol_for(node),
                    )
                )
    return findings


def _check_det001(modules: List[LintModule]) -> List[Finding]:
    return [f for f in _scan_calls(modules) if f.rule == "DET001"]


def _check_det002(modules: List[LintModule]) -> List[Finding]:
    return [f for f in _scan_calls(modules) if f.rule == "DET002"]


def _check_det003(modules: List[LintModule]) -> List[Finding]:
    return [f for f in _scan_calls(modules) if f.rule == "DET003"]


RULES = [
    Rule(
        id="DET001",
        family="DET",
        summary="no wall-clock reads inside sim/core/firmware/hinj/sensors",
        check=_check_det001,
    ),
    Rule(
        id="DET002",
        family="DET",
        summary="no entropy sources (uuid/os.urandom/secrets) in the core",
        check=_check_det002,
    ),
    Rule(
        id="DET003",
        family="DET",
        summary="no unseeded global random in the core",
        check=_check_det003,
    ),
]
