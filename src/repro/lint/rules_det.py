"""DET: determinism-source rules.

The simulation core (``sim``, ``core``, ``firmware``, ``hinj``,
``sensors``) must be a pure function of its inputs: a wall clock, an
entropy source or the unseeded global ``random`` anywhere inside it
breaks serial == pool bit-identity.  Fingerprint paths additionally
may not iterate sets or dict views unsorted (string hashing is
per-process randomized, so iteration order diverges across workers),
and directory listings must be sorted wherever they are consumed in
order.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.astutil import (
    call_name,
    import_map,
    method_name,
    parent_of,
    symbol_for,
)
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

#: Calls/constructs that yield unordered collections.
UNORDERED_BUILTIN_CALLS = frozenset({"set", "frozenset", "vars"})
UNORDERED_VIEW_METHODS = frozenset({"keys", "values", "items"})

#: Consumers for which iteration order provably cannot matter.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "any", "all", "len", "set", "frozenset"}
)

#: Consumers that freeze an iteration order into their result.
ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})

#: Canonical names of unsorted directory-listing producers.
LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
LISTING_METHODS = frozenset({"iterdir"})


def _is_sorted_call(node: ast.expr, imap: Dict[str, str]) -> bool:
    return isinstance(node, ast.Call) and call_name(node, imap) == "sorted"


class _UnorderedScan:
    """Shared machinery: find unordered values consumed in order.

    ``sources`` classifies producer expressions (set/dict views for
    DET004, directory listings for DET005); the scan then tracks names
    assigned from them and reports For loops, comprehensions and
    order-freezing calls that consume one without ``sorted(...)``.
    """

    def __init__(
        self,
        module: LintModule,
        rule: str,
        family: str,
        what: str,
        is_source,
    ) -> None:
        self.module = module
        self.imap = import_map(module.tree, module.name)
        self.rule = rule
        self.family = family
        self.what = what
        self.is_source = is_source
        self.tainted: Set[str] = set()
        self.findings: List[Finding] = []

    # -- classification ------------------------------------------------
    def unordered(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        return bool(self.is_source(node, self.imap))

    def _collect_assignments(self, root: ast.AST) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if self.unordered(node.value):
                self.tainted.add(target.id)
            elif _is_sorted_call(node.value, self.imap):
                self.tainted.discard(target.id)

    # -- consumption ---------------------------------------------------
    def _report(self, node: ast.AST, detail: str) -> None:
        self.findings.append(
            Finding(
                rule=self.rule,
                family=self.family,
                path=self.module.display,
                line=node.lineno,
                col=node.col_offset,
                message=f"{detail} {self.what}; wrap it in sorted(...)",
                symbol=symbol_for(node),
            )
        )

    def _comprehension_is_safe(self, comp: ast.expr) -> bool:
        """True when a ListComp/GeneratorExp feeds an order-insensitive
        consumer (its own order then never escapes)."""
        parent = parent_of(comp)
        if isinstance(parent, ast.Call) and comp in parent.args:
            name = call_name(parent, self.imap)
            bare = name.rsplit(".", 1)[-1] if name else method_name(parent)
            return bare in ORDER_INSENSITIVE_CONSUMERS
        return False

    def scan(self, root: ast.AST) -> List[Finding]:
        self._collect_assignments(root)
        for node in ast.walk(root):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self.unordered(node.iter):
                    self._report(node, "for-loop iterates")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self.unordered(generator.iter):
                        if not self._comprehension_is_safe(node):
                            self._report(node, "comprehension iterates")
            elif isinstance(node, ast.Call):
                name = call_name(node, self.imap)
                bare = name.rsplit(".", 1)[-1] if name else None
                sensitive = bare in ORDER_SENSITIVE_CALLS or (
                    method_name(node) == "join"
                )
                if sensitive:
                    for arg in node.args:
                        if self.unordered(arg):
                            self._report(node, "call freezes the order of")
        return self.findings


# ----------------------------------------------------------------------
# DET001/002/003: forbidden calls in the determinism core
# ----------------------------------------------------------------------
def _scan_calls(context) -> List[Finding]:
    findings: List[Finding] = []
    for module in context.modules:
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


def _check_det001(context) -> List[Finding]:
    return [f for f in _scan_calls(context) if f.rule == "DET001"]


def _check_det002(context) -> List[Finding]:
    return [f for f in _scan_calls(context) if f.rule == "DET002"]


def _check_det003(context) -> List[Finding]:
    return [f for f in _scan_calls(context) if f.rule == "DET003"]


# ----------------------------------------------------------------------
# DET004: unsorted set/dict iteration on fingerprint paths
# ----------------------------------------------------------------------
def _is_set_or_view(node: ast.expr, imap: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node, imap)
        if name in UNORDERED_BUILTIN_CALLS:
            return True
        if method_name(node) in UNORDERED_VIEW_METHODS and not node.args:
            return True
    return False


def _check_det004(context) -> List[Finding]:
    findings: List[Finding] = []
    for fn in context.fingerprint_reachable:
        scan = _UnorderedScan(
            fn.module,
            rule="DET004",
            family="DET",
            what=(
                "an unordered set/dict view on a fingerprint path"
                f" (reachable via {fn.qualname})"
            ),
            is_source=_is_set_or_view,
        )
        findings.extend(scan.scan(fn.node))
    # The same loop can be reachable through several roots; report once.
    unique = {}
    for finding in findings:
        unique.setdefault((finding.path, finding.line, finding.col), finding)
    return list(unique.values())


# ----------------------------------------------------------------------
# DET005: unsorted directory listings
# ----------------------------------------------------------------------
def _is_listing(node: ast.expr, imap: Dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node, imap)
    if name in LISTING_CALLS:
        return True
    return method_name(node) in LISTING_METHODS


def _check_det005(context) -> List[Finding]:
    findings: List[Finding] = []
    for module in context.modules:
        scan = _UnorderedScan(
            module,
            rule="DET005",
            family="DET",
            what="an os.listdir/glob result (filesystem order varies)",
            is_source=_is_listing,
        )
        findings.extend(scan.scan(module.tree))
    return findings


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
    Rule(
        id="DET004",
        family="DET",
        summary="no unsorted set/dict iteration on fingerprint paths",
        check=_check_det004,
    ),
    Rule(
        id="DET005",
        family="DET",
        summary="os.listdir/glob results must be sorted before use",
        check=_check_det005,
    ),
]
