"""FAB: fork-safety rules.

``FAB003``
    Worker-imported modules do not rebind module-global state
    (``global X``): fork-started pool and grid workers inherit a copy
    that silently diverges from the parent's.  The sanctioned
    fork-inheritance globals carry inline waivers naming why they are
    safe.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.astutil import symbol_for
from repro.lint.findings import Finding
from repro.lint.registry import Rule
from repro.lint.walker import LintModule

#: Packages imported by forked pool and grid workers.
WORKER_SCOPE = (
    "repro.sim",
    "repro.sensors",
    "repro.firmware",
    "repro.hinj",
    "repro.mavlink",
    "repro.workloads",
    "repro.core",
    "repro.engine",
    "repro.obs",
)


def _check_fab003(modules: List[LintModule]) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        if not module.in_package(*WORKER_SCOPE):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Global):
                continue
            names = ", ".join(node.names)
            findings.append(
                Finding(
                    rule="FAB003",
                    family="FAB",
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"'global {names}' rebinds module state in a"
                        " worker-imported module; fork-started workers"
                        " inherit a diverging copy -- inject the state"
                        " explicitly or waive with the fork-safety"
                        " argument"
                    ),
                    symbol=symbol_for(node),
                )
            )
    return findings


RULES = [
    Rule(
        id="FAB003",
        family="FAB",
        summary="worker-imported modules do not rebind module globals",
        check=_check_fab003,
    ),
]
