"""FAB: fabric / concurrency hygiene rules.

The distributed fabric (PR 8) moved campaigns onto threads, sockets and
fork-started workers; three bug classes from that work are statically
checkable:

``FAB001``
    Every ``threading.Thread(...)`` sets ``daemon=`` explicitly.  An
    implicit non-daemon thread keeps the process alive after a crash;
    an accidentally inherited daemon flag silently drops work -- either
    way the intent must be written down.
``FAB002``
    No blocking socket operation while a lock is held: a peer that
    stalls mid-frame would then stall every thread contending for the
    lock.
``FAB003``
    Worker-imported modules do not rebind module-global state
    (``global X``): fork-started workers inherit a copy that silently
    diverges from the parent's.  The sanctioned fork-inheritance
    globals carry inline waivers naming why they are safe.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.astutil import call_name, import_map, symbol_for
from repro.lint.findings import Finding
from repro.lint.registry import Rule

#: Packages imported by pool/remote workers (fork or spawn).
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

#: Method names that block on a socket (or speak a frame on one).
BLOCKING_SOCKET_METHODS = frozenset(
    {"send", "sendall", "sendto", "recv", "recv_into", "accept", "connect"}
)
BLOCKING_FRAME_HELPERS = frozenset({"send_frame", "recv_frame"})


def _check_fab001(context) -> List[Finding]:
    findings: List[Finding] = []
    for module in context.modules:
        imap = import_map(module.tree, module.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node, imap) != "threading.Thread":
                continue
            if any(keyword.arg == "daemon" for keyword in node.keywords):
                continue
            findings.append(
                Finding(
                    rule="FAB001",
                    family="FAB",
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "threading.Thread(...) without an explicit daemon="
                        " flag; write the lifetime intent down"
                    ),
                    symbol=symbol_for(node),
                )
            )
    return findings


def _looks_like_lock(node: ast.expr) -> bool:
    """True when a with-item expression names a lock."""
    text = ast.unparse(node).lower()
    return "lock" in text


def _check_fab002(context) -> List[Finding]:
    findings: List[Finding] = []
    for module in context.modules:
        imap = import_map(module.tree, module.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(
                _looks_like_lock(item.context_expr) for item in node.items
            ):
                continue
            for child in ast.walk(node):
                if not isinstance(child, ast.Call):
                    continue
                blocking = False
                if isinstance(child.func, ast.Attribute):
                    blocking = child.func.attr in BLOCKING_SOCKET_METHODS
                name = call_name(child, imap)
                if name is not None and name.rsplit(".", 1)[-1] in (
                    BLOCKING_FRAME_HELPERS
                ):
                    blocking = True
                if not blocking:
                    continue
                findings.append(
                    Finding(
                        rule="FAB002",
                        family="FAB",
                        path=module.display,
                        line=child.lineno,
                        col=child.col_offset,
                        message=(
                            f"blocking socket operation"
                            f" '{ast.unparse(child.func)}' while a lock is"
                            " held; a stalled peer would stall every"
                            " contending thread -- move the I/O outside"
                            " the lock"
                        ),
                        symbol=symbol_for(child),
                    )
                )
    return findings


def _check_fab003(context) -> List[Finding]:
    findings: List[Finding] = []
    for module in context.modules:
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
        id="FAB001",
        family="FAB",
        summary="threads declare daemon= explicitly",
        check=_check_fab001,
    ),
    Rule(
        id="FAB002",
        family="FAB",
        summary="no blocking socket I/O while holding a lock",
        check=_check_fab002,
    ),
    Rule(
        id="FAB003",
        family="FAB",
        summary="worker-imported modules do not rebind module globals",
        check=_check_fab003,
    ),
]
