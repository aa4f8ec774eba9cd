"""OBS: observability-hygiene rules.

The PR-6 contract is that observability is *inert by default*: no
runtime installed means no clocks read, no objects allocated, no
behaviour perturbed -- and traced campaigns stay bit-identical to
untraced ones.  Two statically checkable consequences:

``OBS001``
    The result of ``obs_runtime.current()`` is used only under a
    ``None`` gate (``if obs is not None: ...`` / an early return).
``OBS002``
    The simulation core imports nothing from ``repro.obs`` eagerly
    except the gate itself (``repro.obs.runtime``); recorder/metrics
    imports are deferred into the gated call sites (or live in
    ``TYPE_CHECKING`` blocks).

That cache keys do not depend on tracing is checked at run time:
``tests/test_obs.py`` compares the keys of traced and untraced
campaigns.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.astutil import (
    dotted_name,
    import_map,
    is_none_constant,
    is_type_checking_block,
    names_in,
    parent_of,
    symbol_for,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule
from repro.lint.walker import LintModule

#: The one module the core may import eagerly: the gate itself.
GATE_MODULE = "repro.obs.runtime"

#: Packages whose eager obs imports are restricted (the determinism
#: core plus everything a simulation run touches).
OBS_IMPORT_SCOPE = (
    "repro.sim",
    "repro.core",
    "repro.firmware",
    "repro.hinj",
    "repro.sensors",
    "repro.mavlink",
    "repro.workloads",
)


def _current_call(node: ast.expr, imap: Dict[str, str]) -> bool:
    """True for a call resolving to ``repro.obs.runtime.current()``."""
    return (
        isinstance(node, ast.Call)
        and dotted_name(node.func, imap) == f"{GATE_MODULE}.current"
    )


def _is_none_test_of(test: ast.expr, name: str) -> Optional[bool]:
    """Classify a test mentioning ``name``.

    Returns True for a positive gate (``name``, ``name is not None``,
    possibly inside ``and``), False for a negative gate
    (``name is None``, ``not name``), None when ``name`` is absent.
    """
    if name not in names_in(test):
        return None
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left_is_name = isinstance(test.left, ast.Name) and test.left.id == name
        if left_is_name and is_none_constant(test.comparators[0]):
            return isinstance(test.ops[0], ast.IsNot)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = test.operand
        if isinstance(inner, ast.Name) and inner.id == name:
            return False
    # Truthiness or a compound condition mentioning the name counts as
    # a positive gate ("if obs is not None and purged:").
    return True


def _guarded(usage: ast.AST, name: str, function: ast.AST) -> bool:
    """True when ``usage`` of ``name`` sits under a None gate."""
    current = usage
    while current is not function:
        parent = parent_of(current)
        if parent is None:
            break
        if isinstance(parent, ast.If):
            polarity = _is_none_test_of(parent.test, name)
            if polarity is True and current in parent.body:
                return True
            if polarity is False and current in parent.orelse:
                return True
        if isinstance(parent, ast.IfExp):
            polarity = _is_none_test_of(parent.test, name)
            if polarity is True and current is parent.body:
                return True
            if polarity is False and current is parent.orelse:
                return True
        current = parent
    # Early-return gate: a top-level "if name is None: return" before
    # the usage dominates everything after it.
    body = getattr(function, "body", [])
    for statement in body:
        if statement.lineno >= usage.lineno:
            break
        if isinstance(statement, ast.If) and not statement.orelse:
            polarity = _is_none_test_of(statement.test, name)
            exits = statement.body and all(
                isinstance(s, (ast.Return, ast.Raise, ast.Continue))
                for s in statement.body
            )
            if polarity is False and exits:
                return True
    return False


def _check_obs001(modules: List[LintModule]) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        if module.in_package("repro.obs") or not module.name.startswith("repro."):
            continue
        imap = import_map(module.tree, module.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            handles: Set[str] = set()
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                    and _current_call(child.value, imap)
                ):
                    handles.add(child.targets[0].id)
            if not handles:
                continue
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id in handles
                    and isinstance(child.ctx, ast.Load)
                    and not _guarded(child, child.value.id, node)
                ):
                    findings.append(
                        Finding(
                            rule="OBS001",
                            family="OBS",
                            path=module.display,
                            line=child.lineno,
                            col=child.col_offset,
                            message=(
                                f"'{child.value.id}."
                                f"{child.attr}' uses the obs runtime without"
                                f" an 'if {child.value.id} is not None' gate;"
                                " ungated instrumentation breaks the"
                                " inert-by-default contract"
                            ),
                            symbol=symbol_for(child),
                        )
                    )
    return findings


def _eager_obs_imports(module: LintModule) -> List[Finding]:
    findings: List[Finding] = []

    def scan_statements(statements) -> None:
        for statement in statements:
            if is_type_checking_block(statement):
                continue
            if isinstance(statement, ast.If):
                scan_statements(statement.body)
                scan_statements(statement.orelse)
                continue
            if isinstance(statement, ast.Try):
                scan_statements(statement.body)
                for handler in statement.handlers:
                    scan_statements(handler.body)
                scan_statements(statement.orelse)
                scan_statements(statement.finalbody)
                continue
            targets: List[str] = []
            if isinstance(statement, ast.Import):
                targets = [alias.name for alias in statement.names]
            elif isinstance(statement, ast.ImportFrom) and statement.module:
                base = statement.module
                if base == "repro.obs":
                    targets = [
                        f"{base}.{alias.name}" for alias in statement.names
                    ]
                else:
                    targets = [base]
            for target in targets:
                if not (target == "repro.obs" or target.startswith("repro.obs.")):
                    continue
                if target == GATE_MODULE or target.startswith(GATE_MODULE + "."):
                    continue
                findings.append(
                    Finding(
                        rule="OBS002",
                        family="OBS",
                        path=module.display,
                        line=statement.lineno,
                        col=statement.col_offset,
                        message=(
                            f"eager import of {target} in the simulation"
                            f" core; only {GATE_MODULE} may be imported at"
                            " module level -- defer this into the gated"
                            " call site or a TYPE_CHECKING block"
                        ),
                    )
                )

    scan_statements(module.tree.body)
    return findings


def _check_obs002(modules: List[LintModule]) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        if module.in_package(*OBS_IMPORT_SCOPE):
            findings.extend(_eager_obs_imports(module))
    return findings


RULES = [
    Rule(
        id="OBS001",
        family="OBS",
        summary="obs_runtime.current() results are used under a None gate",
        check=_check_obs001,
    ),
    Rule(
        id="OBS002",
        family="OBS",
        summary="the core imports only repro.obs.runtime eagerly",
        check=_check_obs002,
    ),
]
