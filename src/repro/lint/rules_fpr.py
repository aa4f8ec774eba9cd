"""FPR: fingerprint-coverage rules.

``FPR001`` machine-checks the recurring "field exists but the
fingerprint never renders it" bug class: every dataclass field of the
classes registered in :mod:`repro.lint.fingerprint_registry` must be
consumed by its fingerprint routine(s), credited through a declared
property alias, or exempted there with a justification.

The check is skipped for a class whose fingerprint routines are not in
the analyzed file set at all (e.g. a run over ``config.py`` alone);
run the analyzer over the full tree -- as CI does --
for authoritative coverage.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.lint import fingerprint_registry
from repro.lint.astutil import FunctionNode
from repro.lint.findings import Finding
from repro.lint.registry import Rule
from repro.lint.walker import LintModule


def _class_fields(node: ast.ClassDef) -> List[Tuple[str, int, int]]:
    """The dataclass fields of a class body: (name, line, col).

    Only annotated assignments declare fields; ``ClassVar`` annotations
    and private names are not fields.
    """
    fields: List[Tuple[str, int, int]] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        target = statement.target
        if not isinstance(target, ast.Name) or target.id.startswith("_"):
            continue
        annotation = statement.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        if isinstance(base, ast.Name) and base.id == "ClassVar":
            continue
        if isinstance(base, ast.Attribute) and base.attr == "ClassVar":
            continue
        fields.append((target.id, statement.lineno, statement.col_offset))
    return fields


def _consumed_names(functions: List[FunctionNode]) -> Set[str]:
    """Every attribute name and getattr-string the routines touch."""
    consumed: Set[str] = set()
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute):
                consumed.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    consumed.add(node.args[1].value)
    return consumed


def _functions_named(
    module: LintModule, names: Tuple[str, ...]
) -> List[FunctionNode]:
    return [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in names
    ]


def _fingerprint_functions_for(
    modules: List[LintModule], class_module: LintModule, names: Tuple[str, ...]
) -> List[FunctionNode]:
    """The registered routines, preferring the class's own module."""
    local = _functions_named(class_module, names)
    if local:
        return local
    return [fn for module in modules for fn in _functions_named(module, names)]


def _check_fpr001(modules: List[LintModule]) -> List[Finding]:
    findings: List[Finding] = []
    registry = fingerprint_registry.FINGERPRINT_FUNCTIONS
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in registry:
                continue
            routine_names = registry[node.name]
            routines = _fingerprint_functions_for(modules, module, routine_names)
            if not routines:
                continue
            consumed = _consumed_names(routines)
            aliases = fingerprint_registry.FIELD_ALIASES.get(node.name, {})
            for field, line, col in _class_fields(node):
                if field in consumed:
                    continue
                if any(alias in consumed for alias in aliases.get(field, ())):
                    continue
                exemption = fingerprint_registry.EXEMPTIONS.get(
                    (node.name, field)
                )
                if exemption:
                    continue
                routine_list = ", ".join(sorted({fn.name for fn in routines}))
                findings.append(
                    Finding(
                        rule="FPR001",
                        family="FPR",
                        path=module.display,
                        line=line,
                        col=col,
                        message=(
                            f"field {node.name}.{field} is not consumed by"
                            f" {routine_list} and has no entry in the"
                            " fingerprint exemption registry"
                            " (repro/lint/fingerprint_registry.py)"
                        ),
                        symbol=f"{node.name}.{field}",
                    )
                )
    return findings


RULES = [
    Rule(
        id="FPR001",
        family="FPR",
        summary=(
            "every RunConfiguration/FaultSpec/TrafficFaultSpec/VehicleSpec"
            " field reaches its fingerprint or is exempted"
        ),
        check=_check_fpr001,
    ),
]
