"""Shared AST helpers: import resolution and qualified-name walking.

The rules never inspect runtime objects -- everything is resolved from
the source alone.  The central tool is the *import map*: a per-module
dictionary from local names to the dotted origin they were imported
from, which lets a rule recognise ``t.time()``, ``time.time()`` and
``from time import time; time()`` as the same canonical call.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def import_map(tree: ast.Module, module_name: str = "") -> Dict[str, str]:
    """Local name -> dotted origin, for every import anywhere in the file.

    Function-local imports are included: the deferred-import idiom the
    OBS rules allow still has to resolve when the imported name is used.
    Relative imports are anchored on ``module_name`` best-effort.
    """
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    mapping[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module_name.split(".") if module_name else []
                anchor = anchor[: len(anchor) - node.level] or [package or "?"]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{base}.{alias.name}" if base else alias.name
    return mapping


def dotted_name(node: ast.expr, imap: Dict[str, str]) -> Optional[str]:
    """The canonical dotted form of a Name/Attribute chain, or None.

    ``obs_runtime.current`` with ``obs_runtime`` imported from
    ``repro.obs`` resolves to ``repro.obs.runtime.current``.  Chains not
    rooted in a plain name (``self.x.y``) do not resolve.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imap.get(node.id, node.id))
    return ".".join(reversed(parts))


def call_name(node: ast.Call, imap: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a call's target, or None."""
    return dotted_name(node.func, imap)


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The parent annotated by the walker, or None at the module root."""
    return getattr(node, "lint_parent", None)


def enclosing_function(node: ast.AST) -> Optional[FunctionNode]:
    """The innermost function/method containing ``node``, if any."""
    current = parent_of(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parent_of(current)
    return None


def function_qualname(node: FunctionNode) -> str:
    """``Class.method`` / ``outer.<locals>.inner``-style display name."""
    parts = [node.name]
    current = parent_of(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts.append(f"{current.name}.<locals>")
        elif isinstance(current, ast.ClassDef):
            parts.append(current.name)
        current = parent_of(current)
    return ".".join(reversed(parts))


def symbol_for(node: ast.AST) -> str:
    """The symbol a finding names: its enclosing function, or ''."""
    function = enclosing_function(node)
    return function_qualname(function) if function is not None else ""


def is_type_checking_block(node: ast.stmt) -> bool:
    """True for an ``if TYPE_CHECKING:`` guard (eager-import exempt)."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def is_none_constant(node: ast.expr) -> bool:
    """True for the literal ``None``."""
    return isinstance(node, ast.Constant) and node.value is None


def names_in(node: ast.AST) -> List[str]:
    """Every plain Name id appearing in a subtree."""
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
