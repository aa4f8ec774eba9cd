"""The structured finding record every rule emits.

A finding pins a rule id to a source location plus a message, and to
the ``symbol`` (enclosing function or field) when one is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    family: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        """The one-line text form, ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def order_key(self) -> Tuple[str, int, int, str, str]:
        """Deterministic display ordering."""
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        """The JSON-output form."""
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }
