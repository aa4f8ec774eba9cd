"""The rule registry: every shipped rule, one table.

Rules are plain (id, family, summary, check) records; ``check`` takes
the parsed modules and returns findings.  The two ``LNT`` meta rules
are synthesized by the driver (waiver parsing and file collection)
rather than checked here, but they are listed so ``--list-rules``
documents every id that can appear in output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.walker import LintModule


@dataclass(frozen=True)
class Rule:
    """One statically-checked invariant."""

    id: str
    family: str
    summary: str
    check: Callable[[List[LintModule]], List[Finding]]


#: (id, summary) of findings synthesized outside rule checks.
META_RULES: Tuple[Tuple[str, str], ...] = (
    ("LNT001", "inline waiver has no '-- justification'"),
    ("LNT002", "file could not be parsed"),
)


def all_rules() -> Sequence[Rule]:
    """Every shipped rule, sorted by id."""
    from repro.lint import rules_det, rules_fab, rules_fpr, rules_obs

    rules: List[Rule] = []
    for module in (rules_det, rules_fpr, rules_obs, rules_fab):
        rules.extend(module.RULES)
    return sorted(rules, key=lambda rule: rule.id)
