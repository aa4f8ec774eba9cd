"""The lint driver: collect, check, waive.

``run_lint`` is the one entry point both the CLI and the test suite use.
It parses the requested files, runs every registered rule over the
parsed modules, then applies inline waivers.  Everything it returns is
deterministically ordered -- the analyzer is subject to the same
bit-identity contract as the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import all_rules
from repro.lint.waivers import apply_waivers
from repro.lint.walker import LintModule, collect_modules


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing fails the run."""
        return not self.findings


def check_modules(modules: List[LintModule]) -> List[Finding]:
    """Run every registered rule over already-parsed modules."""
    findings: List[Finding] = []
    for rule in all_rules():
        findings.extend(rule.check(modules))
    return findings


def run_lint(paths: Sequence[str], root: Optional[str] = None) -> LintResult:
    """Lint ``paths`` end to end.

    ``root`` anchors the relative paths findings are reported with
    (defaults to the working directory).
    """
    modules, parse_errors = collect_modules(list(paths), root=root)
    raw = check_modules(modules)
    kept, waived, waiver_meta = apply_waivers(modules, raw)
    kept.extend(waiver_meta)
    kept.extend(parse_errors)
    return LintResult(
        findings=sorted(kept, key=Finding.order_key),
        waived=sorted(waived, key=Finding.order_key),
        files_checked=len(modules) + len(parse_errors),
    )
