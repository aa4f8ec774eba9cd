"""Rendering: the text and JSON forms of a lint result.

Both forms are byte-deterministic for a given result (sorted findings,
sorted keys) so CI diffs and cached artifacts stay stable.
"""

from __future__ import annotations

import json

from repro.lint.driver import LintResult


def render_text(result: LintResult, verbose: bool = False) -> str:
    """The human-facing report."""
    lines = [finding.render() for finding in result.findings]
    if verbose and result.waived:
        lines.append("")
        lines.append(f"waived ({len(result.waived)}):")
        lines.extend(f"  {finding.render()}" for finding in result.waived)
    if lines:
        lines.append("")
    summary = (
        f"{len(result.findings)} finding(s),"
        f" {len(result.waived)} waived,"
        f" {result.files_checked} file(s) checked"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-facing report (one JSON document)."""
    payload = {
        "findings": [finding.to_dict() for finding in result.findings],
        "waived": [finding.to_dict() for finding in result.waived],
        "files_checked": result.files_checked,
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
