"""The ``repro-lint`` / ``python -m repro.lint`` command line.

Exit codes: 0 clean, 1 findings, 2 usage errors (such as a missing path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.lint.driver import run_lint
from repro.lint.registry import META_RULES, all_rules
from repro.lint.report import render_json, render_text


def _list_rules() -> str:
    lines = ["rule    family  summary"]
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.family:<6}  {rule.summary}")
    for rule_id, summary in META_RULES:
        lines.append(f"{rule_id}  LNT     {summary}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & fork-safety analyzer for the"
            " repro tree (rule families DET/FPR/OBS/FAB)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list waived findings (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    result = run_lint(args.paths)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
