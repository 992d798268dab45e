#!/usr/bin/env python
"""CLI for the repo-specific invariant linter.

Usage::

    python tools/lint_invariants.py src             # lint the library
    python tools/lint_invariants.py --list-rules    # show every rule
    python tools/lint_invariants.py --select RNG001,PMF001 src
    python tools/lint_invariants.py --report-unused-skips src   # CI gate

Prints one ``path:line:col: RULE message`` line per finding. Exits 0
when clean, 1 when any invariant is violated, 2 on usage errors
(unknown ``--select`` ids, missing or unparsable paths). Suppress a
single line with a ``lint: skip=RULE`` hash-comment; audit stale
suppressions with ``--report-unused-skips``.

The rules live in :mod:`repro._lint`; see CONTRIBUTING.md ("Static
checks & invariants") for what each invariant means and how to add one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Allow running from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro._lint import all_rules, known_ids, run_lint  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_invariants",
        description="Check the repo-specific CDSF invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--report-unused-skips",
        action="store_true",
        help="report `lint: skip` comments that suppress nothing (LNT001)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules().values():
            ids = "/".join(rule.emitted_ids())
            print(f"{ids:<22} {rule.title}")
            print(f"{'':<22}   {rule.rationale}")
        return 0

    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        findings = run_lint(
            args.paths,
            select=select,
            report_unused_skips=args.report_unused_skips,
        )
    except KeyError as exc:
        known = "/".join(sorted(known_ids()))
        print(
            f"lint_invariants: error: {exc.args[0]} (known ids: {known})",
            file=sys.stderr,
        )
        return 2
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"lint_invariants: error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"\n{len(findings)} invariant violation"
            f"{'s' if len(findings) != 1 else ''} found.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
