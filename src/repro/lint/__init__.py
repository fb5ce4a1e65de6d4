"""``repro lint``: AST invariant checkers + runtime numeric sanitizer.

Static side (``repro lint`` / ``python -m repro.lint``): ten repo-specific
rules over ``src/repro`` (plus ``scripts/`` and the lintable test helpers) -
RPL001, RPL003-RPL006 and RPL011 are syntactic (see :mod:`repro.lint.checkers`),
RPL007-RPL010 ride the interprocedural dataflow engine
(:mod:`repro.lint.dataflow`).  See
README "Invariants & static checks" for the rule table.  Exit status is 0
when the repo is clean (modulo baseline), 1 otherwise.

Runtime side: :mod:`repro.lint.runtime`, an opt-in (``REPRO_SANITIZE=1``)
kernel-wrapping sanitizer that the test suite installs from conftest; its
static twin is RPL007 (the two share one kernel/region model).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .checkers import default_checkers
from .framework import (
    ALL_SCOPES,
    Finding,
    Project,
    SourceFile,
    load_baseline,
    load_project,
    run_checkers,
    run_lint,
    write_baseline,
)

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "default_checkers",
    "load_project",
    "run_checkers",
    "run_lint",
    "main",
]


def _default_root() -> Path:
    """The repo root: the directory holding ``src/repro`` (this package)."""
    return Path(__file__).resolve().parents[3]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Run the repo's AST invariant checkers (RPL001-RPL011).",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root to lint (default: the checkout this package lives in)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write all findings (including baselined) as JSON",
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write all findings as SARIF 2.1.0 (CI inline annotations)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="stdout format for new findings (default: text)",
    )
    parser.add_argument(
        "--scope",
        default=",".join(ALL_SCOPES),
        metavar="SCOPES",
        help=(
            "comma-separated source scopes to lint: src, scripts, tests "
            "(default: all three; rules still only fire in scopes they declare)"
        ),
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "fail (exit 3) if the whole lint run - including the dataflow "
            "fixed point - exceeds this wall-clock budget"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="JSON baseline of accepted findings; only new findings fail",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the active rules and exit",
    )
    args = parser.parse_args(argv)

    checkers = default_checkers()
    if args.list_rules:
        for checker in checkers:
            scopes = ",".join(sorted(checker.scopes))
            print(f"{checker.rule}  [{scopes}]  {checker.title}")
        return 0

    scopes = [part.strip() for part in args.scope.split(",") if part.strip()]
    for scope in scopes:
        if scope not in ALL_SCOPES:
            print(f"unknown scope {scope!r} (choose from {', '.join(ALL_SCOPES)})", file=sys.stderr)
            return 2

    root = args.root if args.root is not None else _default_root()
    baseline = None
    if args.baseline is not None and args.baseline.exists() and not args.write_baseline:
        baseline = load_baseline(args.baseline)
    started = time.perf_counter()
    findings, new = run_lint(root, checkers, baseline, scopes=scopes)
    elapsed = time.perf_counter() - started

    if args.json is not None:
        args.json.write_text(
            json.dumps([f.to_json() for f in findings], indent=2) + "\n"
        )
    if args.sarif is not None:
        from .sarif import write_sarif

        write_sarif(args.sarif, findings, checkers, baseline)
    if args.write_baseline:
        if args.baseline is None:
            print("--write-baseline requires --baseline PATH", file=sys.stderr)
            return 2
        write_baseline(findings, args.baseline)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    if args.format == "sarif":
        from .sarif import findings_to_sarif

        print(json.dumps(findings_to_sarif(findings, checkers, baseline), indent=2))
    else:
        for finding in new:
            print(finding)
        suppressed = len(findings) - len(new)
        tail = f" ({suppressed} baselined)" if suppressed else ""
        print(
            f"repro lint: {len(new)} finding(s){tail}, {len(checkers)} checkers, "
            f"{elapsed:.2f}s"
        )
    if args.time_budget is not None and elapsed > args.time_budget:
        print(
            f"repro lint: time budget exceeded ({elapsed:.2f}s > "
            f"{args.time_budget:.2f}s) - the dataflow fixed point is too slow",
            file=sys.stderr,
        )
        return 3
    return 1 if new else 0
