"""``repro lint``: AST invariant checkers + runtime numeric sanitizer.

Static side (``repro lint`` / ``python -m repro.lint``): two repo-specific
syntactic rules over ``src/repro``, RPL001 and RPL011 (see
:mod:`repro.lint.checkers`), kept because no test or runtime check catches
their defects.  See README "Invariants & static checks" for the rule table.
Exit status is 0 when the repo is clean, 1 otherwise.

Runtime side: :mod:`repro.lint.runtime`, an opt-in (``REPRO_SANITIZE=1``)
kernel-wrapping sanitizer that the test suite installs from conftest.  It is
the one guard of float64 inside a float32 calibration region and of cols
layout into the conv GEMM.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .checkers import default_checkers
from .framework import Finding, Project, SourceFile, load_project, run_checkers, run_lint

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
        description="Run the repo's AST invariant checkers (RPL001, RPL011).",
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
        help="also write all findings as JSON",
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write all findings as SARIF 2.1.0 (CI inline annotations)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 3) if the whole lint run exceeds this wall-clock budget",
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
            print(f"{checker.rule}  {checker.title}")
        return 0

    root = args.root if args.root is not None else _default_root()
    started = time.perf_counter()
    findings = run_lint(root, checkers)
    elapsed = time.perf_counter() - started

    if args.json is not None:
        args.json.write_text(
            json.dumps([f.to_json() for f in findings], indent=2) + "\n"
        )
    if args.sarif is not None:
        from .sarif import write_sarif

        write_sarif(args.sarif, findings, checkers)
    for finding in findings:
        print(finding)
    print(f"repro lint: {len(findings)} finding(s), {len(checkers)} checkers, {elapsed:.2f}s")
    if args.time_budget is not None and elapsed > args.time_budget:
        print(
            f"repro lint: time budget exceeded ({elapsed:.2f}s > {args.time_budget:.2f}s)",
            file=sys.stderr,
        )
        return 3
    return 1 if findings else 0
