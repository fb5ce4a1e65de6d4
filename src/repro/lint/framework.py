"""Tiny AST-lint framework for the repo's own numeric-path invariants.

``repro lint`` is not a general-purpose linter: each rule encodes a contract
this codebase has been bitten by and that no test or runtime check catches
(NEP-50 scalar promotion, exceptions swallowed in the serving stack,
quantized GEMMs bypassing the traced dispatch).
The framework keeps the moving parts small:

* :class:`SourceFile` - one parsed ``.py`` file plus its per-line suppression
  table (``# repro-lint: ignore[RULE]``).
* :class:`Project` - every source file under ``src/repro``.
* :class:`Checker` - a rule; subclasses implement :meth:`~Checker.check_file`.
* :func:`run_lint` - load, check, filter suppressions, and return findings
  sorted by location.

Suppression semantics: a ``# repro-lint: ignore[RPL001]`` comment suppresses
matching findings anchored on its own line; when the comment sits alone on a
line it applies to the next *code* line instead - blank lines and further
comments are skipped, and when that code line is a decorator the suppression
extends through the decorated ``def``/``class`` statement.  ``ignore[*]``
suppresses every rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

__all__ = [
    "Finding",
    "SourceFile",
    "Project",
    "Checker",
    "load_project",
    "run_checkers",
    "run_lint",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_*,\s]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored at ``path:line``."""

    path: str  # repo-relative posix path
    line: int
    rule: str
    message: str

    def to_json(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line, "message": self.message}

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class SourceFile:
    """A parsed source file plus its suppression table."""

    def __init__(self, rel_path: str, source: str) -> None:
        self.rel_path = rel_path.replace("\\", "/")
        self.tree = ast.parse(source, filename=rel_path)
        lines = source.splitlines()
        self._suppressions: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            # A comment-only line shields the code below it.
            if text[: match.start()].strip() == "":
                targets = self._comment_targets(lines, lineno)
            else:
                targets = [lineno]
            for target in targets:
                self._suppressions.setdefault(target, set()).update(rules)

    @staticmethod
    def _comment_targets(lines: List[str], comment_line: int) -> List[int]:
        """Lines a standalone comment applies to.

        Skips blank lines and further comments to find the next code line;
        when that line opens a decorator chain, the suppression extends to
        every decorator line and the decorated ``def``/``class`` line (rule
        anchors may sit on either).
        """
        index = comment_line  # 0-based index of the line *after* the comment
        while index < len(lines) and (
            not lines[index].strip() or lines[index].lstrip().startswith("#")
        ):
            index += 1
        if index >= len(lines):
            return []
        targets = [index + 1]
        if lines[index].lstrip().startswith("@"):
            while index + 1 < len(lines):
                index += 1
                stripped = lines[index].lstrip()
                if not stripped or stripped.startswith("#"):
                    continue
                targets.append(index + 1)
                if not stripped.startswith("@"):
                    break
        return targets

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self._suppressions.get(line, ())
        return rule in rules or "*" in rules


class Project:
    """All lintable sources, keyed by repo-relative path."""

    def __init__(self, files: Mapping[str, SourceFile]):
        self.files: Dict[str, SourceFile] = dict(files)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build an in-memory project (used by the checker fixture tests)."""
        return cls({path: SourceFile(path, text) for path, text in sources.items()})


class Checker:
    """Base class: subclasses set ``rule``/``title`` and override ``check_file``."""

    rule: str = "RPL000"
    title: str = ""

    def check_file(self, handle: SourceFile) -> Iterable[Finding]:
        return ()


def load_project(root: Path) -> Project:
    """Load every ``.py`` file under ``src/repro`` of the repo at ``root``."""
    root = Path(root)
    files: Dict[str, SourceFile] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        if "__pycache__" not in path.parts:
            rel = path.relative_to(root).as_posix()
            files[rel] = SourceFile(rel, path.read_text())
    return Project(files)


def run_checkers(project: Project, checkers: Sequence[Checker]) -> List[Finding]:
    """Run every checker over the project and filter suppressed findings."""
    kept = set()
    for handle in project.files.values():
        for checker in checkers:
            for finding in checker.check_file(handle):
                if not handle.suppressed(finding.line, finding.rule):
                    kept.add(finding)
    return sorted(kept)


def run_lint(root: Path, checkers: Optional[Sequence[Checker]] = None) -> List[Finding]:
    """Lint the repo at ``root``; every returned finding fails CI."""
    if checkers is None:
        from .checkers import default_checkers

        checkers = default_checkers()
    return run_checkers(load_project(root), checkers)
