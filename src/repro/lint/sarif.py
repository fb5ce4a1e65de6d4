"""SARIF 2.1.0 output for ``repro lint --sarif PATH``.

SARIF is the interchange format CI code-scanning UIs ingest to annotate pull
requests inline.  The document is deliberately minimal: one run, one tool
(``repro-lint``), one rule entry per active checker, one ``result`` per
finding with a physical location.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Sequence

from .framework import Checker, Finding

__all__ = ["findings_to_sarif", "write_sarif"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def findings_to_sarif(findings: Sequence[Finding], checkers: Sequence[Checker]) -> Dict:
    rules = [
        {
            "id": checker.rule,
            "name": checker.__class__.__name__,
            "shortDescription": {"text": checker.title or checker.rule},
            "defaultConfiguration": {"level": "error"},
        }
        for checker in checkers
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {"startLine": finding.line},
                    }
                }
            ],
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def write_sarif(path: Path, findings: Sequence[Finding], checkers: Sequence[Checker]) -> None:
    document = findings_to_sarif(findings, checkers)
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
