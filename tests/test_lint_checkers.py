"""Checker-level tests for ``repro lint`` (RPL001, RPL011) plus the
shared framework: suppression edge cases, SARIF and the CLI.

Each rule gets a violating fixture proving it fires, a clean twin proving it
stays quiet, and a pinning fixture: a seeded mutation of real source that
only the rule catches (tier-1 and the sanitizer suite pass under it), so
deleting the rule fails here.  Plus the end-to-end assertion that the repo
itself is clean.
"""

import json
from pathlib import Path

import repro
from repro.lint import Project, default_checkers, main as lint_main, run_checkers, run_lint
from repro.lint.checkers import BackendDispatchChecker, DtypePromotionChecker

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def lint_sources(sources, checkers=None):
    project = Project.from_sources(sources)
    return run_checkers(project, checkers or default_checkers())


def lint_seeded_mutation(rel_path, old, new):
    """Lint the real ``rel_path`` with ``old`` replaced by ``new`` in memory."""
    source = (REPO_ROOT / rel_path).read_text()
    assert source.count(old) == 1, f"seed site moved: {old!r} in {rel_path}"
    assert lint_sources({rel_path: source}) == []
    return lint_sources({rel_path: source.replace(old, new)})


# ---------------------------------------------------------------------------
# RPL001 - dtype promotion
# ---------------------------------------------------------------------------

RPL001_BAD = """\
import numpy as np


def step(x: np.ndarray, a_bar: float) -> np.ndarray:
    return np.sqrt(a_bar) * x
"""

RPL001_CLEAN = """\
import math

import numpy as np


def step(x: np.ndarray, a_bar: float) -> np.ndarray:
    coeff = math.sqrt(a_bar)          # weak Python float: fine
    other = float(np.sqrt(a_bar))     # sanctioned wrap: fine
    grid = np.sqrt(np.arange(4))      # array argument: fine
    np.sqrt(x, out=x)                 # in-place on an array: fine
    chained = x * 2.0
    also = np.sqrt(chained)           # derived array name: fine
    return coeff * other * grid.sum() * also
"""


def test_rpl001_flags_scalar_np_math():
    findings = lint_sources({"src/repro/diffusion/bad.py": RPL001_BAD})
    assert [f.rule for f in findings] == ["RPL001"]
    assert findings[0].line == 5
    assert "math.sqrt" in findings[0].message


def test_rpl001_clean_twin_is_quiet():
    assert lint_sources({"src/repro/diffusion/good.py": RPL001_CLEAN}) == []


def test_rpl001_only_applies_to_hot_modules():
    # Same violating code outside nn/diffusion/quant is out of scope.
    assert lint_sources({"src/repro/workloads/bad.py": RPL001_BAD}) == []


def test_rpl001_pins_quantized_attention_scale():
    # The quantized attention divides its exact-f32 scores by this scale.
    # Unwrapped, np.sqrt promotes them to float64 without moving a sample
    # or tripping the sanitizer, so only RPL001 catches it.
    findings = lint_seeded_mutation(
        "src/repro/quant/qlayers.py",
        "/ float(np.sqrt(self.head_dim))",
        "/ np.sqrt(self.head_dim)",
    )
    assert [f.rule for f in findings] == ["RPL001"]
    assert "np.sqrt(<scalar>)" in findings[0].message


# ---------------------------------------------------------------------------
# framework: suppression, CLI
# ---------------------------------------------------------------------------


def test_suppression_same_line():
    source = RPL001_BAD.replace(
        "return np.sqrt(a_bar) * x",
        "return np.sqrt(a_bar) * x  # repro-lint: ignore[RPL001]",
    )
    assert lint_sources({"src/repro/diffusion/bad.py": source}) == []


def test_suppression_own_line_covers_next():
    source = RPL001_BAD.replace(
        "    return np.sqrt(a_bar) * x",
        "    # repro-lint: ignore[RPL001]\n    return np.sqrt(a_bar) * x",
    )
    assert lint_sources({"src/repro/diffusion/bad.py": source}) == []


def test_suppression_wildcard_and_wrong_rule():
    wildcard = RPL001_BAD.replace(
        "return np.sqrt(a_bar) * x",
        "return np.sqrt(a_bar) * x  # repro-lint: ignore[*]",
    )
    assert lint_sources({"src/repro/diffusion/bad.py": wildcard}) == []
    wrong = RPL001_BAD.replace(
        "return np.sqrt(a_bar) * x",
        "return np.sqrt(a_bar) * x  # repro-lint: ignore[RPL011]",
    )
    assert len(lint_sources({"src/repro/diffusion/bad.py": wrong})) == 1


# A raw quantized product in a default argument anchors RPL011 on the `def`
# line, so a decorator chain above it exercises the decorated-def
# suppression path.
RPL011_DECORATED = """\
import functools

from .weights import q_w


{comment}@functools.lru_cache(maxsize=1)
@functools.wraps(object)
def gram(x, g=q_w @ q_w):
    return x + g
"""


def test_suppression_standalone_comment_skips_blank_lines():
    source = RPL001_BAD.replace(
        "    return np.sqrt(a_bar) * x",
        "    # repro-lint: ignore[RPL001]\n\n    # unrelated note\n\n"
        "    return np.sqrt(a_bar) * x",
    )
    assert lint_sources({"src/repro/diffusion/bad.py": source}) == []


def test_suppression_covers_decorated_def():
    bad = RPL011_DECORATED.format(comment="")
    findings = lint_sources({"src/repro/quant/gram.py": bad})
    assert [f.rule for f in findings] == ["RPL011"]
    assert findings[0].line == 8  # the `def` line, not the decorator line

    for comment in ("# repro-lint: ignore[RPL011]\n", "# repro-lint: ignore[*]\n"):
        shielded = RPL011_DECORATED.format(comment=comment)
        assert lint_sources({"src/repro/quant/gram.py": shielded}) == []


# ---------------------------------------------------------------------------
# what gets linted: the package's hot modules only
# ---------------------------------------------------------------------------


def test_scoped_rules_skip_out_of_scope_files():
    # The rules watch src/repro's hot modules: the same violating code in
    # scripts/ or tests/helpers.py (test-only idioms) must stay quiet.
    assert lint_sources({"scripts/bad.py": RPL001_BAD}) == []
    assert lint_sources({"tests/helpers.py": RPL001_BAD}) == []


def test_load_project_reads_only_the_package(tmp_path):
    from repro.lint import load_project

    (tmp_path / "src" / "repro" / "sub").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "repro" / "mod.py").write_text("x = 1\n")
    (tmp_path / "src" / "repro" / "sub" / "deep.py").write_text("x = 2\n")
    (tmp_path / "scripts" / "tool.py").write_text("y = 2\n")
    (tmp_path / "tests" / "helpers.py").write_text("z = 3\n")

    assert set(load_project(tmp_path).files) == {"src/repro/mod.py", "src/repro/sub/deep.py"}


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


def test_sarif_document_shape():
    from repro.lint.sarif import findings_to_sarif

    findings = lint_sources({"src/repro/diffusion/bad.py": RPL001_BAD})
    doc = findings_to_sarif(findings, default_checkers())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["RPL001", "RPL011"]
    result = run["results"][0]
    assert result["ruleId"] == "RPL001"
    assert result["ruleIndex"] == 0
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/diffusion/bad.py"
    assert location["region"]["startLine"] == findings[0].line


def test_cli_sarif_outputs(tmp_path):
    root = _write_tmp_repo(tmp_path)
    sarif_path = tmp_path / "findings.sarif"
    assert lint_main(["--root", str(root), "--sarif", str(sarif_path)]) == 1
    payload = json.loads(sarif_path.read_text())
    assert payload["runs"][0]["results"][0]["ruleId"] == "RPL001"


# ---------------------------------------------------------------------------
# time budget
# ---------------------------------------------------------------------------


def test_cli_time_budget(tmp_path, capsys):
    root = _write_tmp_repo(tmp_path, source="x = 1\n")
    assert lint_main(["--root", str(root), "--time-budget", "120"]) == 0
    capsys.readouterr()
    # An absurdly small budget trips exit code 3 even on a clean tree.
    assert lint_main(["--root", str(root), "--time-budget", "0"]) == 3
    assert "time budget exceeded" in capsys.readouterr().err


def _write_tmp_repo(tmp_path, source=RPL001_BAD):
    target = tmp_path / "src" / "repro" / "diffusion" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(source)
    return tmp_path


def test_cli_exit_codes_and_json(tmp_path, capsys):
    root = _write_tmp_repo(tmp_path)
    report = tmp_path / "findings.json"
    assert lint_main(["--root", str(root), "--json", str(report)]) == 1
    payload = json.loads(report.read_text())
    assert payload[0]["rule"] == "RPL001"
    assert payload[0]["path"] == "src/repro/diffusion/bad.py"
    out = capsys.readouterr().out
    assert "RPL001" in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for number in range(1, 12):
        assert (f"RPL{number:03d}" in out) == (number in (1, 11))
    # --list-rules also prints each rule's title.
    assert BackendDispatchChecker.title in out


def test_repro_cli_forwards_lint(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", "--list-rules"]) == 0
    assert "RPL001" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# RPL011 - quantized GEMMs must go through the backend dispatch
# ---------------------------------------------------------------------------

RPL011_BAD = """\
import numpy as np


def qk_scores(qq, dq, prev_k):
    s_int = qq @ prev_k
    s_int += np.matmul(dq, prev_k)
    s_int += np.einsum("bhtd,bhsd->bhts", dq, prev_k)
    return s_int
"""

RPL011_CLEAN = """\
import numpy as np

from repro.nn import backends


def qk_scores(qq, dq, prev_k, x, weight):
    bk = backends.active()
    s_int = bk.matmul(qq, prev_k)          # dispatched: fine
    s_int += bk.matmul(dq, prev_k)
    mixed = x @ weight                     # unquantized operands: fine
    probs = np.matmul(mixed, weight)       # unquantized np.matmul: fine
    return s_int + probs
"""


def test_rpl011_flags_raw_quantized_gemms():
    findings = lint_sources({"src/repro/quant/bad_gemm.py": RPL011_BAD})
    assert [f.rule for f in findings] == ["RPL011"] * 3
    assert [f.line for f in findings] == [5, 6, 7]
    assert "backend" in findings[0].message


def test_rpl011_clean_twin_is_quiet():
    assert lint_sources({"src/repro/quant/good_gemm.py": RPL011_CLEAN}) == []


def test_rpl011_backends_package_is_exempt():
    # The backends module IS the dispatch target; its neighbours are not.
    assert lint_sources({"src/repro/nn/backends.py": RPL011_BAD}) == []
    assert lint_sources({"src/repro/nn/backends_extra.py": RPL011_BAD}) != []


def test_rpl011_out_of_scope_dirs_are_quiet():
    assert lint_sources({"src/repro/workloads/bad_gemm.py": RPL011_BAD}) == []


def test_rpl011_pins_quantized_gemm_dispatch():
    # A raw QK^T product computes the same scores, so no sample moves and no
    # test fails; only the per-layer ledger silently loses the GEMM.
    findings = lint_seeded_mutation(
        "src/repro/quant/qlayers.py",
        "            s_int = bk.matmul(qq, kt)",
        "            s_int = qq @ kt",
    )
    assert [f.rule for f in findings] == ["RPL011"]
    assert "operand(s) qq " in findings[0].message
    # The stride-1 quantized conv's row-shift GEMMs are pinned the same way.
    findings = lint_seeded_mutation(
        "src/repro/quant/qlayers.py",
        "        conv = bk.matmul(self._w_rows[0], cols[:, :, :span])",
        "        conv = self._w_rows[0] @ cols[:, :, :span]",
    )
    assert [f.rule for f in findings] == ["RPL011"]


def test_rpl011_suppression():
    shielded = RPL011_BAD.replace(
        "    s_int = qq @ prev_k",
        "    s_int = qq @ prev_k  # repro-lint: ignore[RPL011]",
    )
    findings = lint_sources({"src/repro/quant/bad_gemm.py": shielded})
    assert [f.line for f in findings] == [6, 7]


# ---------------------------------------------------------------------------
# end to end: the repo itself is clean under every checker
# ---------------------------------------------------------------------------


def test_repo_is_clean():
    assert len(default_checkers()) == 2
    findings = run_lint(REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_checker_classes_cover_every_rule():
    rules = {DtypePromotionChecker.rule, BackendDispatchChecker.rule}
    assert rules == {"RPL001", "RPL011"}
    assert {c.rule for c in default_checkers()} == rules
