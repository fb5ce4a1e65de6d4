"""Checker-level tests for ``repro lint`` (the syntactic rules RPL001-RPL006)
plus the shared framework: suppression edge cases, baselines, scopes, SARIF
and the CLI.  The dataflow rules RPL007-RPL010 live in
``tests/test_lint_dataflow.py``.

Each rule gets a violating fixture proving it fires and a clean twin proving
it stays quiet, plus the end-to-end assertion that the repo itself is clean.
"""

import json
from pathlib import Path

import repro
from repro.lint import Project, default_checkers, main as lint_main, run_checkers, run_lint
from repro.lint.checkers import (
    DtypePromotionChecker,
    GemmLayoutChecker,
    ProfilerPhaseChecker,
    SpecCacheKeyChecker,
    SwallowedExceptionChecker,
)

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def lint_sources(sources, aux=None, checkers=None):
    project = Project.from_sources(sources, aux)
    return run_checkers(project, checkers or default_checkers())


def rules_of(findings):
    return {f.rule for f in findings}


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


# ---------------------------------------------------------------------------
# RPL003 - spec/cache-key coverage
# ---------------------------------------------------------------------------

RPL003_SUITE_BAD = """\
class BenchmarkSpec:
    name: str
    knob: int

    def signature(self):
        return {"name": self.name}
"""

RPL003_HASHING_BAD = """\
def spec_signature(spec):
    return {"name": spec.name}
"""

RPL003_SUITE_CLEAN = RPL003_SUITE_BAD.replace(
    'return {"name": self.name}', 'return {"name": self.name, "knob": self.knob}'
)
RPL003_HASHING_CLEAN = RPL003_HASHING_BAD.replace(
    'return {"name": spec.name}',
    'return {"name": spec.name, "knob": getattr(spec, "knob", None)}',
)


def test_rpl003_flags_uncovered_field():
    findings = lint_sources(
        {
            "src/repro/workloads/suite.py": RPL003_SUITE_BAD,
            "src/repro/runtime/hashing.py": RPL003_HASHING_BAD,
        },
        checkers=[SpecCacheKeyChecker()],
    )
    assert len(findings) == 1
    assert "'knob'" in findings[0].message
    assert "signature()" in findings[0].message
    assert "spec_signature()" in findings[0].message


def test_rpl003_clean_twin_is_quiet():
    findings = lint_sources(
        {
            "src/repro/workloads/suite.py": RPL003_SUITE_CLEAN,
            "src/repro/runtime/hashing.py": RPL003_HASHING_CLEAN,
        },
        checkers=[SpecCacheKeyChecker()],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RPL004 - profiler-phase coverage
# ---------------------------------------------------------------------------

RPL004_FUNCTIONAL_BAD = """\
from .. import profiling


def group_norm(x):
    return x


def layer_norm(x):
    prof = profiling.active()
    if prof:
        prof.add("mystery", 1.0)
    return x


def im2col(x):
    prof = profiling.active()
    if prof:
        prof.add("im2col", 1.0)
    return x


def im2col_t(x):
    prof = profiling.active()
    if prof:
        prof.add("im2col", 1.0)
    return x
"""

RPL004_FUNCTIONAL_CLEAN = RPL004_FUNCTIONAL_BAD.replace(
    "def group_norm(x):\n    return x",
    'def group_norm(x):\n    prof = profiling.active()\n'
    '    if prof:\n        prof.add("norm", 1.0)\n    return x',
).replace('"mystery"', '"norm"')

RPL004_GATES = "norm im2col calibration trajectory quantize"


def _rpl004_project(functional_src):
    return {
        "src/repro/nn/functional.py": functional_src,
        "src/repro/bench.py": f'"""{RPL004_GATES}"""\n',
    }


def test_rpl004_flags_unprofiled_entry_point_and_unknown_bucket():
    findings = lint_sources(
        _rpl004_project(RPL004_FUNCTIONAL_BAD),
        aux={"scripts/check_bench.py": RPL004_GATES},
        checkers=[ProfilerPhaseChecker()],
    )
    messages = "\n".join(f.message for f in findings)
    assert "'group_norm'" in messages  # lost its hook
    assert "'mystery'" in messages  # bucket unknown to both gate files
    assert len([f for f in findings if "mystery" in f.message]) == 2


def test_rpl004_clean_twin_is_quiet():
    findings = lint_sources(
        _rpl004_project(RPL004_FUNCTIONAL_CLEAN),
        aux={"scripts/check_bench.py": RPL004_GATES},
        checkers=[ProfilerPhaseChecker()],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RPL005 - GEMM layout discipline
# ---------------------------------------------------------------------------

RPL005_BAD = """\
import numpy as np

from ..nn import functional as F


def run(cols, w, out_hw, a, b):
    part = F.conv2d_from_cols_t(cols.T, w, out_hw)
    return part + np.matmul(a, b.transpose(1, 0))
"""

RPL005_CLEAN = """\
import numpy as np

from ..nn import functional as F


def run(cols, w, out_hw, a, b):
    part = F.conv2d_from_cols_t(np.ascontiguousarray(cols.T), w, out_hw)
    return part + np.matmul(a, np.ascontiguousarray(b.transpose(1, 0)))
"""


def test_rpl005_flags_strided_views_into_gemms():
    findings = lint_sources({"src/repro/quant/bad.py": RPL005_BAD})
    assert [f.rule for f in findings] == ["RPL005", "RPL005"]
    assert "cols.T" in findings[0].message
    assert "ascontiguousarray" in findings[0].message


def test_rpl005_clean_twin_is_quiet():
    assert lint_sources({"src/repro/quant/good.py": RPL005_CLEAN}) == []


# ---------------------------------------------------------------------------
# RPL006 - swallowed exceptions in the serving stack
# ---------------------------------------------------------------------------

RPL006_BAD = """\
def step(session):
    try:
        session.forward()
    except ValueError:
        pass
    try:
        session.forward()
    except Exception as exc:
        log(exc)
"""

RPL006_CLEAN = """\
def step(session):
    try:
        session.forward()
    except ValueError:
        raise
    try:
        session.forward()
    except Exception as exc:
        session.mark_unhealthy(str(exc))
    try:
        session.forward()
    except RuntimeError:
        if not session.healthy:
            return None
    try:
        session.forward()
    except OSError:  # terminal by design  # repro-lint: ignore[RPL006]
        log("gone")
"""


def test_rpl006_flags_swallowed_exceptions():
    findings = lint_sources({"src/repro/core/session.py": RPL006_BAD})
    assert [f.rule for f in findings] == ["RPL006", "RPL006"]
    assert "swallows the exception" in findings[0].message
    assert "ValueError" in findings[0].message
    assert "ignore[RPL006]" in findings[0].message


def test_rpl006_clean_twin_is_quiet():
    assert lint_sources({"src/repro/runtime/serving.py": RPL006_CLEAN}) == []


def test_rpl006_only_applies_to_serving_stack():
    # The same swallowing handler elsewhere is out of scope: RPL006 guards
    # the session-health contract, not general exception hygiene.
    assert lint_sources({"src/repro/runtime/runner.py": RPL006_BAD}) == []
    assert lint_sources({"src/repro/diffusion/samplers.py": RPL006_BAD}) == []


# ---------------------------------------------------------------------------
# framework: suppression, baseline, CLI
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
        "return np.sqrt(a_bar) * x  # repro-lint: ignore[RPL005]",
    )
    assert len(lint_sources({"src/repro/diffusion/bad.py": wrong})) == 1


# RPL004 anchors on the `def` line, so an unprofiled entry point behind a
# decorator chain exercises the decorated-def suppression path end to end.
RPL004_DECORATED = """\
import functools


{comment}@functools.lru_cache(maxsize=1)
@functools.wraps(object)
def group_norm(x):
    return x
"""


def test_suppression_standalone_comment_skips_blank_lines():
    source = RPL001_BAD.replace(
        "    return np.sqrt(a_bar) * x",
        "    # repro-lint: ignore[RPL001]\n\n    # unrelated note\n\n"
        "    return np.sqrt(a_bar) * x",
    )
    assert lint_sources({"src/repro/diffusion/bad.py": source}) == []


def test_suppression_covers_decorated_def():
    bad = RPL004_DECORATED.format(comment="")
    findings = lint_sources({"src/repro/nn/functional.py": bad})
    assert [f.rule for f in findings] == ["RPL004"]
    assert findings[0].line == 6  # the `def` line, not the decorator line

    for comment in ("# repro-lint: ignore[RPL004]\n", "# repro-lint: ignore[*]\n"):
        shielded = RPL004_DECORATED.format(comment=comment)
        assert lint_sources({"src/repro/nn/functional.py": shielded}) == []


def test_baseline_key_is_line_free_but_rename_sensitive():
    findings = lint_sources({"src/repro/diffusion/bad.py": RPL001_BAD})
    key = findings[0].key
    # Edits above the finding shift lines but keep the key stable...
    shifted = "import math  # unrelated new line\n" + RPL001_BAD
    moved = lint_sources({"src/repro/diffusion/bad.py": shifted})
    assert moved[0].line == findings[0].line + 1
    assert moved[0].key == key
    # ...while renaming the file changes the key: a baselined finding in a
    # renamed file resurfaces for re-triage instead of staying hidden.
    renamed = lint_sources({"src/repro/diffusion/renamed.py": RPL001_BAD})
    assert renamed[0].key != key
    assert renamed[0].key.replace("renamed.py", "bad.py") == key


# ---------------------------------------------------------------------------
# scopes: scripts/ + tests/helpers.py coverage with per-rule opt-in
# ---------------------------------------------------------------------------


def test_scope_of_paths():
    from repro.lint.framework import _scope_of

    assert _scope_of("src/repro/nn/functional.py") == "src"
    assert _scope_of("scripts/check_bench.py") == "scripts"
    assert _scope_of("tests/helpers.py") == "tests"


def test_scoped_rules_skip_out_of_scope_files():
    # RPL001 declares scope {src}: the same violating code in scripts/ or
    # tests/helpers.py (test-only idioms) must stay quiet.
    assert lint_sources({"scripts/bad.py": RPL001_BAD}) == []
    assert lint_sources({"tests/helpers.py": RPL001_BAD}) == []


def test_load_project_scope_selection(tmp_path):
    from repro.lint import load_project

    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "repro" / "mod.py").write_text("x = 1\n")
    (tmp_path / "scripts" / "tool.py").write_text("y = 2\n")
    (tmp_path / "tests" / "helpers.py").write_text("z = 3\n")
    (tmp_path / "tests" / "test_mod.py").write_text("bad = 4\n")

    everything = load_project(tmp_path)
    assert set(everything.files) == {
        "src/repro/mod.py",
        "scripts/tool.py",
        "tests/helpers.py",  # test *modules* are never loaded
    }
    assert everything.files["scripts/tool.py"].scope == "scripts"
    src_only = load_project(tmp_path, scopes=["src"])
    assert set(src_only.files) == {"src/repro/mod.py"}


def test_cli_scope_knob(tmp_path, capsys):
    root = _write_tmp_repo(tmp_path)
    assert lint_main(["--root", str(root), "--scope", "scripts,tests"]) == 0
    capsys.readouterr()
    assert lint_main(["--root", str(root), "--scope", "src"]) == 1
    capsys.readouterr()
    assert lint_main(["--root", str(root), "--scope", "bogus"]) == 2
    assert "unknown scope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


def test_sarif_document_shape():
    from repro.lint.sarif import findings_to_sarif

    checkers = default_checkers()
    findings = lint_sources({"src/repro/diffusion/bad.py": RPL001_BAD})
    baseline = {findings[0].key}
    doc = findings_to_sarif(findings, checkers, baseline)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == [f"RPL{n:03d}" for n in range(1, 12) if n != 2]
    result = run["results"][0]
    assert result["ruleId"] == "RPL001"
    assert result["baselineState"] == "unchanged"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/diffusion/bad.py"
    assert location["region"]["startLine"] == findings[0].line
    # Without the baseline the same finding surfaces as new.
    fresh = findings_to_sarif(findings, checkers, None)
    assert fresh["runs"][0]["results"][0]["baselineState"] == "new"


def test_cli_sarif_outputs(tmp_path, capsys):
    root = _write_tmp_repo(tmp_path)
    sarif_path = tmp_path / "findings.sarif"
    assert lint_main(["--root", str(root), "--sarif", str(sarif_path)]) == 1
    payload = json.loads(sarif_path.read_text())
    assert payload["runs"][0]["results"][0]["ruleId"] == "RPL001"
    capsys.readouterr()
    assert lint_main(["--root", str(root), "--format", "sarif"]) == 1
    stdout_doc = json.loads(capsys.readouterr().out)
    assert stdout_doc["version"] == "2.1.0"


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


def test_cli_baseline_accepts_known_findings(tmp_path, capsys):
    root = _write_tmp_repo(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert lint_main(["--root", str(root), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert lint_main(["--root", str(root), "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().out
    # A fresh violation still fails against the old baseline.
    extra = root / "src" / "repro" / "diffusion" / "worse.py"
    extra.write_text(RPL001_BAD)
    assert lint_main(["--root", str(root), "--baseline", str(baseline)]) == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for number in range(1, 12):
        assert (f"RPL{number:03d}" in out) == (number != 2)
    # --list-rules also advertises each rule's scopes.
    assert "[src]" in out
    assert "src,tests" in out or "tests" in out


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

RPL011_SCALAR = """\
def blend(other):
    q_gain = 0.5
    return q_gain @ other
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


def test_rpl011_dataflow_clears_scalar_operands():
    # A provably-scalar float knob reusing a quantized-sounding name is not
    # a GEMM; the dataflow refinement keeps the rule quiet.
    assert lint_sources({"src/repro/quant/scalar.py": RPL011_SCALAR}) == []


def test_rpl011_suppression():
    shielded = RPL011_BAD.replace(
        "    s_int = qq @ prev_k",
        "    s_int = qq @ prev_k  # repro-lint: ignore[RPL011]",
    )
    findings = lint_sources({"src/repro/quant/bad_gemm.py": shielded})
    assert [f.line for f in findings] == [6, 7]


# ---------------------------------------------------------------------------
# end to end: the repo itself is clean under all ten checkers
# ---------------------------------------------------------------------------


def test_repo_is_clean():
    assert len(default_checkers()) == 10
    findings, new = run_lint(REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)
    assert new == []


def test_checker_classes_cover_every_rule():
    from repro.lint.checkers import BackendDispatchChecker
    from repro.lint.dataflow import (
        DtypeFlowChecker,
        LayoutFlowChecker,
        RngStreamChecker,
        SessionLifecycleChecker,
    )

    rules = {
        DtypePromotionChecker.rule,
        SpecCacheKeyChecker.rule,
        ProfilerPhaseChecker.rule,
        GemmLayoutChecker.rule,
        SwallowedExceptionChecker.rule,
        DtypeFlowChecker.rule,
        LayoutFlowChecker.rule,
        RngStreamChecker.rule,
        SessionLifecycleChecker.rule,
        BackendDispatchChecker.rule,
    }
    assert rules == {f"RPL{n:03d}" for n in range(1, 12)} - {"RPL002"}
    assert {c.rule for c in default_checkers()} == rules
