"""Self-tests of the benchmark: tiny-size runs of every workload, the
tracer's clean uninstall, repeatable mechanism counts, and agreement between
``run.py`` and ``BENCHMARK.json``.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer, find_wrappers

ROOT = Path(__file__).resolve().parent.parent

MECHANISM = (
    "core.trace.records",
    "core.bitwidth.temporal_zero_frac",
    "core.bitwidth.temporal_low_or_zero_frac",
    "core.bops.temporal_relative_bops",
    "hw.ditto_speedup_vs_itc",
    "hw.ditto_energy_vs_itc",
)


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _smoke(name, trace, seed=3):
    result, report = run.run(name, seed, 0.0, trace, size=workloads.SMOKE)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, report


def _values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name):
    result, _ = _smoke(name, trace=0)
    values = _values(result)
    assert list(values) == [metric for metric, _ in run.END_TO_END]
    assert all(value > 0 for value in values.values())

    result, report = _smoke(name, trace=1)
    values = _values(result)
    assert list(values) == [metric for metric, _ in run.PER_LAYER]
    assert values["diffusion.pipeline.model_calls"] > 0
    assert values["nn.backends.gemm_calls"] > 0
    assert 0.0 <= values["unattributed_s"] <= values["traced_wall_s"]
    session = [v for k, v in values.items() if k.startswith("core.session.")]
    classify = [
        values[k] for k in (
            "core.bitwidth.classify_s", "core.bitwidth.classified_elems",
            "core.trace.records",
        )
    ]
    if name == "serve-ddpm-c4":
        assert all(v > 0 for v in session[:1] + session[2:])
    else:
        assert not any(session)
    if name == "analyze-dit-b1":
        assert all(v > 0 for v in classify)
    else:
        assert not any(classify)
    assert find_wrappers() == []
    assert (ROOT / report["spans_file"]).is_file()


def test_tracer_restores_every_entry_point():
    from repro.core.bitwidth import classify
    from repro.quant import qlayers

    forward = qlayers.QConv2d.__dict__["forward"]
    tracer = Tracer()
    with tracer:
        wrapped = find_wrappers()
        assert "repro.quant.qlayers.QConv2d.forward" in wrapped
        assert "repro.quant.qlayers.classify" in wrapped
    assert find_wrappers() == []
    assert qlayers.QConv2d.__dict__["forward"] is forward
    assert qlayers.classify is classify


@pytest.mark.parametrize("name", ["analyze-dit-b1", "serve-ddpm-c4"])
def test_mechanism_counts_repeat_for_one_seed(name):
    first = _values(_smoke(name, trace=1, seed=5)[0])
    second = _values(_smoke(name, trace=1, seed=5)[0])
    assert {k: first[k] for k in MECHANISM} == {k: second[k] for k in MECHANISM}
    assert first["core.bops.temporal_relative_bops"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-ddpm-b4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
