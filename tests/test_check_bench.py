"""Tests for the CI perf gate (``scripts/check_bench.py``).

The gate runs perfbench and compares the measurement with a committed
record.  These tests start no perfbench run: they gate synthetic records
through ``compare`` and ``main`` (with ``measure`` replaced), and check the
committed ``BENCH_PR32.json`` against ``BENCHMARK.json``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "check_bench.py"
_SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(check_bench, calls=400.0):
    per_layer = {name + check_bench.PER_CALL_SUFFIX: 1e-3 for name in check_bench.PER_CALL}
    per_layer.update({name: 0.2 for name in check_bench.PER_RUN})
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "end_to_end": {
            "setup_s": 0.3,
            "gen_samples_per_s": 5.0,
            "latency_p50_s": 0.8,
            "peak_rss_mb": 70.0,
        },
        "per_layer": per_layer,
        "model_calls": calls,
        "probe_scale": 1.0,
    }


def _record(check_bench, **kwargs):
    return {
        "seed": check_bench.SEED,
        "seconds": check_bench.SECONDS,
        "workloads": {w["name"]: _entry(check_bench, **kwargs) for w in _SPEC["workloads"]},
    }


def _gate(check_bench, record, fresh):
    return check_bench.compare(_SPEC, record, fresh)[1]


def test_gate_passes_on_identical_records(check_bench):
    record = _record(check_bench)
    rows, failures = check_bench.compare(_SPEC, record, copy.deepcopy(record))
    assert failures == []
    per_workload = len(_SPEC["end_to_end"]) + len(check_bench.PER_CALL + check_bench.PER_RUN)
    assert len(rows) == len(_SPEC["workloads"]) * per_workload


def test_gate_fails_on_synthetic_slowdown(check_bench):
    """2.1x worse fails in either direction: fewer samples per second
    (``higher`` is better) or a longer set-up (``lower`` is better)."""
    record = _record(check_bench)
    for workload in record["workloads"]:
        for metric, slower in (("gen_samples_per_s", 5.0 / 2.1), ("setup_s", 0.3 * 2.1)):
            fresh = copy.deepcopy(record)
            fresh["workloads"][workload]["end_to_end"][metric] = slower
            failures = _gate(check_bench, record, fresh)
            assert len(failures) == 1
            assert failures[0].startswith(f"{workload} {metric}:")
        fresh = copy.deepcopy(record)
        fresh["workloads"][workload]["end_to_end"]["gen_samples_per_s"] = 5.0 / 1.9
        assert _gate(check_bench, record, fresh) == []


def test_gate_fails_on_incorrect_run(check_bench):
    record = _record(check_bench)
    for field, value in (("correct", False), ("failed", 1)):
        fresh = copy.deepcopy(record)
        fresh["workloads"]["serve-ddpm-c4"][field] = value
        failures = _gate(check_bench, record, fresh)
        assert len(failures) == 1 and failures[0].startswith("serve-ddpm-c4: correct")


def test_phase_bucket_regression_fails_alone(check_bench):
    """A per-layer timing that more than doubles fails while every
    end-to-end metric holds."""
    record = _record(check_bench)
    for metric in record["workloads"]["replay-ddpm-b4"]["per_layer"]:
        fresh = copy.deepcopy(record)
        fresh["workloads"]["replay-ddpm-b4"]["per_layer"][metric] *= 2.5
        failures = _gate(check_bench, record, fresh)
        assert len(failures) == 1
        assert failures[0].startswith(f"replay-ddpm-b4 {metric}:")
        assert failures[0].endswith("2.50x worse")


def test_build_win_cannot_mask_run_regression(check_bench):
    record = _record(check_bench)
    fresh = copy.deepcopy(record)
    fresh["workloads"]["analyze-dit-b1"]["end_to_end"]["setup_s"] = 0.1
    fresh["workloads"]["analyze-dit-b1"]["per_layer"]["core.engine.build_s"] = 0.05
    fresh["workloads"]["analyze-dit-b1"]["end_to_end"]["latency_p50_s"] = 0.8 * 2.2
    failures = _gate(check_bench, record, fresh)
    assert len(failures) == 1 and failures[0].startswith("analyze-dit-b1 latency_p50_s:")


def test_gate_ignores_sub_min_delta_jitter(check_bench):
    """A per-run timing 10x worse by 18 ms is under the 50 ms floor."""
    record = _record(check_bench)
    for entry in record["workloads"].values():
        entry["per_layer"]["runtime.cache.get_s"] = 0.002
    fresh = copy.deepcopy(record)
    fresh["workloads"]["replay-ddpm-b4"]["per_layer"]["runtime.cache.get_s"] = 0.02
    assert _gate(check_bench, record, fresh) == []


def test_phase_buckets_respect_min_delta_and_normalization(check_bench):
    """A per-call timing's excess counts against the floor over the
    record's denoiser calls; a host-speed change cancels in the probe
    scale."""
    metric = "nn.functional.norm_s" + check_bench.PER_CALL_SUFFIX
    for calls, fails in ((10.0, False), (400.0, True)):
        record = _record(check_bench, calls=calls)
        fresh = copy.deepcopy(record)
        fresh["workloads"]["replay-ddpm-b4"]["per_layer"][metric] = 3e-3  # 3x
        assert bool(_gate(check_bench, record, fresh)) is fails
    traced = _traced_result(check_bench, seconds=0.4, calls=400.0)
    plain = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    slow_host = _slow_pass(traced, 2.0)
    assert (check_bench.summarize(plain, [slow_host], [0.5])["per_layer"]
            == check_bench.summarize(plain, [traced], [1.0])["per_layer"])


def _traced_result(check_bench, seconds, calls):
    metrics = {
        name: {"value": seconds, "unit": "s"}
        for name in check_bench.PER_CALL + check_bench.PER_RUN
    }
    metrics[check_bench.CALLS] = {"value": calls, "unit": "count"}
    metrics["nn.backends.im2col_elems"] = {"value": 1e6, "unit": "elems"}
    metrics["nn.backends.gemm_calls"] = {"value": 900.0, "unit": "count"}
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def test_gate_normalizes_by_host_speed_index(check_bench):
    """The traced run's seconds are scaled by the host probe; the kernel
    buckets are per denoiser call."""
    traced = _traced_result(check_bench, seconds=0.4, calls=200.0)
    plain = {
        "correct": True, "attempted": 2, "failed": 0,
        "metrics": {"setup_s": {"value": 0.3, "unit": "s"}},
    }
    entry = check_bench.summarize(plain, [traced], [0.5])
    for name in check_bench.PER_CALL:
        assert entry["per_layer"][name + check_bench.PER_CALL_SUFFIX] == pytest.approx(1e-3)
    for name in check_bench.PER_RUN:
        assert entry["per_layer"][name] == pytest.approx(0.2)
    assert entry["end_to_end"] == {"setup_s": 0.3}
    assert (entry["correct"], entry["attempted"], entry["model_calls"]) == (True, 3, 200.0)


def _slow_pass(traced, factor):
    slow = copy.deepcopy(traced)
    for entry in slow["metrics"].values():
        if entry["unit"] == "s":
            entry["value"] *= factor
    return slow


def test_per_layer_timings_are_the_median_of_the_traced_passes(check_bench):
    """One traced pass at 3x (or 10x, which a mean would not absorb) out of
    three passes the gate; two at 3x fail it on every per-layer timing."""
    traced = _traced_result(check_bench, seconds=0.4, calls=400.0)
    plain = {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in _SPEC["end_to_end"]},
    }
    assert check_bench.PASSES == 3
    recorded = check_bench.summarize(plain, [traced] * 3, [1.0] * 3)
    record = {"workloads": {w["name"]: recorded for w in _SPEC["workloads"]}}
    for factor, slow_passes, fails in ((3.0, 1, False), (10.0, 1, False), (3.0, 2, True)):
        fresh = copy.deepcopy(record)
        passes = [_slow_pass(traced, factor)] * slow_passes + [traced] * (3 - slow_passes)
        fresh["workloads"]["analyze-dit-b1"] = check_bench.summarize(plain, passes, [1.0] * 3)
        failed = sorted(f.split(": ")[0] for f in _gate(check_bench, record, fresh))
        assert failed == ([f"analyze-dit-b1 {metric}" for metric in sorted(recorded["per_layer"])]
                          if fails else [])


def test_every_traced_pass_counts_for_correctness(check_bench):
    traced = _traced_result(check_bench, seconds=0.4, calls=400.0)
    plain = {"correct": True, "attempted": 2, "failed": 0, "metrics": {}}
    failed_pass = {**traced, "failed": 1}
    entry = check_bench.summarize(plain, [traced, failed_pass, traced], [1.0] * 3)
    assert (entry["correct"], entry["attempted"], entry["failed"]) == (True, 5, 1)
    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    entry = check_bench.summarize(plain, [traced, traced, broken], [1.0] * 3)
    assert entry["correct"] is False
    assert entry["per_layer"] == check_bench.summarize(plain, [traced], [1.0])["per_layer"]


def test_elems_counters_are_not_gated_as_timings(check_bench):
    traced = _traced_result(check_bench, seconds=0.4, calls=200.0)
    plain = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    per_layer = check_bench.summarize(plain, [traced], [1.0])["per_layer"]
    assert set(per_layer) == (
        {name + check_bench.PER_CALL_SUFFIX for name in check_bench.PER_CALL}
        | set(check_bench.PER_RUN)
    )


def test_gate_speedups_and_new_entries_pass(check_bench):
    record = _record(check_bench)
    fresh = copy.deepcopy(record)
    for entry in fresh["workloads"].values():
        entry["end_to_end"]["gen_samples_per_s"] *= 3
        entry["end_to_end"]["setup_s"] /= 3
        entry["per_layer"] = {name: v / 3 for name, v in entry["per_layer"].items()}
        entry["per_layer"]["new.layer_s"] = 9.0
    assert _gate(check_bench, record, fresh) == []


def test_phaseless_records_still_compare(check_bench):
    """A record without per-layer timings still gates the end-to-end ones."""
    record = _record(check_bench)
    for entry in record["workloads"].values():
        entry["per_layer"] = {}
    fresh = copy.deepcopy(record)
    assert _gate(check_bench, record, fresh) == []
    fresh["workloads"]["replay-ddpm-b4"]["end_to_end"]["peak_rss_mb"] = 150.0
    assert _gate(check_bench, record, fresh)[0].startswith("replay-ddpm-b4 peak_rss_mb:")


def test_gate_fails_on_missing_entries(check_bench):
    """A workload, end-to-end metric or per-layer timing without a value
    fails: a failed perfbench run reports none."""
    record = _record(check_bench)
    fresh = copy.deepcopy(record)
    del fresh["workloads"]["analyze-dit-b1"]
    del fresh["workloads"]["serve-ddpm-c4"]["end_to_end"]["latency_p50_s"]
    del fresh["workloads"]["replay-ddpm-b4"]["per_layer"]["core.plan.derive_s"]
    assert sorted(_gate(check_bench, record, fresh)) == [
        "analyze-dit-b1: missing from the fresh measurement",
        "replay-ddpm-b4 core.plan.derive_s: no value",
        "serve-ddpm-c4 latency_p50_s: no value",
    ]
    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    entry = check_bench.summarize(broken, [broken], [1.0])
    assert (entry["correct"], entry["end_to_end"], entry["per_layer"]) == (False, {}, {})


def test_gate_errors_on_unreadable_records(tmp_path, check_bench, monkeypatch):
    def no_measure(workloads):
        raise AssertionError("measured before reading the record")

    monkeypatch.setattr(check_bench, "measure", no_measure)
    assert check_bench.main(["--baseline", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert check_bench.main(["--baseline", str(bad)]) == 2


def test_gate_against_committed_baseline(tmp_path, check_bench, monkeypatch, capsys):
    """``main`` measures every BENCHMARK.json workload, writes the fresh
    record, and passes the committed record against itself."""
    committed = json.loads((_ROOT / "BENCH_PR32.json").read_text())
    measured = []

    def fake_measure(workloads):
        measured.extend(workloads)
        return committed

    monkeypatch.setattr(check_bench, "measure", fake_measure)
    monkeypatch.setattr(check_bench, "FRESH", tmp_path / "fresh.json")
    assert check_bench.main(["--baseline", str(_ROOT / "BENCH_PR32.json")]) == 0
    assert measured == [w["name"] for w in _SPEC["workloads"]]
    assert json.loads((tmp_path / "fresh.json").read_text()) == committed
    assert "OK" in capsys.readouterr().out


def test_write_mode_refuses_a_failed_measurement(tmp_path, check_bench, monkeypatch):
    record = _record(check_bench)
    monkeypatch.setattr(check_bench, "measure", lambda workloads: record)
    monkeypatch.setattr(check_bench, "FRESH", tmp_path / "fresh.json")
    out = tmp_path / "record.json"
    assert check_bench.main(["--baseline", str(out), "--write"]) == 0
    assert json.loads(out.read_text()) == record
    record["workloads"]["serve-ddpm-c4"]["correct"] = False
    out.unlink()
    assert check_bench.main(["--baseline", str(out), "--write"]) == 1
    assert not out.exists()


def test_committed_record_covers_every_workload_and_metric(check_bench):
    """A workload or end-to-end metric added to BENCHMARK.json cannot go
    ungated: the committed record has exactly their product, every
    per-layer timing, and passed its own checks."""
    committed = json.loads((_ROOT / "BENCH_PR32.json").read_text())
    assert (committed["seed"], committed["seconds"]) == (check_bench.SEED, check_bench.SECONDS)
    assert set(committed["workloads"]) == {w["name"] for w in _SPEC["workloads"]}
    per_layer = {name + check_bench.PER_CALL_SUFFIX for name in check_bench.PER_CALL}
    per_layer |= set(check_bench.PER_RUN)
    for entry in committed["workloads"].values():
        assert set(entry["end_to_end"]) == {m["name"] for m in _SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == per_layer
        assert entry["correct"] and entry["failed"] == 0
