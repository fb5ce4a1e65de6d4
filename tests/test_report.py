"""Unit tests for the columnar hardware report."""

import pytest

from repro.hw.report import HardwareReport


def layer(name="l", step=0, compute=10.0, memory=5.0, encode=1.0, vpu=2.0,
          energy=None, bytes_moved=100):
    """One record's stage cycles, energy and traffic."""
    return {
        "name": name,
        "step": step,
        "compute": compute,
        "memory": memory,
        "encode": encode,
        "vpu": vpu,
        "energy": energy or {"compute": 3.0, "sram": 1.0},
        "bytes_moved": bytes_moved,
    }


def report(*layers, hardware="X"):
    """A report over ``layers``; absent energy components count as 0 pJ."""
    names = list(dict.fromkeys(rec["name"] for rec in layers))
    components = list(dict.fromkeys(k for rec in layers for k in rec["energy"]))
    return HardwareReport.from_arrays(
        hardware=hardware,
        layer_names=names,
        layer_ids=[names.index(rec["name"]) for rec in layers],
        step_index=[rec["step"] for rec in layers],
        compute=[rec["compute"] for rec in layers],
        memory=[rec["memory"] for rec in layers],
        encode=[rec["encode"] for rec in layers],
        vpu=[rec["vpu"] for rec in layers],
        energy={
            k: [rec["energy"].get(k, 0.0) for rec in layers] for k in components
        },
        bytes_moved=[rec["bytes_moved"] for rec in layers],
    )


def test_layer_cycles_is_stage_max():
    assert report(layer(compute=10, memory=25)).total_cycles == 25.0
    assert report(layer(compute=10, memory=5)).total_cycles == 10.0


def test_stall_only_when_memory_bound():
    assert report(layer(compute=10, memory=25)).stall_cycles == 15.0
    assert report(layer(compute=10, memory=5)).stall_cycles == 0.0


def test_layer_total_energy():
    assert report(layer()).total_energy_pj == pytest.approx(4.0)


def test_report_totals():
    both = report(
        layer(name="a", compute=10, memory=5),
        layer(name="b", compute=10, memory=30),
    )
    assert len(both) == 2
    assert both.total_cycles == 40.0
    assert both.stall_cycles == 20.0
    assert both.total_bytes == 200
    assert both.total_energy_pj == pytest.approx(8.0)


def test_report_compute_cycles_capped_by_layer_time():
    # The compute engine is busy at most the layer's wall time.
    assert report(layer(compute=10, memory=30)).compute_cycles == 10.0


def test_energy_breakdown_merges_components():
    breakdown = report(
        layer(energy={"compute": 1.0, "dram": 2.0}),
        layer(energy={"compute": 3.0, "vpu": 4.0}),
    ).energy_breakdown_pj()
    assert breakdown == {"compute": 4.0, "dram": 2.0, "vpu": 4.0}


def test_grouping_helpers():
    grouped = report(
        layer(name="a", step=0),
        layer(name="a", step=1),
        layer(name="b", step=1),
    )
    by_layer = grouped.cycles_by_layer()
    by_step = grouped.cycles_by_step()
    assert set(by_layer) == {"a", "b"}
    assert by_layer["a"] == 2 * report(layer()).total_cycles
    assert set(by_step) == {0, 1}


def test_comparison_helpers():
    fast = report(layer(compute=10, memory=0, encode=0, vpu=0), hardware="fast")
    slow = report(layer(compute=40, memory=0, encode=0, vpu=0), hardware="slow")
    assert fast.speedup_over(slow) == 4.0
    assert slow.relative_energy(fast) == pytest.approx(1.0)
    assert fast.relative_memory_accesses(slow) == pytest.approx(1.0)


def test_empty_report_edge_cases():
    empty = report(hardware="E")
    other = report(layer(), hardware="O")
    assert empty.speedup_over(other) == float("inf")
    assert empty.relative_memory_accesses(other) == 0.0
    assert other.relative_memory_accesses(empty) == float("inf")


def test_summary_format():
    text = report(layer(), hardware="Ditto").summary()
    assert "Ditto" in text and "cycles" in text and "bytes" in text
