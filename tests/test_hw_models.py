"""Unit tests for the hardware cycle/energy models (Table III designs)."""

import pytest

from repro.core import ExecutionMode
from repro.hw import (
    DBDS_CONFIG,
    DB_CONFIG,
    DS_CONFIG,
    TABLE_III,
    AdderTreeAccelerator,
    CambriconDAccelerator,
    GPUModel,
    build_accelerator,
    get_config,
)

from helpers import lower_one, make_rich

MACS = 10_000  # make_rich()


def lowered(mode=ExecutionMode.TEMPORAL, **kwargs):
    return lower_one(make_rich(**kwargs), mode)


def compute(hw, trace):
    (value,) = hw.compute_cycles_array(trace).tolist()
    return value


def energy(hw, trace):
    """Energy components (pJ) of a one-record trace."""
    return hw.run(trace).energy_breakdown_pj()


# -- Table III configuration -------------------------------------------------

def test_table_iii_pe_counts():
    assert TABLE_III["ITC"].num_mults == 27648
    assert TABLE_III["Diffy"].num_mults == 39398
    assert TABLE_III["Ditto"].num_mults == 39398
    camd = TABLE_III["Cambricon-D"]
    assert camd.num_mults == 38280
    assert camd.outlier_mults == 2552


def test_table_iii_shared_budget():
    """SRAM / area / frequency are fixed across designs (iso-area)."""
    for cfg in TABLE_III.values():
        assert cfg.sram_mb == 192
        assert cfg.area_mm2 == pytest.approx(64.48)
        assert cfg.freq_ghz == 1.0


def test_only_ditto_has_both_mechanisms():
    assert TABLE_III["Ditto"].supports_zero_skip
    assert TABLE_III["Ditto"].supports_dyn_bitwidth
    assert not TABLE_III["ITC"].supports_zero_skip
    assert not TABLE_III["Diffy"].supports_zero_skip


def test_dense_macs_per_cycle():
    assert TABLE_III["ITC"].dense_macs_per_cycle == 27648
    assert TABLE_III["Ditto"].dense_macs_per_cycle == 19699.0


def test_get_config_unknown():
    with pytest.raises(ValueError):
        get_config("TPU")


# -- compute-cycle formulas --------------------------------------------------

def test_itc_dense_cycles():
    itc = AdderTreeAccelerator(get_config("ITC"))
    step = lowered(ExecutionMode.DENSE)
    assert compute(itc, step) == pytest.approx(MACS / 27648)


def test_ditto_dense_pairs_lanes():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    step = lowered(ExecutionMode.DENSE)
    assert compute(ditto, step) == pytest.approx(2 * MACS / 39398)


def test_ditto_temporal_skips_zeros():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    step = lowered(ExecutionMode.TEMPORAL)
    # stats: 40% zero (skipped), 50% low (1 lane), 10% high (2 lanes)
    expected = MACS * (0.5 + 0.2) / 39398
    assert compute(ditto, step) == pytest.approx(expected)


def test_db_pays_for_zeros():
    db = AdderTreeAccelerator(DB_CONFIG)
    step = lowered(ExecutionMode.TEMPORAL)
    expected = MACS * (0.4 + 0.5 + 0.2) / 39398
    assert compute(db, step) == pytest.approx(expected)


def test_ds_eight_bit_lanes():
    ds = AdderTreeAccelerator(DS_CONFIG)
    step = lowered(ExecutionMode.TEMPORAL)
    # zero skipped, low and high both one 8-bit MAC
    expected = MACS * 0.6 / 27648
    assert compute(ds, step) == pytest.approx(expected)


def test_dbds_equals_ditto_compute():
    step = lowered(ExecutionMode.TEMPORAL)
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    dbds = AdderTreeAccelerator(DBDS_CONFIG)
    assert compute(dbds, step) == pytest.approx(compute(ditto, step))


def test_sub_ops_scale_compute():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    one = lowered(ExecutionMode.TEMPORAL, sub_ops=1)
    two = lowered(ExecutionMode.TEMPORAL, sub_ops=2)
    assert compute(ditto, two) == pytest.approx(2 * compute(ditto, one))


# -- Cambricon-D --------------------------------------------------------------

def test_cambricon_outlier_bottleneck():
    camd = CambriconDAccelerator(get_config("Cambricon-D"))
    step = lowered(ExecutionMode.TEMPORAL)
    normal = MACS * 0.9 / 38280  # zero+low on normal lanes (no skip)
    outlier = MACS * 0.1 / 2552
    assert compute(camd, step) == pytest.approx(max(normal, outlier))
    assert compute(camd, step) == pytest.approx(outlier)  # outliers bind


def test_cambricon_dense_runs_on_outliers_only():
    camd = CambriconDAccelerator(get_config("Cambricon-D"))
    step = lowered(ExecutionMode.DENSE)
    assert compute(camd, step) == pytest.approx(MACS / 2552)


# -- pipelining / memory -----------------------------------------------------

def test_layer_cycles_is_stage_max():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    step = lowered(ExecutionMode.TEMPORAL)
    c = ditto.run(step).columns
    stages = [c[key][0] for key in ("compute", "memory", "encode", "vpu")]
    assert c["cycles"][0] == pytest.approx(max(stages))
    assert ditto.cycles_array(step)[0] == c["cycles"][0]


def test_memory_cycles_use_bandwidth():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    step = lowered(ExecutionMode.TEMPORAL)
    assert ditto.memory_cycles_array(step)[0] == pytest.approx(
        step.total_bytes() / 2048
    )


def test_encode_only_for_difference_modes():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    assert ditto.encode_cycles_array(lowered(ExecutionMode.DENSE))[0] == 0.0
    assert ditto.encode_cycles_array(lowered(ExecutionMode.TEMPORAL))[0] > 0.0


def test_stall_cycles_nonnegative():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    assert ditto.run(lowered(ExecutionMode.TEMPORAL)).stall_cycles >= 0.0


# -- energy ----------------------------------------------------------------

def test_energy_components_present():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    components = energy(ditto, lowered(ExecutionMode.TEMPORAL))
    for key in ("compute", "encode", "vpu", "defo", "sram", "dram", "leak"):
        assert key in components
        assert components[key] >= 0.0


def test_dense_has_no_encode_energy():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    assert energy(ditto, lowered(ExecutionMode.DENSE))["encode"] == 0.0


def test_temporal_compute_energy_below_dense():
    ditto = AdderTreeAccelerator(get_config("Ditto"))
    dense = energy(ditto, lowered(ExecutionMode.DENSE))["compute"]
    temporal = energy(ditto, lowered(ExecutionMode.TEMPORAL))["compute"]
    assert temporal < dense


# -- GPU ----------------------------------------------------------------------

def test_gpu_model_launch_overhead():
    gpu = GPUModel(utilization=0.1, launch_cycles=100.0)
    report = gpu.run(lowered(ExecutionMode.DENSE))
    assert report.compute_cycles > 100.0
    assert report.total_energy_pj > 0


def test_build_accelerator_factory():
    assert isinstance(build_accelerator("GPU"), GPUModel)
    assert isinstance(build_accelerator("Cambricon-D"), CambriconDAccelerator)
    assert isinstance(build_accelerator("Ditto"), AdderTreeAccelerator)
    with pytest.raises(ValueError):
        build_accelerator("NPU")


# -- Defo Unit table (paper Section V-B) --------------------------------------

def test_defo_table_sizing():
    """512 entries x 33 bits: 16+16 cycle counters plus the decision bit."""
    cfg = get_config("Ditto")
    assert cfg.defo_table_entries == 512
    assert cfg.defo_entry_bits == 33
    assert cfg.defo_table_bits == 512 * 33


def test_defo_table_fits_every_benchmark_model():
    """The paper sizes the table for <= 347 layers; our suite must fit too."""
    from repro.quant import iter_qlayers, quantize_model
    from repro.workloads import SUITE

    cfg = get_config("Ditto")
    for name, spec in SUITE.items():
        qmodel = quantize_model(spec.build_model())
        # Attention layers contribute two tracked matmuls each.
        entries = sum(
            2 if getattr(q, "is_cross", None) is not None else 1
            for _, q in iter_qlayers(qmodel)
        )
        assert entries <= cfg.defo_table_entries, name
