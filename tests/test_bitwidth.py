"""Unit + property tests for bit-width requirement classification (Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitWidthStats, classify, required_bits


def test_classify_buckets():
    values = np.array([0, 0, 3, -8, 7, 8, -9, 127])
    stats = classify(values)
    assert stats.total == 8
    assert stats.zero == 2
    assert stats.low == 3  # 3, -8, 7
    assert stats.high == 3  # 8, -9, 127


def test_classify_empty():
    stats = classify(np.array([]))
    assert stats.total == 0
    assert stats.zero_frac == 0.0


def test_fractions_sum_to_one(rng):
    stats = classify(rng.integers(-128, 128, size=1000))
    assert stats.zero_frac + stats.low_frac + stats.high_frac == pytest.approx(1.0)


def test_low_or_zero_frac():
    stats = classify(np.array([0, 1, 100]))
    assert stats.low_or_zero_frac == pytest.approx(2 / 3)


def test_merge():
    a = classify(np.array([0, 1]))
    b = classify(np.array([100]))
    merged = a.merge(b)
    assert merged.total == 3
    assert merged.zero == 1 and merged.low == 1 and merged.high == 1


def test_empty_stats():
    empty = BitWidthStats.empty()
    assert empty.total == 0
    merged = empty.merge(classify(np.array([5])))
    assert merged.total == 1


def test_required_bits_reference_values():
    values = np.array([0, 1, -1, 7, -8, 8, -9, 127, -128])
    bits = required_bits(values)
    assert bits.tolist() == [0, 2, 1, 4, 4, 5, 5, 8, 8]


def _required_bits_reference(v: int) -> int:
    """Exact scalar reference: signed bit-width via int.bit_length."""
    if v == 0:
        return 0
    magnitude = v if v >= 0 else ~v  # ~v == -v - 1
    return magnitude.bit_length() + 1


def test_required_bits_int8_diff_range():
    """Every value an int8 temporal/spatial difference can take: [-255, 255]."""
    values = np.arange(-255, 256)
    bits = required_bits(values)
    expected = [_required_bits_reference(int(v)) for v in values]
    assert bits.tolist() == expected


def test_required_bits_power_of_two_boundaries():
    """±2^k and neighbours up to the float53 precision cliff and beyond.

    The old float ``ceil(log2(v + 1))`` implementation went wrong once
    ``v + 1`` stopped being representable: ``2**53`` classified as 54 bits
    instead of 55.  The integer bit-length path must be exact everywhere.
    """
    exponents = [1, 2, 3, 4, 7, 8, 15, 23, 24, 31, 32, 52, 53, 62]
    probes = []
    for k in exponents:
        for delta in (-1, 0, 1):
            probes.extend([(1 << k) + delta, -((1 << k) + delta)])
    values = np.array(probes, dtype=np.int64)
    bits = required_bits(values)
    expected = [_required_bits_reference(int(v)) for v in values]
    assert bits.tolist() == expected


def test_required_bits_int64_extremes():
    values = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    assert required_bits(values).tolist() == [64, 64]


def test_required_bits_preserves_shape():
    values = np.array([[0, 3], [-8, 127]])
    assert required_bits(values).shape == (2, 2)


def test_4bit_boundary_consistency():
    """classify's low bucket must agree with required_bits <= 4."""
    values = np.arange(-128, 128)
    bits = required_bits(values)
    stats = classify(values)
    low_by_bits = int(np.count_nonzero((bits > 0) & (bits <= 4)))
    assert stats.low == low_by_bits
    assert stats.zero == int(np.count_nonzero(bits == 0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 500))
def test_classify_partition_property(seed, size):
    rng = np.random.default_rng(seed)
    values = rng.integers(-300, 300, size=size)
    stats = classify(values)
    assert stats.zero + stats.low + stats.high == stats.total == size


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_merge_is_additive(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-50, 50, size=64)
    b = rng.integers(-200, 200, size=32)
    merged = classify(a).merge(classify(b))
    joint = classify(np.concatenate([a, b]))
    assert merged == joint


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(1, 600),
    dtype=st.sampled_from([np.float32, np.float64, np.int64, np.int16]),
)
def test_int16_narrowing_matches_required_bits(seed, size, dtype):
    """classify narrows every operand to int16; over the whole supported
    range [-32767, 32767] its buckets equal a required_bits reference for
    every input dtype - band edges, the range ends and -0.0 included."""
    from repro.core.bitwidth import classify_many

    rng = np.random.default_rng(seed)
    edges = np.array([0, -8, 7, -9, 8, 1, -1, 32767, -32767], dtype=np.int64)
    ints = np.concatenate([edges, rng.integers(-32767, 32768, size=size)])
    values = ints.astype(dtype)
    if values.dtype.kind == "f":
        values[0] = -0.0
    bits = required_bits(ints)
    expected = BitWidthStats(
        total=ints.size,
        zero=int(np.count_nonzero(bits == 0)),
        low=int(np.count_nonzero((bits > 0) & (bits <= 4))),
        high=int(np.count_nonzero(bits > 4)),
    )
    assert classify(values) == expected
    half = values.size // 2
    assert classify_many(values[:half], values[half:]) == expected


def test_quantized_layers_reject_more_than_15_bits():
    from repro.quant.qlayers import QLayerBase

    QLayerBase(bits=15)
    with pytest.raises(ValueError, match="15-bit"):
        QLayerBase(bits=16)
