"""Bit-width requirement analysis (paper Section III-B, Fig. 5).

The paper defines the *bit-width requirement* of a quantized value as the
minimum number of bits needed to represent it, and buckets values into
``zero`` / ``<=4-bit`` / ``over-4-bit``.  These buckets drive everything
downstream: BOPs accounting, the Encoding Unit's 2-bit control signal, and
the Compute Unit's 1-vs-2-multiplier scheduling.

Classification runs on int16: every operand is a quantized value or a
difference of two, so ``|v| <= 2^bits - 1 <= 32767`` (the quantized layers
reject ``bits > 15``) and narrowing is exact.  Callers outside the layers
must respect the same ``[-32767, 32767]`` precondition.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitWidthStats",
    "classify",
    "classify_many",
    "clear_classification_pool",
    "required_bits",
    "stats_from_counts",
    "LOW_BITS",
    "FULL_BITS",
]

LOW_BITS = 4
FULL_BITS = 8

# Two's-complement range of a signed LOW_BITS integer.
_LOW_MIN = -(1 << (LOW_BITS - 1))
_LOW_MAX = (1 << (LOW_BITS - 1)) - 1


@dataclass(frozen=True)
class BitWidthStats:
    """Fractions of elements per bit-width bucket; fractions sum to 1."""

    total: int
    zero: int
    low: int
    high: int

    @property
    def zero_frac(self) -> float:
        return self.zero / self.total if self.total else 0.0

    @property
    def low_frac(self) -> float:
        return self.low / self.total if self.total else 0.0

    @property
    def high_frac(self) -> float:
        return self.high / self.total if self.total else 0.0

    @property
    def low_or_zero_frac(self) -> float:
        return self.zero_frac + self.low_frac

    def merge(self, other: "BitWidthStats") -> "BitWidthStats":
        return BitWidthStats(
            total=self.total + other.total,
            zero=self.zero + other.zero,
            low=self.low + other.low,
            high=self.high + other.high,
        )

    @staticmethod
    def empty() -> "BitWidthStats":
        return BitWidthStats(0, 0, 0, 0)


# Per-thread shape -> (int16 narrow buffer, band buffer) pool.  The band
# test touches multi-MB operands (im2col patch matrices) thousands of times
# per run; reusing both temporaries per shape keeps the classification pass
# allocation-free on the hot path.  Deliberately NOT routed through
# repro.scratch.scratch_buffer: classification runs ~20k times per engine
# run and fetching the pair with a single dict lookup measurably beats two
# generic pool lookups.
_POOL = threading.local()


def clear_classification_pool() -> None:
    """Drop this thread's pooled band-test buffers (see repro.scratch)."""
    buffers = getattr(_POOL, "buffers", None)
    if buffers is not None:
        buffers.clear()


def _band_buffers(shape: tuple) -> tuple:
    buffers = getattr(_POOL, "buffers", None)
    if buffers is None:
        buffers = {}
        _POOL.buffers = buffers
    pair = buffers.get(shape)
    if pair is None:
        pair = (np.empty(shape, dtype=np.int16), np.empty(shape, dtype=np.bool_))
        buffers[shape] = pair
    return pair


def _bucket_counts(values: np.ndarray) -> tuple:
    """``(total, zero, low_or_zero)`` of one array in two reductions.

    This is the single pass behind :func:`classify` / :func:`classify_many`.
    The operand is narrowed to int16 once (exact: see :func:`classify`),
    zeros are counted directly off it (no boolean temporary at all), and
    the low-or-zero band is one compare: shift so the band starts at zero,
    reinterpret as unsigned - values below the band wrap to the top of the
    range - and test ``<= _LOW_MAX - _LOW_MIN``.  ``count_nonzero`` and the
    compare run 2-3x faster on 2-byte integers than on float32, copy
    included.  The ``low`` and ``high`` buckets fall out by subtraction, so
    no intermediate is ever re-scanned.
    """
    v = values if isinstance(values, np.ndarray) else np.asarray(values)
    narrow, band = _band_buffers(v.shape)
    if v.dtype != np.int16:
        np.copyto(narrow, v, casting="unsafe")
        v = narrow
    total = v.size
    zero = total - int(np.count_nonzero(v))
    shifted = np.subtract(v, np.int16(_LOW_MIN), out=narrow)
    np.less_equal(shifted.view(np.uint16), np.uint16(_LOW_MAX - _LOW_MIN), out=band)
    return total, zero, int(np.count_nonzero(band))


def stats_from_counts(total: int, zero: int, low_or_zero: int) -> BitWidthStats:
    """Rebuild :class:`BitWidthStats` from raw band-test counts.

    ``(total, zero, low_or_zero)`` is the accumulator triple the fused
    classification pass carries (see :func:`_bucket_counts`): the ``low`` and
    ``high`` buckets fall out by subtraction.  Plan extraction
    (:func:`repro.core.plan.extract_plan`) uses the same identity to rebuild
    an aggregate from a trace's summed bucket columns without touching any
    operand array.
    """
    return BitWidthStats(
        total=total, zero=zero, low=low_or_zero - zero, high=total - low_or_zero
    )


def _range_counts(values: np.ndarray, ranges) -> list:
    """``(total, zero, low_or_zero)`` of each ``(start, stop)`` range of the
    flat int16 scratch buffer ``values``, which the band test overwrites.

    Zeros are counted per range first.  Then one in-place pass shifts the
    band to start at zero, as :func:`_bucket_counts` does, and a second
    shifts out its four low bits, so exactly the values outside the band
    stay nonzero: no narrow or boolean temporary is written.
    """
    flat = values.reshape(-1)
    zeros = [(stop - start) - int(np.count_nonzero(flat[start:stop])) for start, stop in ranges]
    band = flat.view(np.uint16)
    np.add(band, np.uint16(-_LOW_MIN), out=band)
    np.right_shift(band, np.uint16(LOW_BITS), out=band)
    return [
        (stop - start, zero, (stop - start) - int(np.count_nonzero(band[start:stop])))
        for (start, stop), zero in zip(ranges, zeros)
    ]


def classify(values: np.ndarray, ranges=None):
    """Bucket integer-valued ``values`` into zero / 4-bit / over-4-bit.

    ``values`` must already be in the quantized integer domain (the output of
    :meth:`repro.quant.SymmetricQuantizer.quantize` or a difference thereof),
    of any numeric dtype, with every value in ``[-32767, 32767]``: the pass
    narrows to int16.  A ``bits``-bit quantized value or difference spans
    ``|v| <= 2^bits - 1``, and the quantized layers reject ``bits > 15``, so
    every operand they classify satisfies this by construction.

    With ``ranges``, a sequence of ``(start, stop)`` offsets into the flat
    int16 ``values`` (they may overlap), returns one :class:`BitWidthStats`
    per range from one pass, and ``values`` is scratch the pass overwrites:
    a quantized layer writes one layer step's dense, spatial and temporal
    operands into the slots of one pooled buffer.
    """
    if ranges is None:
        return stats_from_counts(*_bucket_counts(values))
    return [stats_from_counts(*c) for c in _range_counts(values, ranges)]


def classify_many(*arrays: np.ndarray) -> BitWidthStats:
    """Fused :func:`classify` over several operand arrays.

    Equivalent to merging per-array :func:`classify` results but accumulates
    the raw counts directly, so a layer step's dense / spatial / temporal
    operands (or the pieces of a spatial-difference view) are bucketed in
    one pass without intermediate :class:`BitWidthStats` objects.
    """
    total = zero = low_or_zero = 0
    for arr in arrays:
        t, z, lz = _bucket_counts(arr)
        total += t
        zero += z
        low_or_zero += lz
    return stats_from_counts(total, zero, low_or_zero)


def required_bits(values: np.ndarray) -> np.ndarray:
    """Per-element minimum signed bit-width (0 for zeros).

    A signed integer ``v != 0`` needs ``bit_length(v if v >= 0 else -v-1) + 1``
    bits; e.g. -8..7 fit in 4 bits.  Computed with exact integer arithmetic
    (a vectorized binary-search bit-length), so large power-of-two magnitudes
    near the float53 precision cliff classify correctly - ``2**53`` needs 55
    bits, which ``ceil(log2(float(2**53 + 1)))`` gets wrong.
    """
    v = np.asarray(values, dtype=np.int64)
    flat = v.reshape(-1)
    # Two's complement: ~x == -x - 1, so the non-negative magnitude whose
    # bit-length decides the width is reachable without overflow even for
    # the most negative int64.
    mag = np.where(flat < 0, ~flat, flat).astype(np.uint64)
    bits = np.zeros(flat.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = mag >= (np.uint64(1) << np.uint64(shift))
        bits[big] += shift
        mag[big] >>= np.uint64(shift)
    bits += mag.astype(np.int64)  # remaining 0/1 top bit
    bits = np.where(flat == 0, 0, bits + 1)
    return bits.reshape(v.shape)
