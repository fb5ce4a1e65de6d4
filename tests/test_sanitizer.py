"""Tests for the opt-in runtime numeric sanitizer (``repro.nn.sanitizer``)."""

import numpy as np
import pytest

from repro.nn import backends
from repro.nn import functional as F
from repro.nn import sanitizer as nn_sanitizer
from repro.nn.layers import Linear
from repro.quant.calibration import calibration_precision


@pytest.fixture
def sanitizer():
    with nn_sanitizer.sanitized():
        yield nn_sanitizer
    assert not nn_sanitizer.installed()


class _FakePipeline:
    """The minimal surface ``calibration_precision`` touches."""

    def __init__(self):
        self.conditioning = {}
        self.uncond_conditioning = {}
        self._cond_cache = {}

    def predict_noise_rows(self, x, t_rows):
        return x


def test_float64_trips_inside_f32_region(sanitizer):
    x64 = np.ones((2, 3))
    w32 = np.ones((4, 3), dtype=np.float32)
    with sanitizer.calibration_region(np.float32):
        with pytest.raises(sanitizer.SanitizerError, match="float64"):
            F.linear(x64, w32)


def test_float64_fine_outside_region(sanitizer):
    out = F.linear(np.ones((2, 3)), np.ones((4, 3)))
    assert out.dtype == np.float64


def test_float32_fine_inside_region(sanitizer):
    with sanitizer.calibration_region(np.float32):
        out = F.linear(
            np.ones((2, 3), dtype=np.float32), np.ones((4, 3), dtype=np.float32)
        )
    assert out.dtype == np.float32


def test_norm_kernels_are_guarded(sanitizer):
    x64 = np.ones((1, 4, 2, 2))
    with sanitizer.calibration_region(np.float32):
        with pytest.raises(sanitizer.SanitizerError):
            F.group_norm(x64, 2)
        with pytest.raises(sanitizer.SanitizerError):
            F.layer_norm(np.ones((2, 8)))


def _fortran_cols(x):
    """im2col_t columns in a non-C-contiguous layout (same values)."""
    cols_t, out_hw = F.im2col_t(x, 3, 1, 1)
    return np.asfortranarray(cols_t), out_hw


def test_noncontiguous_cols_trip(sanitizer):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    bad, out_hw = _fortran_cols(x)
    with pytest.raises(sanitizer.SanitizerError, match="non-C-contiguous"):
        F.conv2d_from_cols_t(bad, w, out_hw)
    # The contiguous original passes and matches the direct convolution.
    good = F.conv2d_from_cols_t(np.ascontiguousarray(bad), w, out_hw)
    np.testing.assert_allclose(good, F.conv2d(x, w, None, 1, 1))


def test_noncontiguous_cols_trip_through_the_dispatch(sanitizer, monkeypatch):
    # The sanitizer is the one guard of cols layout, so it must see the
    # calls the quantized layers actually make.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    bk = backends.active()
    bad, out_hw = _fortran_cols(x)
    with pytest.raises(sanitizer.SanitizerError, match="non-C-contiguous"):
        bk.conv2d_from_cols_t(bad, w, out_hw)
    # ComputeBackend.conv2d composes im2col_t with the cols GEMM; a strided
    # view slipped in between is caught too.
    unfold = bk.im2col_t
    monkeypatch.setattr(
        bk, "im2col_t", lambda *a, **k: (np.asfortranarray(unfold(*a, **k)[0]), out_hw)
    )
    with pytest.raises(sanitizer.SanitizerError, match="non-C-contiguous"):
        bk.conv2d(x, w, None, 1, 1)


def test_install_uninstall_restores_kernels():
    originals = {name: getattr(F, name) for name in ("linear", "conv2d", "group_norm")}
    nn_sanitizer.install()
    try:
        assert F.linear is not originals["linear"]
        nn_sanitizer.install()  # idempotent
    finally:
        nn_sanitizer.uninstall()
    for name, fn in originals.items():
        assert getattr(F, name) is fn
    nn_sanitizer.uninstall()  # idempotent on the uninstalled state too


def test_enabled_env_parsing(monkeypatch):
    for value, expected in [("1", True), ("true", True), ("", False), ("0", False)]:
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert nn_sanitizer.enabled() is expected
    monkeypatch.delenv("REPRO_SANITIZE")
    assert nn_sanitizer.enabled() is False


def test_calibration_precision_marks_region():
    model = Linear(4, 4)
    pipeline = _FakePipeline()
    assert nn_sanitizer.active_calibration_dtype() is None
    with calibration_precision(model, pipeline, np.float32):
        assert nn_sanitizer.active_calibration_dtype() == np.dtype(np.float32)
    assert nn_sanitizer.active_calibration_dtype() is None


def test_calibration_precision_float64_is_unmarked():
    # The float64 escape hatch is a no-op and must not open a region.
    with calibration_precision(Linear(4, 4), _FakePipeline(), np.float64):
        assert nn_sanitizer.active_calibration_dtype() is None


def test_sanitized_calibration_region_catches_injected_float64(sanitizer):
    model = Linear(4, 4)
    pipeline = _FakePipeline()
    with calibration_precision(model, pipeline, np.float32):
        # The context cast the weights; float32 activations flow cleanly...
        out = model(np.ones((2, 4), dtype=np.float32))
        assert out.dtype == np.float32
        # ...but a float64 array sneaking to any kernel is caught.
        with pytest.raises(sanitizer.SanitizerError):
            model(np.ones((2, 4)))
