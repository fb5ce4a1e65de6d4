"""Cross-layer engine defaults that MUST resolve identically everywhere.

The calibration-trajectory precision is consumed in four places that can
never be allowed to drift apart: ``DittoEngine.from_benchmark`` (what
actually runs), ``BenchmarkSpec.signature`` and
``repro.runtime.hashing.spec_signature`` (spec identity in cache keys), and
``repro.runtime.hashing.engine_key`` (result identity).  If one site
resolved the default differently, a float64-calibrated result could be
served from a float32 cache entry or equivalent runs would stop sharing
entries.  This module is import-cycle-free (no repro imports), so every
layer can use the one resolution rule.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["DEFAULT_CALIBRATION_DTYPE", "resolve_calibration_dtype"]

DEFAULT_CALIBRATION_DTYPE = "float32"


def resolve_calibration_dtype(spec=None, override: Optional[str] = None) -> str:
    """The calibration dtype a run will actually use.

    Resolution order: explicit ``override`` argument, else the spec's
    ``calibration_dtype`` pin, else :data:`DEFAULT_CALIBRATION_DTYPE` - the
    exact rule ``DittoEngine.from_benchmark`` applies.
    """
    if override is not None:
        return str(override)
    pinned = getattr(spec, "calibration_dtype", None)
    if pinned is not None:
        return str(pinned)
    return DEFAULT_CALIBRATION_DTYPE

