"""Layer tracing for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer from the
outside - class methods are replaced on their defining class, module
functions in every ``repro`` module that binds them - records one span per
call (layer, start, end, parent) in memory, and restores every original on
:meth:`Tracer.uninstall`.  Nothing under ``src/repro`` is edited, and the
untraced runs execute the unwrapped code.

A layer's *self time* is its span's duration minus the time its child spans
cover, so nested layers (a quantized conv calling the quantizer, the unfold
and the GEMM) never double-count.  Work counts (elements, MACs) are computed
from operand shapes at the same boundaries; a call nested directly inside a
span of the same layer (``step_rows`` calling ``step``) adds time but is
not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "find_wrappers", "WRAPPED_MARK"]

# Attribute set on every wrapper, so a scan can prove none survived.
WRAPPED_MARK = "__perfbench_wrapper__"

_perf = time.perf_counter

# A count function maps (call args, result) to {count name: increment}.
CountFn = Callable[[tuple, object], Dict[str, float]]


def _quantize_elems(args, result):
    return {"quantize_elems": np.size(args[1])}


def _im2col_elems(args, result):
    cols = result[0] if isinstance(result, tuple) else result
    return {"im2col_elems": np.size(cols)}


def _conv_macs(args, result):
    # (out_c, dot) @ (N, dot, P): N * P * dot * out_c
    n, dot, positions = args[1].shape
    return {"gemm_calls": 1, "gemm_macs": n * positions * dot * args[2].shape[0]}


def _linear_macs(args, result):
    # x (..., in) @ weight.T with weight (out, in): rows * in * out
    return {"gemm_calls": 1, "gemm_macs": np.size(args[1]) * args[2].shape[0]}


def _matmul_macs(args, result):
    # a (..., M, K) @ b (..., K, N): batch * M * K * N
    a, b = args[1], args[2]
    batch = int(np.prod(np.shape(result)[:-2]))
    return {"gemm_calls": 1, "gemm_macs": batch * a.shape[-2] * a.shape[-1] * b.shape[-1]}


def _classified_elems(args, result):
    return {"classified_elems": sum(np.size(a) for a in args)}


def _cache_outcome(args, result):
    return {"cache_hits": result is not None, "cache_misses": result is None}


def _one(name: str) -> CountFn:
    return lambda args, result: {name: 1}


# (layer, backend entry point, count function)
_BACKEND_ENTRIES = (
    ("nn.backends.im2col", "im2col_t", _im2col_elems),
    ("nn.backends.gemm", "conv2d_from_cols_t", _conv_macs),
    ("nn.backends.gemm", "linear", _linear_macs),
    ("nn.backends.gemm", "matmul", _matmul_macs),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``phase`` ("setup" or "run") and ``unit`` (the workload's unit of work:
    batch, study or trace index) are stamped on every span, so set-up layers
    and run layers are reported separately and the spans of one unit share
    an identifier.
    """

    def __init__(self) -> None:
        self.phase = "run"
        self.unit = -1
        self.origin = _perf()
        # (span_id, parent_id, layer, phase, unit, start_s, end_s, self_s)
        self.spans: List[Tuple[int, int, str, str, int, float, float, float]] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []
        self._session_tags: Dict[int, list] = {}

    def _add(self, increments: Dict[str, float]) -> None:
        for name, value in increments.items():
            self.counts[(self.phase, name)] += float(value)

    # -- wrappers ------------------------------------------------------------
    def _span(
        self,
        layer: str,
        fn: Callable,
        count: Optional[CountFn] = None,
        inner_phase: Optional[str] = None,
    ) -> Callable:
        """Wrap ``fn`` in a ``layer`` span.  ``inner_phase`` re-tags every
        span nested inside it (plan derivation runs a whole instrumented
        model pass, which must not read as run-time layer work)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            outer = not stack or stack[-1][1] != layer
            frame = [next(tracer._ids), layer, 0.0]
            phase = tracer.phase
            if inner_phase is not None:
                tracer.phase = inner_phase
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                tracer.phase = phase
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((
                    frame[0],
                    -1 if parent is None else parent[0],
                    layer,
                    tracer.phase,
                    tracer.unit,
                    start - tracer.origin,
                    end - tracer.origin,
                    duration - frame[2],
                ))
            if outer and count is not None:
                tracer._add(count(args, result))
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _counter(self, fn: Callable, count: CountFn) -> Callable:
        """Count calls without a span.  Used for entry points, like the
        denoiser call, that enclose whole layers: a span there would claim
        their glue as attributed time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._add(count(args, result))
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _session_step(self, fn: Callable) -> Callable:
        """``EngineSession.step`` span that also counts composition changes:
        steps whose rows differ from the rows the session's previous step
        left (an admission or an eviction, which makes the session remap its
        layer state)."""
        tracer = self
        timed = self._span("core.session.step", fn)

        @functools.wraps(fn)
        def wrapper(session, *args, **kwargs):
            if list(session.tags) != tracer._session_tags.get(id(session), []):
                tracer._add({"composition_changes": 1})
            try:
                return timed(session, *args, **kwargs)
            finally:
                tracer._session_tags[id(session)] = list(session.tags)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------------
    def _patch_method(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def _patch_function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` and every ``repro`` binding of the same object."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__name__", None) or "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.core import bitwidth, trace
        from repro.core.engine import DittoEngine
        from repro.core.session import EngineSession
        from repro.diffusion import samplers
        from repro.diffusion.pipeline import GenerationPipeline
        from repro.hw import simulator
        from repro.nn import backends
        from repro.nn import functional as F
        from repro.quant import calibration, qlayers, quantizer, tdq
        from repro.runtime.cache import ResultCache

        span = self._span

        def method(cls, attr, layer, count=None):
            self._patch_method(cls, attr, lambda f: span(layer, f, count))

        def function(module, attr, layer, count=None):
            self._patch_function(module, attr, lambda f: span(layer, f, count))

        # Compute backends: every class in the MRO of every registered
        # backend, wrapped where it defines an entry point.
        classes = []
        for name in backends.registered_backends():
            for cls in type(backends.get_backend(name)).__mro__:
                if issubclass(cls, backends.ComputeBackend) and cls not in classes:
                    classes.append(cls)
        for cls in classes:
            for layer, attr, count in _BACKEND_ENTRIES:
                if attr in cls.__dict__:
                    method(cls, attr, layer, count)

        method(qlayers.QConv2d, "forward", "quant.qlayers.conv")
        method(qlayers.QLinear, "forward", "quant.qlayers.linear")
        method(qlayers.QAttention, "forward", "quant.qlayers.attention")
        for cls in (quantizer.SymmetricQuantizer, tdq.TimestepClusteredQuantizer):
            method(cls, "quantize", "quant.quantizer.quantize", _quantize_elems)
        for attr in ("group_norm", "layer_norm"):
            function(F, attr, "nn.functional.norm")
        for attr in ("silu", "gelu", "softmax"):
            function(F, attr, "nn.functional.pointwise")
        for attr in ("classify", "classify_many"):
            function(bitwidth, attr, "core.bitwidth.classify", _classified_elems)
        sampler_classes = [samplers.Sampler]
        for cls in sampler_classes:
            sampler_classes.extend(
                sub for sub in cls.__subclasses__() if sub not in sampler_classes
            )
        for cls in sampler_classes:
            for attr in ("step", "step_rows"):
                if attr in cls.__dict__:
                    method(cls, attr, "diffusion.samplers.step")
        self._patch_method(
            GenerationPipeline, "predict_noise_rows",
            lambda f: self._counter(f, _one("model_calls")),
        )
        self._patch_function(
            trace, "record_step", lambda f: self._counter(f, _one("records"))
        )
        self._patch_method(EngineSession, "step", self._session_step)
        self._patch_method(
            EngineSession, "admit", lambda f: self._counter(f, _one("admits"))
        )
        function(qlayers, "remap_model_rows", "core.session.remap")
        function(simulator, "evaluate_designs", "hw.evaluate_designs")
        method(DittoEngine, "from_benchmark", "core.engine.build")
        self._patch_method(
            DittoEngine, "derive_plan",
            lambda f: span("core.plan.derive", f, inner_phase="plan"),
        )
        for attr in ("calibrate_model", "calibrate_model_clustered"):
            function(calibration, attr, "quant.calibration.calibrate")
        method(ResultCache, "get", "runtime.cache.get", _cache_outcome)
        method(ResultCache, "put", "runtime.cache.put")

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()  # never leave a partial install behind
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------------
    def self_time(self, layer: str, phases=("run",)) -> float:
        """Summed self time of ``layer``'s spans in ``phases``."""
        return sum(s[7] for s in self.spans if s[2] == layer and s[3] in phases)

    def total_time(self, layer: str, phases=("setup", "plan", "run")) -> float:
        """Summed full (inclusive) duration of ``layer``'s spans in ``phases``."""
        return sum(self.durations(layer, phases))

    def durations(self, layer: str, phases=("run",)) -> List[float]:
        """Each span's full duration for ``layer`` in ``phases``."""
        return [s[6] - s[5] for s in self.spans if s[2] == layer and s[3] in phases]

    def count(self, name: str, phases=("run",)) -> float:
        """Summed count ``name`` over ``phases``."""
        return sum(self.counts.get((phase, name), 0.0) for phase in phases)

    def root_time(self, phase: str = "run") -> float:
        """Time covered by top-level spans: the attributed part of a region."""
        return sum(s[6] - s[5] for s in self.spans if s[1] == -1 and s[3] == phase)

    def write(self, path, meta: Dict[str, object]) -> None:
        """Write the spans gzipped: a JSON header line, then one array per span."""
        header = {
            "meta": meta,
            "fields": [
                "span_id", "parent_id", "layer", "phase", "unit",
                "start_s", "end_s", "self_s",
            ],
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def find_wrappers() -> List[str]:
    """Every tracing wrapper still reachable from a ``repro`` module or class."""
    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if not name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if getattr(inner, WRAPPED_MARK, False):
                        found.append(f"{name}.{key}.{attr}")
    return sorted(set(found))
