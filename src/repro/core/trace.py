"""Layer-step execution traces - the interface between algorithm and hardware.

When a quantized model runs under the Ditto engine, every linear-layer
execution at every time step appends one :class:`RichLayerStep` to the active
:class:`TraceRecorder`.  Because every Ditto execution mode (dense, temporal
difference, spatial difference) reconstructs the *identical* quantized
result, a single instrumented generation run can record the operand
composition of all three modes at once; policies (Defo, Defo+, ideal oracle,
Cambricon-D software, ...) and hardware models are then evaluated as pure
post-processing over the rich trace.  This mirrors the paper's methodology of
hooking PyTorch layers and feeding observed value statistics into the
Sparse-DySta simulator.

Storage is columnar (structure-of-arrays): every trace keeps one numpy-backed
column per scalar field plus interned string tables for layer / kind /
producer names, so post-processing (BOPs, Defo, the hardware cycle models)
runs as vectorized column arithmetic instead of per-record Python loops, and
pickled traces are a handful of flat arrays instead of tens of thousands of
dataclass objects.  The original record dataclasses survive as *views*:
``trace[i]``, ``trace.steps`` and iteration materialize real
:class:`RichLayerStep` / :class:`LayerStep` instances on demand, so existing
record-at-a-time consumers keep working unchanged.

:class:`LayerStep` is the narrow, hardware-facing view: one chosen mode, its
operand stats, and its byte traffic.  :func:`derive_layer_step` lowers a rich
record into it; :meth:`RichTrace.lower_modes` is the vectorized equivalent
over a whole trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bitwidth import BitWidthStats
from .modes import ExecutionMode

__all__ = [
    "ACT_BYTES",
    "STATE_BYTES",
    "SIGN_MASK_KINDS",
    "LayerStep",
    "RichLayerStep",
    "derive_layer_step",
    "Trace",
    "RichTrace",
    "TraceRecorder",
    "record_step",
]

# Byte widths used by the traffic model: activations and weights travel as
# 8-bit quantized values.  The carried-over output state of temporal
# difference processing is held as requantized 8-bit values in the activation
# buffers (partial sums stay 32-bit only inside the PE accumulation buffer,
# paper Section V-C), so it streams at 1 byte per element like activations.
ACT_BYTES = 1
STATE_BYTES = 1

# Stable integer ids for ExecutionMode columns (DENSE=0, TEMPORAL=1,
# SPATIAL=2 - the enum declaration order).
MODES: Tuple[ExecutionMode, ...] = tuple(ExecutionMode)
MODE_ID: Dict[ExecutionMode, int] = {mode: i for i, mode in enumerate(MODES)}
DENSE_ID = MODE_ID[ExecutionMode.DENSE]
TEMPORAL_ID = MODE_ID[ExecutionMode.TEMPORAL]
SPATIAL_ID = MODE_ID[ExecutionMode.SPATIAL]


@dataclass
class LayerStep:
    """One linear-layer execution at one time step, in one chosen mode."""

    step_index: int
    layer_name: str
    kind: str  # 'conv' | 'fc' | 'attn_qk' | 'attn_pv'
    mode: ExecutionMode
    macs: int  # multiply-accumulates of the layer operation
    data_elems: int  # multiplier-operand elements (stats domain)
    stats: BitWidthStats  # composition of those elements
    bytes_in: int  # current-step input activation traffic
    bytes_weight: int  # weight traffic
    bytes_out: int  # output activation traffic
    bytes_extra: int  # prev-step input/output traffic added by temporal mode
    vpu_elems: int  # elements the Vector Processing Unit touches afterwards
    sub_ops: int = 1  # attention temporal mode runs 2 sub-operations
    nonlinear_after: bool = True
    chained_input: bool = False  # producer is linear -> difference reusable

    @property
    def bytes_total(self) -> int:
        return self.bytes_in + self.bytes_weight + self.bytes_out + self.bytes_extra

    def with_mode(self, mode: ExecutionMode, **changes) -> "LayerStep":
        return replace(self, mode=mode, **changes)


@dataclass
class RichLayerStep:
    """One linear-layer execution with the operand stats of *every* mode."""

    step_index: int
    layer_name: str
    kind: str
    macs: int
    in_elems: int  # true input-tensor elements (traffic domain)
    out_elems: int
    weight_elems: int
    data_elems: int  # stats-domain elements
    stats_dense: BitWidthStats
    stats_spatial: BitWidthStats
    stats_temporal: Optional[BitWidthStats]  # None on the first step
    sub_ops_temporal: int = 1
    vpu_elems: int = 0
    nonlinear_after: bool = True
    chained_input: bool = False
    producer_kind: str = "other"  # 'linear' | 'silu' | 'groupnorm' | ...
    executed_mode: ExecutionMode = ExecutionMode.DENSE

    @property
    def has_temporal(self) -> bool:
        return self.stats_temporal is not None


# Non-linearities whose difference can be reconstructed by Cambricon-D's
# sign-mask dataflow without re-reading the previous step's input.
SIGN_MASK_KINDS = ("silu", "groupnorm")


def _bypasses_prev_input(rich: RichLayerStep, bypass_style: str) -> bool:
    """Whether the previous-step input reload can be skipped.

    * ``'chained'`` - Defo's static dependency analysis: the producer is a
      linear layer, so its difference output feeds this layer directly.
    * ``'sign_mask'`` - Cambricon-D: only SiLU / GroupNorm producers qualify.
    * ``'both'`` - hardware applying both techniques (paper Fig. 15).
    * ``'none'`` - naive temporal difference processing.
    """
    if bypass_style == "chained":
        return rich.chained_input
    if bypass_style == "sign_mask":
        return rich.producer_kind in SIGN_MASK_KINDS
    if bypass_style == "both":
        return rich.chained_input or rich.producer_kind in SIGN_MASK_KINDS
    if bypass_style == "none":
        return False
    raise ValueError(f"unknown bypass style {bypass_style!r}")


def derive_layer_step(
    rich: RichLayerStep,
    mode: ExecutionMode,
    bypass_style: str = "chained",
) -> LayerStep:
    """Lower a rich record to the hardware-facing view for ``mode``.

    Falls back to DENSE when temporal stats do not exist yet (first step).
    The byte-traffic model charges temporal mode for loading the previous
    step's input (skipped when the bypass style applies), storing the
    current input for the next step, and a load + store of the partial-sum
    state.
    """
    if mode is ExecutionMode.TEMPORAL and not rich.has_temporal:
        mode = ExecutionMode.DENSE
    bytes_in = rich.in_elems * ACT_BYTES
    bytes_weight = rich.weight_elems * ACT_BYTES
    bytes_out = rich.out_elems * ACT_BYTES
    if mode is ExecutionMode.TEMPORAL:
        stats = rich.stats_temporal
        sub_ops = rich.sub_ops_temporal
        prev_in = (
            0
            if _bypasses_prev_input(rich, bypass_style)
            else rich.in_elems * ACT_BYTES
        )
        bytes_extra = (
            prev_in
            + rich.in_elems * ACT_BYTES  # store current input for next step
            + 2 * rich.out_elems * STATE_BYTES  # load + store partial state
        )
    elif mode is ExecutionMode.SPATIAL:
        stats = rich.stats_spatial
        sub_ops = 1
        bytes_extra = 0
    else:
        stats = rich.stats_dense
        sub_ops = 1
        bytes_extra = 0
    return LayerStep(
        step_index=rich.step_index,
        layer_name=rich.layer_name,
        kind=rich.kind,
        mode=mode,
        macs=rich.macs,
        data_elems=rich.data_elems,
        stats=stats,
        bytes_in=bytes_in,
        bytes_weight=bytes_weight,
        bytes_out=bytes_out,
        bytes_extra=bytes_extra,
        vpu_elems=rich.vpu_elems,
        sub_ops=sub_ops,
        nonlinear_after=rich.nonlinear_after,
        chained_input=rich.chained_input,
    )


class _ColumnarTrace:
    """Structure-of-arrays base shared by :class:`Trace` and :class:`RichTrace`.

    Columns live as plain Python lists while recording (cheap appends) and
    are sealed into flat numpy arrays on first vectorized access or when
    pickled; ``col(name)`` returns the cached array form.  Layer / kind /
    producer names are interned into per-trace string tables, so every
    per-record field is a scalar.
    """

    _INT_FIELDS: Tuple[str, ...] = ()
    _BOOL_FIELDS: Tuple[str, ...] = ()

    def __init__(self, steps: Optional[Sequence] = None) -> None:
        self._cols: Dict[str, list] = {
            name: [] for name in self._INT_FIELDS + self._BOOL_FIELDS
        }
        self._sealed = False
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._kinds: List[str] = []
        self._kind_ids: Dict[str, int] = {}
        self._array_cache: Dict[str, np.ndarray] = {}
        self._view_cache: Optional[list] = None
        if steps:
            for step in steps:
                self.append(step)

    # -- column access ------------------------------------------------------
    def col(self, name: str) -> np.ndarray:
        """The sealed numpy column for ``name`` (int64, bool for flags)."""
        arr = self._array_cache.get(name)
        if arr is None:
            dtype = np.bool_ if name in self._BOOL_FIELDS else np.int64
            arr = np.asarray(self._cols[name], dtype=dtype)
            self._array_cache[name] = arr
        return arr

    def _invalidate(self) -> None:
        self._array_cache.clear()
        self._view_cache = None

    def _ensure_mutable(self) -> None:
        """Convert sealed (array-backed) columns back to appendable lists."""
        if not self._sealed:
            return
        for name, values in self._cols.items():
            if isinstance(values, np.ndarray):
                self._cols[name] = values.tolist()
        self._sealed = False

    def _intern(self, table: List[str], ids: Dict[str, int], value: str) -> int:
        idx = ids.get(value)
        if idx is None:
            idx = len(table)
            ids[value] = idx
            table.append(value)
        return idx

    def _intern_name(self, value: str) -> int:
        return self._intern(self._names, self._name_ids, value)

    def _intern_kind(self, value: str) -> int:
        return self._intern(self._kinds, self._kind_ids, value)

    # -- sequence protocol ---------------------------------------------------
    def __len__(self) -> int:
        values = self._cols["step_index"]
        return len(values)

    def __iter__(self) -> Iterator:
        return iter(self.steps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.steps[index]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self._view(index)

    @property
    def steps(self) -> list:
        """All records materialized as dataclass views (cached)."""
        if self._view_cache is None:
            self._view_cache = [self._view(i) for i in range(len(self))]
        return self._view_cache

    def _view(self, index: int):
        raise NotImplementedError

    # -- grouping helpers ----------------------------------------------------
    def layer_names(self) -> List[str]:
        """Distinct layer names in first-appearance order."""
        return list(self._names)

    def by_step(self) -> Dict[int, List]:
        grouped: Dict[int, List] = {}
        step_col = self.col("step_index")
        views = self.steps
        for i, view in enumerate(views):
            grouped.setdefault(int(step_col[i]), []).append(view)
        return grouped

    def by_layer(self) -> Dict[str, List]:
        grouped: Dict[str, List] = {}
        layer_col = self.col("layer_id")
        views = self.steps
        for i, view in enumerate(views):
            grouped.setdefault(self._names[layer_col[i]], []).append(view)
        return grouped

    def num_steps(self) -> int:
        if not len(self):
            return 0
        return int(np.unique(self.col("step_index")).size)

    def total_macs(self) -> int:
        return int(self.col("macs").sum())

    # -- persistence ---------------------------------------------------------
    def seal(self) -> None:
        """Seal every column into its compact numpy array form in place.

        Idempotent; called before pickling (and by the result cache) so
        persisted traces are a handful of flat arrays rather than one object
        graph per record.
        """
        for name in self._cols:
            self._cols[name] = self.col(name)
        self._sealed = True

    def __getstate__(self) -> dict:
        self.seal()
        state = dict(self.__dict__)
        state["_array_cache"] = {}
        state["_view_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._array_cache = {}
        self._view_cache = None

    @classmethod
    def _from_columns(
        cls,
        columns: Dict[str, np.ndarray],
        names: List[str],
        kinds: List[str],
    ) -> "_ColumnarTrace":
        trace = cls()
        trace._cols = dict(columns)
        trace._sealed = True
        trace._names = list(names)
        trace._name_ids = {name: i for i, name in enumerate(names)}
        trace._kinds = list(kinds)
        trace._kind_ids = {kind: i for i, kind in enumerate(kinds)}
        return trace


_TRACE_INT_FIELDS = (
    "step_index",
    "layer_id",
    "kind_id",
    "mode",
    "macs",
    "data_elems",
    "st_total",
    "st_zero",
    "st_low",
    "st_high",
    "bytes_in",
    "bytes_weight",
    "bytes_out",
    "bytes_extra",
    "vpu_elems",
    "sub_ops",
)
_TRACE_BOOL_FIELDS = ("nonlinear_after", "chained_input")


class Trace(_ColumnarTrace):
    """Hardware-facing trace: columnar storage of :class:`LayerStep` records."""

    _INT_FIELDS = _TRACE_INT_FIELDS
    _BOOL_FIELDS = _TRACE_BOOL_FIELDS

    def append(self, step: LayerStep) -> None:
        self._ensure_mutable()
        c = self._cols
        c["step_index"].append(step.step_index)
        c["layer_id"].append(self._intern_name(step.layer_name))
        c["kind_id"].append(self._intern_kind(step.kind))
        c["mode"].append(MODE_ID[step.mode])
        c["macs"].append(step.macs)
        c["data_elems"].append(step.data_elems)
        stats = step.stats
        c["st_total"].append(stats.total)
        c["st_zero"].append(stats.zero)
        c["st_low"].append(stats.low)
        c["st_high"].append(stats.high)
        c["bytes_in"].append(step.bytes_in)
        c["bytes_weight"].append(step.bytes_weight)
        c["bytes_out"].append(step.bytes_out)
        c["bytes_extra"].append(step.bytes_extra)
        c["vpu_elems"].append(step.vpu_elems)
        c["sub_ops"].append(step.sub_ops)
        c["nonlinear_after"].append(step.nonlinear_after)
        c["chained_input"].append(step.chained_input)
        self._invalidate()

    def _view(self, index: int) -> LayerStep:
        c = self._cols
        return LayerStep(
            step_index=int(c["step_index"][index]),
            layer_name=self._names[int(c["layer_id"][index])],
            kind=self._kinds[int(c["kind_id"][index])],
            mode=MODES[int(c["mode"][index])],
            macs=int(c["macs"][index]),
            data_elems=int(c["data_elems"][index]),
            stats=BitWidthStats(
                total=int(c["st_total"][index]),
                zero=int(c["st_zero"][index]),
                low=int(c["st_low"][index]),
                high=int(c["st_high"][index]),
            ),
            bytes_in=int(c["bytes_in"][index]),
            bytes_weight=int(c["bytes_weight"][index]),
            bytes_out=int(c["bytes_out"][index]),
            bytes_extra=int(c["bytes_extra"][index]),
            vpu_elems=int(c["vpu_elems"][index]),
            sub_ops=int(c["sub_ops"][index]),
            nonlinear_after=bool(c["nonlinear_after"][index]),
            chained_input=bool(c["chained_input"][index]),
        )

    def modes(self) -> np.ndarray:
        """Per-record execution-mode ids (see :data:`MODE_ID`)."""
        return self.col("mode")

    def bytes_total(self) -> np.ndarray:
        """Per-record total byte traffic as one vectorized column."""
        return (
            self.col("bytes_in")
            + self.col("bytes_weight")
            + self.col("bytes_out")
            + self.col("bytes_extra")
        )

    def total_bytes(self) -> int:
        return int(self.bytes_total().sum())


_RICH_INT_FIELDS = (
    "step_index",
    "layer_id",
    "kind_id",
    "macs",
    "in_elems",
    "out_elems",
    "weight_elems",
    "data_elems",
    "d_total",
    "d_zero",
    "d_low",
    "d_high",
    "s_total",
    "s_zero",
    "s_low",
    "s_high",
    "t_total",
    "t_zero",
    "t_low",
    "t_high",
    "sub_ops_temporal",
    "vpu_elems",
    "producer_id",
    "executed_mode",
)
_RICH_BOOL_FIELDS = ("has_temporal", "nonlinear_after", "chained_input")


class RichTrace(_ColumnarTrace):
    """Algorithm-level trace: columnar storage of :class:`RichLayerStep`."""

    _INT_FIELDS = _RICH_INT_FIELDS
    _BOOL_FIELDS = _RICH_BOOL_FIELDS

    def __init__(self, steps: Optional[Sequence[RichLayerStep]] = None) -> None:
        self._producers: List[str] = []
        self._producer_ids: Dict[str, int] = {}
        super().__init__(steps)

    def append(self, rich: RichLayerStep) -> None:
        self._ensure_mutable()
        c = self._cols
        c["step_index"].append(rich.step_index)
        c["layer_id"].append(self._intern_name(rich.layer_name))
        c["kind_id"].append(self._intern_kind(rich.kind))
        c["macs"].append(rich.macs)
        c["in_elems"].append(rich.in_elems)
        c["out_elems"].append(rich.out_elems)
        c["weight_elems"].append(rich.weight_elems)
        c["data_elems"].append(rich.data_elems)
        dense = rich.stats_dense
        c["d_total"].append(dense.total)
        c["d_zero"].append(dense.zero)
        c["d_low"].append(dense.low)
        c["d_high"].append(dense.high)
        spatial = rich.stats_spatial
        c["s_total"].append(spatial.total)
        c["s_zero"].append(spatial.zero)
        c["s_low"].append(spatial.low)
        c["s_high"].append(spatial.high)
        temporal = rich.stats_temporal
        c["has_temporal"].append(temporal is not None)
        c["t_total"].append(0 if temporal is None else temporal.total)
        c["t_zero"].append(0 if temporal is None else temporal.zero)
        c["t_low"].append(0 if temporal is None else temporal.low)
        c["t_high"].append(0 if temporal is None else temporal.high)
        c["sub_ops_temporal"].append(rich.sub_ops_temporal)
        c["vpu_elems"].append(rich.vpu_elems)
        c["nonlinear_after"].append(rich.nonlinear_after)
        c["chained_input"].append(rich.chained_input)
        c["producer_id"].append(
            self._intern(self._producers, self._producer_ids, rich.producer_kind)
        )
        c["executed_mode"].append(MODE_ID[rich.executed_mode])
        self._invalidate()

    def _view(self, index: int) -> RichLayerStep:
        c = self._cols
        temporal = None
        if c["has_temporal"][index]:
            temporal = BitWidthStats(
                total=int(c["t_total"][index]),
                zero=int(c["t_zero"][index]),
                low=int(c["t_low"][index]),
                high=int(c["t_high"][index]),
            )
        return RichLayerStep(
            step_index=int(c["step_index"][index]),
            layer_name=self._names[int(c["layer_id"][index])],
            kind=self._kinds[int(c["kind_id"][index])],
            macs=int(c["macs"][index]),
            in_elems=int(c["in_elems"][index]),
            out_elems=int(c["out_elems"][index]),
            weight_elems=int(c["weight_elems"][index]),
            data_elems=int(c["data_elems"][index]),
            stats_dense=BitWidthStats(
                total=int(c["d_total"][index]),
                zero=int(c["d_zero"][index]),
                low=int(c["d_low"][index]),
                high=int(c["d_high"][index]),
            ),
            stats_spatial=BitWidthStats(
                total=int(c["s_total"][index]),
                zero=int(c["s_zero"][index]),
                low=int(c["s_low"][index]),
                high=int(c["s_high"][index]),
            ),
            stats_temporal=temporal,
            sub_ops_temporal=int(c["sub_ops_temporal"][index]),
            vpu_elems=int(c["vpu_elems"][index]),
            nonlinear_after=bool(c["nonlinear_after"][index]),
            chained_input=bool(c["chained_input"][index]),
            producer_kind=self._producers[int(c["producer_id"][index])],
            executed_mode=MODES[int(c["executed_mode"][index])],
        )

    # -- lowering ------------------------------------------------------------
    def attention_mask(self) -> np.ndarray:
        """Boolean column: records whose kind is an attention matmul."""
        attn_ids = [
            i for i, kind in enumerate(self._kinds) if kind.startswith("attn")
        ]
        if not attn_ids:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self.col("kind_id"), np.asarray(attn_ids, dtype=np.int64))

    def bypass_mask(self, bypass_style: str) -> np.ndarray:
        """Boolean column: records whose prev-input reload can be skipped."""
        if bypass_style == "none":
            return np.zeros(len(self), dtype=bool)
        if bypass_style == "chained":
            return self.col("chained_input")
        sign_ids = [
            self._producer_ids[kind]
            for kind in SIGN_MASK_KINDS
            if kind in self._producer_ids
        ]
        sign = (
            np.isin(self.col("producer_id"), np.asarray(sign_ids, dtype=np.int64))
            if sign_ids
            else np.zeros(len(self), dtype=bool)
        )
        if bypass_style == "sign_mask":
            return sign
        if bypass_style == "both":
            return self.col("chained_input") | sign
        raise ValueError(f"unknown bypass style {bypass_style!r}")

    def lower_modes(
        self, modes: np.ndarray, bypass_style: str = "chained"
    ) -> Trace:
        """Vectorized lowering: one mode id per record (see :data:`MODE_ID`).

        This is :func:`derive_layer_step` applied to the whole trace as
        column arithmetic; records asked for TEMPORAL without temporal stats
        fall back to DENSE exactly like the scalar path.
        """
        modes = np.asarray(modes, dtype=np.int64)
        bypass = self.bypass_mask(bypass_style)  # validates the style
        effective = np.where(
            (modes == TEMPORAL_ID) & ~self.col("has_temporal"), DENSE_ID, modes
        )
        is_temporal = effective == TEMPORAL_ID
        is_spatial = effective == SPATIAL_ID
        in_elems = self.col("in_elems")
        out_elems = self.col("out_elems")
        bytes_in = in_elems * ACT_BYTES
        prev_in = np.where(bypass, 0, bytes_in)
        bytes_extra = np.where(
            is_temporal,
            prev_in + bytes_in + 2 * out_elems * STATE_BYTES,
            0,
        )

        def pick(suffix: str) -> np.ndarray:
            return np.where(
                is_temporal,
                self.col("t_" + suffix),
                np.where(is_spatial, self.col("s_" + suffix), self.col("d_" + suffix)),
            )

        columns = {
            "step_index": self.col("step_index"),
            "layer_id": self.col("layer_id"),
            "kind_id": self.col("kind_id"),
            "mode": effective,
            "macs": self.col("macs"),
            "data_elems": self.col("data_elems"),
            "st_total": pick("total"),
            "st_zero": pick("zero"),
            "st_low": pick("low"),
            "st_high": pick("high"),
            "bytes_in": bytes_in,
            "bytes_weight": self.col("weight_elems") * ACT_BYTES,
            "bytes_out": out_elems * ACT_BYTES,
            "bytes_extra": bytes_extra,
            "vpu_elems": self.col("vpu_elems"),
            "sub_ops": np.where(is_temporal, self.col("sub_ops_temporal"), 1),
            "nonlinear_after": self.col("nonlinear_after"),
            "chained_input": self.col("chained_input"),
        }
        return Trace._from_columns(columns, self._names, self._kinds)

    def lower(self, mode_for, bypass_style: str = "chained") -> Trace:
        """Produce a :class:`Trace` choosing a mode per record.

        ``mode_for(rich) -> ExecutionMode`` decides each record's mode; pass
        e.g. ``lambda r: ExecutionMode.DENSE`` for the ITC baseline or a Defo
        decision table lookup.  The callback sees dataclass views; the actual
        lowering runs vectorized through :meth:`lower_modes`.
        """
        modes = np.fromiter(
            (MODE_ID[mode_for(view)] for view in self.steps),
            dtype=np.int64,
            count=len(self),
        )
        return self.lower_modes(modes, bypass_style=bypass_style)


class TraceRecorder:
    """Thread-local registry collecting :class:`RichLayerStep` records.

    The quantized layers call :func:`record_step`; whoever drives the model
    (the Ditto engine, a test) activates a recorder with
    ``with TraceRecorder() as rec: ...``.  Each record's step is the
    denoiser-call index the pipeline's step announces
    (:func:`repro.quant.tdq.set_active_step`).
    """

    _local = threading.local()

    def __init__(self) -> None:
        self.trace = RichTrace()

    # -- context management ------------------------------------------------
    def __enter__(self) -> "TraceRecorder":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self._local.stack.pop()

    @classmethod
    def current(cls) -> Optional["TraceRecorder"]:
        stack = getattr(cls._local, "stack", None)
        return stack[-1] if stack else None

    # -- recording ----------------------------------------------------------
    def record(self, step: RichLayerStep) -> None:
        self.trace.append(step)


def record_step(step: RichLayerStep) -> None:
    """Append ``step`` to the active recorder, if any."""
    recorder = TraceRecorder.current()
    if recorder is not None:
        recorder.record(step)
