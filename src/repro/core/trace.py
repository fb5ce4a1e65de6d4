"""Layer-step execution traces - the interface between algorithm and hardware.

When a quantized model runs under the Ditto engine, every linear-layer
execution at every time step appends one record (the fields of a
:class:`RichLayerStep`) to the active :class:`TraceRecorder`.  Because every
Ditto execution mode (dense, temporal difference, spatial difference)
reconstructs the *identical* quantized result, a single instrumented
generation run can record the operand composition of all three modes at
once; policies (Defo, Defo+, ideal oracle, Cambricon-D software, ...) and
hardware models are then evaluated as pure post-processing over the rich
trace.  This mirrors the paper's methodology of hooking PyTorch layers and
feeding observed value statistics into the Sparse-DySta simulator.

Storage is columnar (structure-of-arrays): every trace keeps one numpy-backed
column per scalar field plus interned string tables for layer / kind /
producer names, so post-processing (BOPs, Defo, the hardware cycle models)
runs as column arithmetic, and pickled traces are a handful of flat arrays
instead of tens of thousands of dataclass objects.  A :class:`RichTrace` is
recorded one layer step at a time (:func:`record_step` passes the fields
as is, no record object is built) and offers the records back as
:class:`RichLayerStep` views (``trace[i]``, ``trace.steps``, iteration,
``by_step`` / ``by_layer``).

:meth:`RichTrace.lower_modes` lowers a rich trace to the hardware-facing
:class:`Trace`: one chosen mode per record, its operand stats and its byte
traffic.  A :class:`Trace` is columns only; the lowering, the hardware
models (:mod:`repro.hw.accelerators`) and the BOPs count
(:mod:`repro.core.bops`) each write their equations once, over those columns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bitwidth import BitWidthStats
from .modes import ExecutionMode

__all__ = [
    "ACT_BYTES",
    "STATE_BYTES",
    "SIGN_MASK_KINDS",
    "RichLayerStep",
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

    @property
    def has_temporal(self) -> bool:
        return self.stats_temporal is not None


_NO_STATS = BitWidthStats.empty()

# Non-linearities whose difference can be reconstructed by Cambricon-D's
# sign-mask dataflow without re-reading the previous step's input.
SIGN_MASK_KINDS = ("silu", "groupnorm")


class _ColumnarTrace:
    """Structure-of-arrays base shared by :class:`Trace` and :class:`RichTrace`.

    ``col(name)`` returns a column as a flat numpy array (int64, bool for
    flags), cached until the trace changes.  Layer / kind names are interned
    into per-trace string tables, so every per-record field is a scalar.
    Readers go through :meth:`_flush`, which :class:`RichTrace` uses to move
    the rows recorded since into the columns.
    """

    _INT_FIELDS: Tuple[str, ...] = ()
    _BOOL_FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._cols: Dict[str, list] = {
            name: [] for name in self._INT_FIELDS + self._BOOL_FIELDS
        }
        self._sealed = False
        self._names: List[str] = []
        self._kinds: List[str] = []
        self._array_cache: Dict[str, np.ndarray] = {}

    def _flush(self) -> None:
        """Bring the columns up to date (a :class:`Trace` always is)."""

    # -- column access ------------------------------------------------------
    def col(self, name: str) -> np.ndarray:
        """The sealed numpy column for ``name`` (int64, bool for flags)."""
        self._flush()
        arr = self._array_cache.get(name)
        if arr is None:
            dtype = np.bool_ if name in self._BOOL_FIELDS else np.int64
            arr = np.asarray(self._cols[name], dtype=dtype)
            self._array_cache[name] = arr
        return arr

    def _invalidate(self) -> None:
        self._array_cache.clear()

    def __len__(self) -> int:
        self._flush()
        return len(self._cols["step_index"])

    def layer_names(self) -> List[str]:
        """Distinct layer names in first-appearance order."""
        return list(self._names)

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
        self._flush()
        for name in self._cols:
            self._cols[name] = self.col(name)
        self._sealed = True

    def __getstate__(self) -> dict:
        self.seal()
        self._invalidate()
        return dict(self.__dict__)


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
    """Hardware-facing trace: one execution mode per record, as columns.

    Built by :meth:`RichTrace.lower_modes`.  ``mode`` holds :data:`MODE_ID`
    ids, ``st_*`` the operand stats of that mode, ``bytes_*`` its traffic
    and ``sub_ops`` its sub-operation count.
    """

    _INT_FIELDS = _TRACE_INT_FIELDS
    _BOOL_FIELDS = _TRACE_BOOL_FIELDS

    @classmethod
    def _from_columns(
        cls,
        columns: Dict[str, np.ndarray],
        names: List[str],
        kinds: List[str],
    ) -> "Trace":
        trace = cls()
        trace._cols = dict(columns)
        trace._sealed = True
        trace._names = list(names)
        trace._kinds = list(kinds)
        return trace

    def operand_fractions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(zero, low, high)`` fraction columns of each record's operands."""
        total = self.col("st_total").astype(np.float64)
        safe = np.where(total > 0.0, total, 1.0)
        return (
            self.col("st_zero") / safe,
            self.col("st_low") / safe,
            self.col("st_high") / safe,
        )

    def bytes_total(self) -> np.ndarray:
        """Per-record total byte traffic as one column."""
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
)
_RICH_BOOL_FIELDS = ("has_temporal", "nonlinear_after", "chained_input")
_RICH_FIELDS = _RICH_INT_FIELDS + _RICH_BOOL_FIELDS


class RichTrace(_ColumnarTrace):
    """Algorithm-level trace: columnar storage of :class:`RichLayerStep`.

    Recording appends one tuple per record, in :data:`_RICH_FIELDS` order;
    the first read moves the pending rows into the columns, which live as
    plain Python lists and are sealed into flat numpy arrays when pickled.
    Records come back as :class:`RichLayerStep` views.
    """

    _INT_FIELDS = _RICH_INT_FIELDS
    _BOOL_FIELDS = _RICH_BOOL_FIELDS

    def __init__(self, steps: Optional[Sequence[RichLayerStep]] = None) -> None:
        super().__init__()
        self._name_ids: Dict[str, int] = {}
        self._kind_ids: Dict[str, int] = {}
        self._producers: List[str] = []
        self._producer_ids: Dict[str, int] = {}
        self._view_cache: Optional[List[RichLayerStep]] = None
        self._pending: List[tuple] = []
        for step in steps or ():
            self.append(step)

    def _invalidate(self) -> None:
        super()._invalidate()
        self._view_cache = None

    def _flush(self) -> None:
        if not self._pending:
            return
        if self._sealed:
            self._cols = {name: values.tolist() for name, values in self._cols.items()}
            self._sealed = False
        for name, values in zip(_RICH_FIELDS, zip(*self._pending)):
            self._cols[name].extend(values)
        self._pending = []
        self._invalidate()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pending = []

    # -- recording ----------------------------------------------------------
    def _intern(self, table: List[str], ids: Dict[str, int], value: str) -> int:
        idx = ids.get(value)
        if idx is None:
            idx = len(table)
            ids[value] = idx
            table.append(value)
        return idx

    def append(self, rich: RichLayerStep) -> None:
        self.add(**vars(rich))

    def add(
        self,
        step_index: int,
        layer_name: str,
        kind: str,
        macs: int,
        in_elems: int,
        out_elems: int,
        weight_elems: int,
        data_elems: int,
        stats_dense: BitWidthStats,
        stats_spatial: BitWidthStats,
        stats_temporal: Optional[BitWidthStats],
        sub_ops_temporal: int = 1,
        vpu_elems: int = 0,
        nonlinear_after: bool = True,
        chained_input: bool = False,
        producer_kind: str = "other",
    ) -> None:
        """Append one record from :class:`RichLayerStep`'s fields."""
        d, s, t = stats_dense, stats_spatial, stats_temporal
        has_temporal = t is not None
        if not has_temporal:
            t = _NO_STATS
        self._pending.append((
            step_index,
            self._intern(self._names, self._name_ids, layer_name),
            self._intern(self._kinds, self._kind_ids, kind),
            macs,
            in_elems,
            out_elems,
            weight_elems,
            data_elems,
            d.total, d.zero, d.low, d.high,
            s.total, s.zero, s.low, s.high,
            t.total, t.zero, t.low, t.high,
            sub_ops_temporal,
            vpu_elems,
            self._intern(self._producers, self._producer_ids, producer_kind),
            has_temporal,
            nonlinear_after,
            chained_input,
        ))

    # -- record views --------------------------------------------------------
    def __iter__(self) -> Iterator[RichLayerStep]:
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
    def steps(self) -> List[RichLayerStep]:
        """All records materialized as dataclass views (cached)."""
        self._flush()
        if self._view_cache is None:
            self._view_cache = [self._view(i) for i in range(len(self))]
        return self._view_cache

    def by_step(self) -> Dict[int, List[RichLayerStep]]:
        grouped: Dict[int, List[RichLayerStep]] = {}
        for view in self.steps:
            grouped.setdefault(view.step_index, []).append(view)
        return grouped

    def by_layer(self) -> Dict[str, List[RichLayerStep]]:
        grouped: Dict[str, List[RichLayerStep]] = {}
        for view in self.steps:
            grouped.setdefault(view.layer_name, []).append(view)
        return grouped

    def _view(self, index: int) -> RichLayerStep:
        self._flush()
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
        """Boolean column: records whose prev-input reload can be skipped.

        * ``'chained'`` - Defo's static dependency analysis: the producer is
          a linear layer, so its difference output feeds this layer directly.
        * ``'sign_mask'`` - Cambricon-D: only SiLU / GroupNorm producers
          qualify.
        * ``'both'`` - hardware applying both techniques (paper Fig. 15).
        * ``'none'`` - naive temporal difference processing.
        """
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

        Records asked for TEMPORAL without temporal stats (the first step)
        fall back to DENSE.  The traffic model charges temporal mode for
        loading the previous step's input (skipped where ``bypass_style``
        applies, see :meth:`bypass_mask`), storing the current input for the
        next step, and a load + store of the partial-sum state.
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


def record_step(**fields) -> None:
    """Append one layer step to the active recorder, if any.

    ``fields`` are :class:`RichLayerStep`'s, passed straight to
    :meth:`RichTrace.add`: the quantized layers record ~30 steps per
    denoiser call, and no record object is built for them.
    """
    recorder = TraceRecorder.current()
    if recorder is not None:
        recorder.trace.add(**fields)
