"""The dataflow-backed rules (RPL007-RPL010).

All four consume one shared :class:`~repro.lint.dataflow.interp.DataflowEngine`
per lint run (memoized on the :class:`~repro.lint.framework.Project`), so the
fixed point is paid once no matter how many rules are active.

Findings fire on *positive evidence* only: a top (unknown) dtype, layout or
provenance never produces a finding.  The escape hatches are the standard
``# repro-lint: ignore[RPLnnn]`` suppression plus the dataflow
``# repro-lint: assume[...]`` facts (``f32``, ``c-contiguous``, ``row-shape``,
``healthy``, ``not-rng``) for places where the author knows an invariant the
interpreter cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..checkers import (
    _GEMM_DIR_RE,
    _GEMM_SINKS,
    is_backend_dispatch,
    is_direct_strided_view,
)
from ..framework import Checker, Finding, Project, SourceFile
from ..runtime import COLS_CHECKED_KERNELS, DTYPE_CHECKED_KERNELS
from .interp import CallFact, DataflowEngine, DrawFact, _assumptions
from .lattice import TAG_RNG_DRAW, TAG_SESSION, TAG_UNHEALTHY

__all__ = [
    "engine_for",
    "DtypeFlowChecker",
    "LayoutFlowChecker",
    "RngStreamChecker",
    "SessionLifecycleChecker",
]


def engine_for(project: Project) -> DataflowEngine:
    """The per-run shared dataflow engine (built once, reused by every rule)."""
    engine = getattr(project, "_dataflow_engine", None)
    if engine is None:
        engine = DataflowEngine(project)
        project._dataflow_engine = engine  # type: ignore[attr-defined]
    return engine


class _DataflowChecker(Checker):
    """Common scope plumbing for the dataflow rules."""

    scopes = frozenset({"src"})

    def _handle(self, project: Project, path: str) -> Optional[SourceFile]:
        handle = project.files.get(path)
        if handle is None:
            return None
        if getattr(handle, "scope", "src") not in self.scopes:
            return None
        return handle


# ---------------------------------------------------------------------------
# RPL007 - may-float64 values must not reach f32-region kernels
# ---------------------------------------------------------------------------

_F_KERNELS: Set[str] = set(DTYPE_CHECKED_KERNELS) | set(COLS_CHECKED_KERNELS)


class DtypeFlowChecker(_DataflowChecker):
    """RPL007: the static twin of the ``REPRO_SANITIZE=1`` dtype check.

    Inside a ``calibration_precision(...)`` / ``calibration_region(...)``
    block - or any helper those blocks (transitively) call - a value with
    float64 evidence must not reach one of the sanitizer-wrapped kernels.
    The kernel list is imported from :mod:`repro.lint.runtime`, so static and
    runtime checks share one sink model by construction.
    """

    rule = "RPL007"
    title = "may-float64 value reaching a kernel inside a float32 calibration region"

    def check_project(self, project: Project) -> Iterable[Finding]:
        engine = engine_for(project)
        findings: List[Finding] = []
        for fact in engine.all_calls():
            if fact.func_name not in _F_KERNELS:
                continue
            handle = self._handle(project, fact.path)
            if handle is None or not self._is_kernel_call(fact):
                continue
            if not (fact.in_region or engine.summary(fact.fn).in_region):
                continue
            assumes = _assumptions(handle, fact.line)
            if "f32" in assumes:
                continue
            for arg_node, value in zip(fact.node.args, fact.args):
                if value.array is False or not value.may_f64:
                    continue
                findings.append(
                    Finding(
                        path=fact.path,
                        line=arg_node.lineno,
                        rule=self.rule,
                        message=(
                            f"{ast.unparse(arg_node)} may be float64 when it reaches "
                            f"{fact.func_name}() inside a float32 calibration region "
                            f"- the exact-f32 fast path would silently re-widen; "
                            f"cast with .astype(np.float32) or annotate "
                            f"# repro-lint: assume[f32]"
                        ),
                    )
                )
        return findings

    def _is_kernel_call(self, fact: CallFact) -> bool:
        if fact.resolved is not None:
            return fact.resolved.path.endswith("nn/functional.py")
        # Unresolvable but spelled like the canonical alias: F.<kernel>(...).
        return fact.receiver_name == "F"


# ---------------------------------------------------------------------------
# RPL008 - flow-sensitive layout discipline (RPL005 through def-use chains)
# ---------------------------------------------------------------------------


class LayoutFlowChecker(_DataflowChecker):
    """RPL008: strided views reaching GEMM sinks via any def-use chain.

    RPL005 owns the syntactic case (a ``.T``/``transpose()``/``reshape()``
    written directly in the argument list); this rule follows assignments,
    helper returns and parameter bindings, and fires when an operand carries
    positive view evidence by the time it reaches the sink.
    """

    rule = "RPL008"
    title = "strided view reaching an exact-f32 GEMM sink through a def-use chain"

    scopes = frozenset({"src", "scripts"})

    def check_project(self, project: Project) -> Iterable[Finding]:
        engine = engine_for(project)
        findings: List[Finding] = []
        for fact in engine.all_calls():
            if fact.func_name not in _GEMM_SINKS:
                continue
            if is_backend_dispatch(fact.node):
                continue  # the dispatch surface owns operand layout
            handle = self._handle(project, fact.path)
            if handle is None:
                continue
            scope = getattr(handle, "scope", "src")
            if scope == "src" and not _GEMM_DIR_RE.search(fact.path):
                continue
            n_args = 2 if fact.func_name in {"matmul", "dot"} else 1
            assumes = _assumptions(handle, fact.line)
            if "c-contiguous" in assumes:
                continue
            for arg_node, value in zip(fact.node.args[:n_args], fact.args[:n_args]):
                if is_direct_strided_view(arg_node):
                    continue  # RPL005's finding, not ours
                if not value.may_view:
                    continue
                findings.append(
                    Finding(
                        path=fact.path,
                        line=arg_node.lineno,
                        rule=self.rule,
                        message=(
                            f"{ast.unparse(arg_node)} may be a strided view when it "
                            f"reaches {fact.func_name}() (transpose/reshape earlier "
                            f"in the def-use chain); materialize with "
                            f"np.ascontiguousarray(...) or annotate "
                            f"# repro-lint: assume[c-contiguous]"
                        ),
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# RPL009 - per-request RNG stream discipline (the fast_forward replay contract)
# ---------------------------------------------------------------------------

_SHAPE_ATTRS = {"shape", "ndim", "size", "dtype", "nbytes", "strides", "flags"}


class RngStreamChecker(_DataflowChecker):
    """RPL009: draws on per-request streams must be replay-countable.

    ``ReplayableRNG.fast_forward`` replays a crashed request by re-drawing a
    *recorded number* of fixed-shape rows.  That only reconstructs the stream
    position if every draw on a per-request stream (``Request.sampler_rng()``,
    ``ReplayableRNG``) uses the row shape ``(1, *sample)`` (or ``x.shape``)
    and the number of draws per step cannot diverge on data: no draw guarded
    by an array- or noise-derived predicate, no fixed stream drawn inside a
    loop.
    """

    rule = "RPL009"
    title = "per-request RNG stream draw breaks the fast-forward replay contract"

    scopes = frozenset({"src", "tests"})

    def check_project(self, project: Project) -> Iterable[Finding]:
        engine = engine_for(project)
        findings: List[Finding] = []
        for draw in engine.all_draws():
            handle = self._handle(project, draw.path)
            if handle is None:
                continue
            assumes = _assumptions(handle, draw.line)
            if "row-shape" in assumes:
                continue
            if not self._row_shaped(draw.shape_node):
                shown = (
                    ast.unparse(draw.shape_node) if draw.shape_node is not None else "<none>"
                )
                findings.append(
                    Finding(
                        path=draw.path,
                        line=draw.line,
                        rule=self.rule,
                        message=(
                            f"per-request stream draw {draw.method}({shown}) is not "
                            f"statically row-shaped; fast_forward replay needs "
                            f"(1, *sample) or x.shape draws (or annotate "
                            f"# repro-lint: assume[row-shape])"
                        ),
                    )
                )
            divergent = next(
                (g for g in draw.guards if self._data_dependent(g, engine)), None
            )
            if divergent is not None:
                findings.append(
                    Finding(
                        path=draw.path,
                        line=draw.line,
                        rule=self.rule,
                        message=(
                            f"draw on a per-request stream is guarded by the data-"
                            f"dependent predicate ({ast.unparse(divergent)}); the "
                            f"draw count would diverge between live run and "
                            f"fast_forward replay"
                        ),
                    )
                )
            if draw.loop_fixed:
                findings.append(
                    Finding(
                        path=draw.path,
                        line=draw.line,
                        rule=self.rule,
                        message=(
                            "loop-invariant per-request stream drawn inside a loop; "
                            "the per-step draw count becomes iteration-dependent and "
                            "fast_forward replay cannot count it"
                        ),
                    )
                )
        return findings

    def _row_shaped(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Attribute) and node.attr == "shape":
            return True
        if isinstance(node, ast.Tuple) and node.elts:
            first = node.elts[0]
            return isinstance(first, ast.Constant) and first.value == 1
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._row_shaped(node.left)
        if isinstance(node, ast.Subscript):
            # x.shape[...] slices of a row shape are schedule-static too.
            return self._row_shaped(node.value)
        return False

    def _data_dependent(self, guard: ast.expr, engine: DataflowEngine) -> bool:
        """True when the predicate reads array *data* or earlier draws."""
        stack: List[ast.AST] = [guard]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Attribute) and node.attr in _SHAPE_ATTRS:
                continue  # shape/dtype metadata is replay-static
            if isinstance(node, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
            ):
                continue  # identity tests (`x is None`) are schedule-static
            value = engine.value_of(node)
            if value.array is True or TAG_RNG_DRAW in value.tags:
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False


# ---------------------------------------------------------------------------
# RPL010 - EngineSession lifecycle: the health machine
# ---------------------------------------------------------------------------

_GUARDED_METHODS = {"admit", "step"}


class SessionLifecycleChecker(_DataflowChecker):
    """RPL010: no admit/step on a session already marked unhealthy.

    The PR 7 crash-recovery contract: once ``mark_unhealthy`` ran on a
    session handle, no later path may call ``admit``/``step`` on that same
    handle - recovery must rebind the name to a fresh session first
    (``_recover_or_fail`` does).
    """

    rule = "RPL010"
    title = "EngineSession lifecycle violation (health machine)"

    def check_project(self, project: Project) -> Iterable[Finding]:
        return self._check_health(project, engine_for(project))

    def _check_health(self, project: Project, engine: DataflowEngine) -> List[Finding]:
        findings = []
        for fact in engine.all_calls():
            if fact.func_name not in _GUARDED_METHODS:
                continue
            receiver = fact.receiver
            if receiver is None or not receiver.has(TAG_UNHEALTHY):
                continue
            if not (receiver.has(TAG_SESSION) or fact.receiver_name is not None):
                continue
            handle = self._handle(project, fact.path)
            if handle is None or "healthy" in _assumptions(handle, fact.line):
                continue
            who = fact.receiver_name or "<session>"
            findings.append(
                Finding(
                    path=fact.path,
                    line=fact.line,
                    rule=self.rule,
                    message=(
                        f"{who}.{fact.func_name}() may run on a session already "
                        f"marked unhealthy on this path; rebind to a recovered "
                        f"session first (or annotate # repro-lint: assume[healthy])"
                    ),
                )
            )
        return findings
