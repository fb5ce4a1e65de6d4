"""The repo-specific invariant checkers (RPL001, RPL003-RPL006, RPL011).

Each rule encodes a contract that a past PR violated by hand before being
fixed by inspection; see README "Invariants & static checks" for the full
contract table and suppression instructions.  The dataflow-backed rules
(RPL007-RPL010) live in :mod:`repro.lint.dataflow.rules`;
:func:`default_checkers` returns all ten.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .framework import Checker, Finding, Project, SourceFile

__all__ = [
    "DtypePromotionChecker",
    "SpecCacheKeyChecker",
    "ProfilerPhaseChecker",
    "GemmLayoutChecker",
    "SwallowedExceptionChecker",
    "BackendDispatchChecker",
    "default_checkers",
]

# Modules on the numeric hot path where NEP-50 scalar promotion and GEMM
# layout mistakes actually cost correctness or throughput.
_HOT_DIR_RE = re.compile(r"src/repro/(nn|diffusion|quant)/")
_GEMM_DIR_RE = re.compile(r"src/repro/(nn|diffusion|quant|core)/")

_NUMPY_ALIASES = {"np", "numpy"}


def _is_numpy_call(node: ast.Call, names: Set[str]) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_ALIASES
        and func.attr in names
    )


def _attr_call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class _ParentAnnotator(ast.NodeVisitor):
    """Attach ``_lint_parent`` back-references so checkers can look upward."""

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]
        super().generic_visit(node)


def _annotate_parents(tree: ast.AST) -> None:
    tree._lint_parent = None  # type: ignore[attr-defined]
    _ParentAnnotator().visit(tree)


# ---------------------------------------------------------------------------
# RPL001 - numpy scalar math leaking float64 into hot-path array arithmetic
# ---------------------------------------------------------------------------

# np.<fn>(python_scalar) returns a np.float64 *scalar*, which NEP-50 treats
# as "strong": multiplying it into a float32 array silently promotes the
# whole array to float64 (the gelu/attention leak class PR 5 fixed by hand).
# math.<fn> / float(np.<fn>(...)) produce weak Python floats that preserve
# the array dtype - and are bit-identical on the float64 path (same
# correctly-rounded libm).
_SCALAR_MATH_FNS = {
    "sqrt",
    "log",
    "log2",
    "log10",
    "log1p",
    "exp",
    "expm1",
    "power",
    "cos",
    "sin",
    "tan",
    "arcsin",
    "arccos",
    "arctan",
    "arctan2",
}

# Calls that conjure an ndarray out of non-array inputs; names assigned from
# them (or from expressions containing known arrays) count as array evidence.
_ARRAY_PRODUCERS = {
    "arange",
    "linspace",
    "zeros",
    "zeros_like",
    "ones",
    "ones_like",
    "empty",
    "empty_like",
    "full",
    "full_like",
    "asarray",
    "array",
    "ascontiguousarray",
    "atleast_1d",
    "atleast_2d",
    "concatenate",
    "stack",
    "where",
    "cumprod",
    "cumsum",
    "clip",
    "pad",
    "rint",
    "abs",
    "maximum",
    "minimum",
    "outer",
    "meshgrid",
}

# Methods whose result is an ndarray whenever they are worth calling at all.
_ARRAY_METHODS = {"astype", "reshape", "copy", "transpose", "standard_normal", "normal", "uniform"}


class _ScopeInfo:
    """Names with local evidence of being ndarrays, per function scope."""

    def __init__(self) -> None:
        self.array_names: Set[str] = set()


def _annotation_is_array(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failures on exotic nodes
        return False
    return "ndarray" in text


class DtypePromotionChecker(Checker):
    """RPL001: ``np.<math>(scalar)`` in hot modules promotes f32 arrays.

    Dataflow-backed since the RPL007-RPL010 engine landed: the local
    name-evidence heuristic is refined by the interprocedural abstract
    interpreter, so an argument produced by a helper that provably returns an
    ndarray no longer trips the rule (and provably-scalar arguments flag even
    when a same-named array exists in scope).  Rule ID and messages are
    unchanged, so existing baselines and suppressions keep working.
    """

    rule = "RPL001"
    title = "numpy float64 scalar leaking into hot-path array arithmetic"

    def check_project(self, project: Project) -> Iterable[Finding]:
        from .dataflow.rules import engine_for

        engine = engine_for(project)
        findings: List[Finding] = []
        for handle in project.files.values():
            if handle.scope not in self.scopes:
                continue
            findings.extend(self._check_handle(handle, engine))
        return findings

    def _check_handle(self, handle: SourceFile, engine=None) -> List[Finding]:
        if not _HOT_DIR_RE.search(handle.rel_path):
            return []
        _annotate_parents(handle.tree)
        findings: List[Finding] = []
        for scope_node, body in self._scopes(handle.tree):
            info = self._scope_info(scope_node, body)
            for node in body:
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    # Don't descend into nested function scopes twice.
                    if self._enclosing_scope(call) is not scope_node:
                        continue
                    finding = self._check_call(call, info, handle, engine)
                    if finding is not None:
                        findings.append(finding)
        return findings

    # -- scope handling ----------------------------------------------------

    def _scopes(self, tree: ast.AST) -> List[Tuple[ast.AST, List[ast.stmt]]]:
        scopes: List[Tuple[ast.AST, List[ast.stmt]]] = [(tree, list(tree.body))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, list(node.body)))
        return scopes

    def _enclosing_scope(self, node: ast.AST) -> ast.AST:
        current = getattr(node, "_lint_parent", None)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            current = getattr(current, "_lint_parent", None)
        return current

    def _scope_info(self, scope_node: ast.AST, body: Sequence[ast.stmt]) -> _ScopeInfo:
        info = _ScopeInfo()
        if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope_node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _annotation_is_array(arg.annotation):
                    info.array_names.add(arg.arg)
        # Two passes so chains like a = np.arange(n); b = a * 2 resolve.
        for _ in range(2):
            for stmt in body:
                for node in ast.walk(stmt):
                    target = None
                    value = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                        target, value = node.target, node.value
                    if not isinstance(target, ast.Name) or value is None:
                        continue
                    if self._is_arrayish(value, info):
                        info.array_names.add(target.id)
        return info

    def _is_arrayish(self, node: ast.AST, info: _ScopeInfo) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in info.array_names:
                return True
            if isinstance(sub, ast.Call):
                if _is_numpy_call(sub, _ARRAY_PRODUCERS):
                    return True
                if isinstance(sub.func, ast.Attribute) and sub.func.attr in _ARRAY_METHODS:
                    return True
        return False

    # -- the actual check --------------------------------------------------

    def _check_call(
        self, call: ast.Call, info: _ScopeInfo, handle: SourceFile, engine=None
    ) -> Optional[Finding]:
        if not _is_numpy_call(call, _SCALAR_MATH_FNS):
            return None
        # out= targets an existing array: no scalar is produced.
        if any(kw.arg == "out" for kw in call.keywords):
            return None
        # float(np.sqrt(...)) is the sanctioned weak-scalar idiom.
        parent = getattr(call, "_lint_parent", None)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "float"
        ):
            return None
        # Dataflow refinement: positive array evidence on any argument (e.g.
        # a helper whose summary provably returns an ndarray) means the dtype
        # follows the array - fine even when no local name evidence exists.
        if engine is not None and any(
            engine.value_of(arg).array is True for arg in call.args
        ):
            return None
        # Any array evidence in the arguments means the result is an array
        # and dtype follows the input - fine.
        if any(self._is_arrayish(arg, info) for arg in call.args):
            # ... unless the dataflow engine proves every argument scalar
            # (a same-named scalar shadowing an array, a scalar helper).
            if not (
                engine is not None
                and call.args
                and all(engine.value_of(arg).array is False for arg in call.args)
            ):
                return None
        fn = call.func.attr  # type: ignore[union-attr]
        return Finding(
            path=handle.rel_path,
            line=call.lineno,
            rule=self.rule,
            message=(
                f"np.{fn}(<scalar>) yields a strong np.float64 scalar that "
                f"promotes float32 arrays under NEP 50; use math.{fn}(...) or "
                f"wrap in float(...)"
            ),
        )


# ---------------------------------------------------------------------------
# RPL003 - every BenchmarkSpec field feeds the cache key
# ---------------------------------------------------------------------------


class SpecCacheKeyChecker(Checker):
    """RPL003: spec fields must be consumed by both cache-key producers.

    PR 5 had to thread ``calibration_dtype`` into ``engine_key`` by hand to
    stop differently-calibrated engines from aliasing one cache entry.  Any
    ``BenchmarkSpec`` dataclass field must be referenced by
    ``BenchmarkSpec.signature()`` *and* by the duck-typing fallback in
    ``repro.runtime.hashing.spec_signature`` (which ``engine_key`` consumes).
    """

    rule = "RPL003"
    title = "BenchmarkSpec field missing from the cache-key signature"

    spec_suffix = "workloads/suite.py"
    hashing_suffix = "runtime/hashing.py"

    def check_project(self, project: Project) -> Iterable[Finding]:
        spec_file = project.find(self.spec_suffix)
        hashing_file = project.find(self.hashing_suffix)
        if spec_file is None or hashing_file is None:
            return []
        spec_cls = self._find_class(spec_file.tree, "BenchmarkSpec")
        if spec_cls is None:
            return []
        fields = self._dataclass_fields(spec_cls)
        signature = self._find_function(spec_cls, "signature")
        fallback = self._find_function(hashing_file.tree, "spec_signature")
        findings: List[Finding] = []
        for name, line in fields:
            missing = []
            if signature is not None and not self._references(signature, name):
                missing.append("BenchmarkSpec.signature()")
            if fallback is not None and not self._references(fallback, name):
                missing.append("runtime.hashing.spec_signature()")
            if missing:
                findings.append(
                    Finding(
                        path=spec_file.rel_path,
                        line=line,
                        rule=self.rule,
                        message=(
                            f"spec field {name!r} is not consumed by "
                            f"{' or '.join(missing)}; new knobs must reach the "
                            f"engine cache key or cached engines alias"
                        ),
                    )
                )
        return findings

    def _find_class(self, tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        return None

    def _find_function(self, tree: ast.AST, name: str) -> Optional[ast.FunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    def _dataclass_fields(self, cls: ast.ClassDef) -> List[Tuple[str, int]]:
        fields = []
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                annotation = ast.unparse(node.annotation) if node.annotation else ""
                if "ClassVar" in annotation:
                    continue
                fields.append((node.target.id, node.lineno))
        return fields

    def _references(self, fn: ast.FunctionDef, name: str) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
            if isinstance(node, ast.Constant) and node.value == name:
                return True
        return False


# ---------------------------------------------------------------------------
# RPL004 - hot-loop entry points stay profiled; buckets stay gated
# ---------------------------------------------------------------------------

_PROFILING_NAMES = {"profiling", "prof", "profiler"}
_PROFILING_CALLS = {"phase", "add", "record", "active"}


class ProfilerPhaseChecker(Checker):
    """RPL004: registered hot-loop entry points must carry phase hooks.

    The bench schema and ``scripts/check_bench.py`` gate per-phase timings;
    an entry point that silently loses its hook (or a bucket unknown to the
    gate) makes the perf regression gate blind to exactly the loops it was
    built to watch.
    """

    rule = "RPL004"
    title = "hot-loop entry point without profiler-phase coverage"

    # path suffix -> function names that must contain a profiling hook
    entry_points: Dict[str, Set[str]] = {
        "nn/functional.py": {
            "group_norm", "layer_norm", "im2col", "im2col_t", "unfold_rows"
        },
        "core/engine.py": {"from_model"},
    }
    # files that must know every bucket name used at a phase call site
    gate_files = ("scripts/check_bench.py", "src/repro/bench.py")

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_entry_points(project))
        findings.extend(self._check_buckets(project))
        return findings

    def _check_entry_points(self, project: Project) -> List[Finding]:
        findings = []
        for suffix, names in self.entry_points.items():
            handle = project.find(suffix)
            if handle is None:
                continue
            for node in ast.walk(handle.tree):
                if isinstance(node, ast.FunctionDef) and node.name in names:
                    if not self._has_profiling_call(node):
                        findings.append(
                            Finding(
                                path=handle.rel_path,
                                line=node.lineno,
                                rule=self.rule,
                                message=(
                                    f"hot-loop entry point {node.name!r} has no "
                                    f"profiling phase hook (profiling.phase / "
                                    f"prof.add / profiling.record)"
                                ),
                            )
                        )
        return findings

    def _has_profiling_call(self, fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in _PROFILING_NAMES
                    and node.func.attr in _PROFILING_CALLS
                ):
                    return True
        return False

    def _check_buckets(self, project: Project) -> List[Finding]:
        findings = []
        gates = {suffix: project.text(suffix) for suffix in self.gate_files}
        for handle in project.files.values():
            for bucket, line in self._bucket_sites(handle):
                for suffix, text in gates.items():
                    if text is None:
                        continue
                    if not re.search(rf"\b{re.escape(bucket)}\b", text):
                        findings.append(
                            Finding(
                                path=handle.rel_path,
                                line=line,
                                rule=self.rule,
                                message=(
                                    f"phase bucket {bucket!r} is unknown to "
                                    f"{suffix}; the perf gate cannot watch it"
                                ),
                            )
                        )
        return findings

    def _bucket_sites(self, handle: SourceFile) -> List[Tuple[str, int]]:
        sites = []
        for node in ast.walk(handle.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            base = node.func.value
            if not (isinstance(base, ast.Name) and base.id in _PROFILING_NAMES):
                continue
            if node.func.attr not in {"phase", "add", "record"}:
                continue
            if node.args and isinstance(node.args[0], ast.Constant):
                value = node.args[0].value
                if isinstance(value, str):
                    sites.append((value, node.lineno))
        return sites


# ---------------------------------------------------------------------------
# RPL005 - layout discipline at the exact-f32 GEMM call sites
# ---------------------------------------------------------------------------

_GEMM_SINKS = {"conv2d_from_cols", "conv2d_from_cols_t", "linear", "matmul", "dot"}
_VIEW_METHODS = {"transpose", "swapaxes", "reshape"}


# Receiver spellings of the compute-backend dispatch surface:
# ``bk = backends.active(); bk.matmul(...)`` or ``backends.active().linear(...)``.
_BACKEND_RECEIVERS = {"bk", "backend", "backends"}


def is_backend_dispatch(node: ast.AST) -> bool:
    """True for calls routed through the compute-backend dispatch.

    The dispatch surface owns operand layout - it may materialize or
    re-block strided views internally - so the layout rules treat
    dispatched calls as sanctioned and keep watching the raw kernels,
    including the dispatch implementation itself.
    """
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    recv = node.func.value
    if isinstance(recv, ast.Name) and recv.id in _BACKEND_RECEIVERS:
        return True
    return (
        isinstance(recv, ast.Call)
        and isinstance(recv.func, ast.Attribute)
        and recv.func.attr == "active"
    )


def is_direct_strided_view(node: ast.AST) -> bool:
    """Syntactic ``.T`` / ``.transpose()`` / ``.reshape()`` view expression.

    Shared with RPL008 so the flow-sensitive rule skips exactly the operands
    the direct rule already owns (one finding per defect, stable rule IDs).
    """
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _VIEW_METHODS:
            return True
    return False


class GemmLayoutChecker(Checker):
    """RPL005: no transposed/reshaped views straight into the GEMM kernels.

    The blocked integer GEMMs and the exact-f32 fast path assume C-contiguous
    operands (the PR 2 "reduction temporaries must inherit layout" subtlety);
    a strided view silently forces a copy per call or, worse, a slow BLAS
    path.  Wrap the operand in ``np.ascontiguousarray(...)`` (or materialize
    it earlier) to state the layout explicitly.
    """

    rule = "RPL005"
    title = "strided view fed directly into an exact-f32 GEMM call site"

    def check_project(self, project: Project) -> Iterable[Finding]:
        from .dataflow.rules import engine_for

        engine = engine_for(project)
        findings: List[Finding] = []
        for handle in project.files.values():
            if handle.scope not in self.scopes:
                continue
            findings.extend(self._check_handle(handle, engine))
        return findings

    def _check_handle(self, handle: SourceFile, engine=None) -> List[Finding]:
        if not _GEMM_DIR_RE.search(handle.rel_path):
            return []
        findings: List[Finding] = []
        for node in ast.walk(handle.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _attr_call_name(node)
            if callee not in _GEMM_SINKS:
                continue
            if is_backend_dispatch(node):
                continue
            # np.dot/np.matmul check both operands; the repo kernels take the
            # layout-critical cols/data operand first.
            n_args = 2 if callee in {"matmul", "dot"} else 1
            for arg in node.args[:n_args]:
                if self._is_strided_view(arg):
                    # Dataflow refinement: reshape of a provably C-contiguous
                    # base is itself C-contiguous - no copy, no strided view.
                    if (
                        engine is not None
                        and isinstance(arg, ast.Call)
                        and isinstance(arg.func, ast.Attribute)
                        and arg.func.attr == "reshape"
                        and engine.value_of(arg.func.value).is_contig
                    ):
                        continue
                    findings.append(
                        Finding(
                            path=handle.rel_path,
                            line=arg.lineno,
                            rule=self.rule,
                            message=(
                                f"{ast.unparse(arg)} is a strided view passed "
                                f"directly to {callee}(); wrap in "
                                f"np.ascontiguousarray(...) to guarantee layout"
                            ),
                        )
                    )
        return findings

    def _is_strided_view(self, node: ast.AST) -> bool:
        return is_direct_strided_view(node)


# ---------------------------------------------------------------------------
# RPL006 - the fault-tolerant serving stack may not swallow exceptions
# ---------------------------------------------------------------------------

# The two modules that own session health.  A swallowed exception here leaves
# a session that *looks* healthy but has diverged from its replay journal -
# exactly the state the crash-recovery contract (PR 7) exists to rule out.
_RPL006_FILE_RE = re.compile(r"src/repro/(core/session|runtime/serving)\.py$")


class SwallowedExceptionChecker(Checker):
    """RPL006: serving-stack ``except`` blocks must re-raise or mark unhealthy.

    Fault-tolerant serving relies on failures being *loud*: a step failure
    either propagates (so the retry/recovery machinery sees it) or flips the
    session's health flag (so later calls refuse to run on diverged state).
    An ``except`` handler in ``core/session.py`` or ``runtime/serving.py``
    that does neither silently absorbs a fault and lets bit-exactness claims
    rot.  Handlers that are intentionally terminal carry
    ``# repro-lint: ignore[RPL006]``.
    """

    rule = "RPL006"
    title = "exception swallowed in the fault-tolerant serving stack"

    def check_file(self, handle: SourceFile) -> Iterable[Finding]:
        if not _RPL006_FILE_RE.search(handle.rel_path):
            return []
        findings: List[Finding] = []
        for node in ast.walk(handle.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._handler_is_loud(node):
                continue
            caught = ast.unparse(node.type) if node.type is not None else "BaseException"
            findings.append(
                Finding(
                    path=handle.rel_path,
                    line=node.lineno,
                    rule=self.rule,
                    message=(
                        f"except {caught} swallows the exception; re-raise, "
                        f"mark the session unhealthy, or annotate with "
                        f"# repro-lint: ignore[RPL006]"
                    ),
                )
            )
        return findings

    def _handler_is_loud(self, handler: ast.ExceptHandler) -> bool:
        """True when the handler re-raises or touches session health."""
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                # mark_unhealthy(...), session.healthy, self._healthy = False,
                # "unhealthy" string reasons - any health-flag traffic counts.
                if isinstance(node, ast.Attribute) and "healthy" in node.attr:
                    return True
                if isinstance(node, ast.Name) and "healthy" in node.id:
                    return True
        return False


# ---------------------------------------------------------------------------
# RPL011 - quantized GEMMs must go through the compute-backend dispatch
# ---------------------------------------------------------------------------

# The backends module is the one place allowed to spell raw products: it IS
# the dispatch target.
_BACKEND_DIR_RE = re.compile(r"src/repro/nn/backends\.py$")
_RAW_GEMM_CALLS = {"matmul", "einsum"}

# Operand spellings that carry quantized-integer evidence in this codebase:
# the q_*-prefixed quantized activations/weights, the qq/qk/qv/qp/dq/dk/dv/dp
# attention operand idiom, temporal diffs and prev_* carries, and *_int
# accumulators.  A raw product over such operands is exactly the GEMM the
# backend interface exists to own.
_QUANT_NAME_RE = re.compile(
    r"^(qq|qk|qv|qp|dq|dk|dv|dp)$"
    r"|^(q|int|diff|quant)_"
    r"|^(diff|prev)"
    r"|_(q|int|cols)$"
)


class BackendDispatchChecker(Checker):
    """RPL011: raw ``@`` / ``np.matmul`` / ``np.einsum`` on quantized operands.

    Every integer GEMM goes through ``repro.nn.backends.active()``: that
    dispatch is the entry point a profiler wraps to count GEMM calls and
    MACs per layer.  A raw matmul on quantized operands outside
    ``src/repro/nn/backends.py`` runs untraced, so the per-layer ledger
    silently misses its cost.  Use ``backends.active().matmul(...)`` (or
    ``linear`` / ``conv2d_from_cols_t``), or annotate
    ``# repro-lint: ignore[RPL011]`` when the product is genuinely not a
    GEMM worth counting.

    The operand test is the name heuristic above refined by the dataflow
    engine: operands it proves non-array (plain scalars that merely reuse a
    quantized-sounding name) never fire.
    """

    rule = "RPL011"
    title = "quantized GEMM bypassing the compute-backend dispatch"

    def check_project(self, project: Project) -> Iterable[Finding]:
        from .dataflow.rules import engine_for

        engine = engine_for(project)
        findings: List[Finding] = []
        for handle in project.files.values():
            if handle.scope not in self.scopes:
                continue
            findings.extend(self._check_handle(handle, engine))
        return findings

    def _check_handle(self, handle: SourceFile, engine=None) -> List[Finding]:
        if not _GEMM_DIR_RE.search(handle.rel_path):
            return []
        if _BACKEND_DIR_RE.search(handle.rel_path):
            return []
        findings: List[Finding] = []
        for node in ast.walk(handle.tree):
            site, operands = self._raw_gemm(node)
            if site is None:
                continue
            quantized = [op for op in operands if self._is_quantized(op)]
            if not quantized:
                continue
            # Dataflow refinement: when every quantized-named operand is
            # provably non-array (a float knob reusing a quantized-sounding
            # name), this is scalar math, not a GEMM.
            if engine is not None and all(
                engine.value_of(op).array is False for op in quantized
            ):
                continue
            shown = ", ".join(ast.unparse(op) for op in quantized)
            findings.append(
                Finding(
                    path=handle.rel_path,
                    line=node.lineno,
                    rule=self.rule,
                    message=(
                        f"raw {site} on quantized operand(s) {shown} bypasses "
                        f"the compute-backend dispatch; route through "
                        f"repro.nn.backends.active() so the per-layer ledger "
                        f"counts every integer GEMM"
                    ),
                )
            )
        return findings

    def _raw_gemm(self, node: ast.AST):
        """``(site_label, operand_nodes)`` for raw-product sites, else None."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return "@", [node.left, node.right]
        if isinstance(node, ast.Call) and _is_numpy_call(node, _RAW_GEMM_CALLS):
            fn = node.func.attr  # type: ignore[union-attr]
            operands = list(node.args)
            # np.einsum("subscripts", *operands): skip the subscript string.
            if fn == "einsum" and operands and isinstance(operands[0], ast.Constant):
                operands = operands[1:]
            return f"np.{fn}", operands
        return None, []

    def _is_quantized(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and _QUANT_NAME_RE.search(sub.id):
                return True
            if isinstance(sub, ast.Attribute) and _QUANT_NAME_RE.search(sub.attr):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "quantize"
            ):
                return True
        return False


def default_checkers() -> List[Checker]:
    # Imported lazily: dataflow.rules imports the sink sets from this module.
    from .dataflow.rules import (
        DtypeFlowChecker,
        LayoutFlowChecker,
        RngStreamChecker,
        SessionLifecycleChecker,
    )

    return [
        DtypePromotionChecker(),
        SpecCacheKeyChecker(),
        ProfilerPhaseChecker(),
        GemmLayoutChecker(),
        SwallowedExceptionChecker(),
        DtypeFlowChecker(),
        LayoutFlowChecker(),
        RngStreamChecker(),
        SessionLifecycleChecker(),
        BackendDispatchChecker(),
    ]
