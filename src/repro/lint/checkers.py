"""The repo-specific invariant checkers (RPL001, RPL011).

Each rule encodes a contract that a past PR violated by hand and that no
test or runtime sanitizer catches; see README "Invariants & static checks"
for the rule table, the retired rules and what now guards their defects.
Both are syntactic, per-file AST passes.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .framework import Checker, Finding, SourceFile

__all__ = [
    "DtypePromotionChecker",
    "BackendDispatchChecker",
    "default_checkers",
]

# Modules on the numeric hot path where NEP-50 scalar promotion costs
# correctness or throughput, and where quantized GEMMs live.
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

    An argument counts as an array when the enclosing function gives local
    evidence for it: an ``ndarray`` annotation, an ``np.<producer>(...)``
    call or array method, or a name assigned from one.  Anything else is
    treated as a scalar.
    """

    rule = "RPL001"
    title = "numpy float64 scalar leaking into hot-path array arithmetic"

    def check_file(self, handle: SourceFile) -> Iterable[Finding]:
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
                    finding = self._check_call(call, info, handle)
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
        self, call: ast.Call, info: _ScopeInfo, handle: SourceFile
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
        # Any array evidence in the arguments means the result is an array
        # and dtype follows the input - fine.
        if any(self._is_arrayish(arg, info) for arg in call.args):
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
# RPL011 - quantized GEMMs must go through the compute-backend dispatch
# ---------------------------------------------------------------------------

# The backends module is the one place allowed to spell raw products: it IS
# the dispatch target.
_BACKEND_DIR_RE = re.compile(r"src/repro/nn/backends\.py$")
_RAW_GEMM_CALLS = {"matmul", "einsum"}

# Operand spellings that carry quantized-integer evidence in this codebase:
# the q_*-prefixed quantized activations/weights, the qq/qk/qv/qp/dq/dk/dv/dp
# attention operand idiom, temporal diffs and prev_* carries, *_int
# accumulators, and the unfolded cols buffers the quantized convs multiply.
# A raw product over such operands is exactly the GEMM the backend interface
# exists to own.
_QUANT_NAME_RE = re.compile(
    r"^(qq|qk|qv|qp|dq|dk|dv|dp)$"
    r"|^(q|int|diff|quant)_"
    r"|^(diff|prev)"
    r"|_(q|int)$"
    r"|(^|_)cols$"
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

    The operand test is the name heuristic above: a scalar that merely
    reuses a quantized-sounding name fires too, and takes the suppression.
    """

    rule = "RPL011"
    title = "quantized GEMM bypassing the compute-backend dispatch"

    def check_file(self, handle: SourceFile) -> Iterable[Finding]:
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
    return [DtypePromotionChecker(), BackendDispatchChecker()]
