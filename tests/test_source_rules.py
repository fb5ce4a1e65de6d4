"""Two source rules over ``src/repro``, checked by walking its AST.

* **RPL001** (``nn/``, ``diffusion/``, ``quant/``): no ``np.<math>(scalar)``.
  numpy float64 scalars are "strong" under NEP 50 and silently promote
  float32 arrays to float64, re-widening the float32 calibration fast path.
  Use ``math.<fn>(...)`` or ``float(np.<fn>(...))``: bit-identical on the
  float64 path.
* **RPL011** (``nn/``, ``diffusion/``, ``quant/``, ``core/``; not
  ``nn/backends.py``, the dispatch itself): no raw ``@`` / ``np.matmul`` /
  ``np.einsum`` on quantized-named operands.  Every quantized GEMM goes
  through ``repro.nn.backends.active()``, the entry point a profiler wraps,
  or the per-layer ledger silently misses its calls and MACs.

A finding fails ``test_repo_is_clean`` as ``path:line: RULE message``.  Both
rules are name and evidence heuristics; a false positive is fixed in the
source (rename the operand, or route the product through
``backends.active()``), there is no suppression comment.  Each rule is
pinned by seeded edits to real source that it catches; the quantized
attention scale, the weight-init bound and the raw quantized products are
caught by nothing else.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
NUMPY = {"np", "numpy"}


def _is_numpy_call(node, names):
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in NUMPY
        and func.attr in names
    )


# ---------------------------------------------------------------------------
# RPL001 - numpy scalar math leaking float64 into hot-path array arithmetic
# ---------------------------------------------------------------------------

SCALAR_MATH = {
    "sqrt", "log", "log2", "log10", "log1p", "exp", "expm1", "power",
    "cos", "sin", "tan", "arcsin", "arccos", "arctan", "arctan2",
}
# Calls that make an ndarray out of non-array inputs, and methods whose
# result is one: names assigned from them count as array evidence.
ARRAY_PRODUCERS = {
    "arange", "linspace", "zeros", "zeros_like", "ones", "ones_like", "empty",
    "empty_like", "full", "full_like", "asarray", "array", "ascontiguousarray",
    "atleast_1d", "atleast_2d", "concatenate", "stack", "where", "cumprod",
    "cumsum", "clip", "pad", "rint", "abs", "maximum", "minimum", "outer",
    "meshgrid",
}
ARRAY_METHODS = {"astype", "reshape", "copy", "transpose", "standard_normal", "normal", "uniform"}


def _is_arrayish(node, arrays):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in arrays:
            return True
        if isinstance(sub, ast.Call) and (
            _is_numpy_call(sub, ARRAY_PRODUCERS)
            or (isinstance(sub.func, ast.Attribute) and sub.func.attr in ARRAY_METHODS)
        ):
            return True
    return False


def _array_names(scope):
    """Names the scope gives array evidence for: an ``ndarray`` annotation,
    or an assignment from an array producer or from a known array."""
    arrays = set()
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None and "ndarray" in ast.unparse(arg.annotation):
                arrays.add(arg.arg)
    for _ in range(2):  # two passes resolve chains like a = np.arange(n); b = a * 2
        for node in (n for stmt in scope.body for n in ast.walk(stmt)):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                target, value = node.target, node.value
            else:
                continue
            if isinstance(target, ast.Name) and value is not None and _is_arrayish(value, arrays):
                arrays.add(target.id)
    return arrays


def _own_calls(scope):
    """``(parent, call)`` for every call in the scope's body, not descending
    into nested functions (they are scopes of their own)."""
    stack = [(None, stmt) for stmt in scope.body]
    while stack:
        parent, node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Call):
            yield parent, node
        stack.extend((node, child) for child in ast.iter_child_nodes(node))


def rpl001(tree):
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        arrays = _array_names(scope)
        for parent, call in _own_calls(scope):
            if (
                not _is_numpy_call(call, SCALAR_MATH)
                # out= targets an existing array: no scalar is produced.
                or any(kw.arg == "out" for kw in call.keywords)
                # float(np.sqrt(...)) is the sanctioned weak-scalar idiom.
                or (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id == "float"
                )
                # An array argument makes an array result of its dtype.
                or any(_is_arrayish(arg, arrays) for arg in call.args)
            ):
                continue
            fn = call.func.attr
            yield call.lineno, (
                f"np.{fn}(<scalar>) yields a strong np.float64 scalar that promotes "
                f"float32 arrays under NEP 50; use math.{fn}(...) or wrap in float(...)"
            )


# ---------------------------------------------------------------------------
# RPL011 - quantized GEMMs must go through the compute-backend dispatch
# ---------------------------------------------------------------------------

# Operand spellings that carry quantized-integer evidence in this codebase:
# the q_* activations/weights, the qq/qk/qv/qp/dq/dk/dv/dp attention
# operands, temporal diffs and prev_* carries, *_int accumulators, and the
# unfolded cols buffers the quantized convs multiply.
QUANT_NAME = re.compile(
    r"^(qq|qk|qv|qp|dq|dk|dv|dp)$"
    r"|^(q|int|diff|quant)_"
    r"|^(diff|prev)"
    r"|_(q|int)$"
    r"|(^|_)cols$"
)


def _is_quantized(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and QUANT_NAME.search(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and QUANT_NAME.search(sub.attr):
            return True
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr == "quantize":
            return True
    return False


def rpl011(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            site, operands = "@", [node.left, node.right]
        elif isinstance(node, ast.Call) and _is_numpy_call(node, {"matmul", "einsum"}):
            site, operands = f"np.{node.func.attr}", list(node.args)
            # np.einsum("subscripts", *operands): skip the subscript string.
            if node.func.attr == "einsum" and operands and isinstance(operands[0], ast.Constant):
                operands = operands[1:]
        else:
            continue
        quantized = [ast.unparse(op) for op in operands if _is_quantized(op)]
        if quantized:
            yield node.lineno, (
                f"raw {site} on quantized operand(s) {', '.join(quantized)} bypasses the "
                f"compute-backend dispatch; route through repro.nn.backends.active() so "
                f"the per-layer ledger counts every integer GEMM"
            )


# rule -> (check, the repo-relative paths it scans, the ones it exempts)
RULES = {
    "RPL001": (rpl001, re.compile(r"src/repro/(nn|diffusion|quant)/"), None),
    "RPL011": (
        rpl011,
        re.compile(r"src/repro/(nn|diffusion|quant|core)/"),
        re.compile(r"src/repro/nn/backends\.py$"),
    ),
}


def scan(sources, scanned=None):
    """Findings ``(path, line, rule, message)`` over ``{repo path: source}``,
    sorted; ``scanned`` collects, per rule, the paths the rule checked."""
    findings = set()
    for path, text in sources.items():
        tree = ast.parse(text, filename=path)
        for rule, (check, scope, exempt) in RULES.items():
            if scope.search(path) and not (exempt and exempt.search(path)):
                findings.update((path, line, rule, message) for line, message in check(tree))
                if scanned is not None:
                    scanned.setdefault(rule, set()).add(path)
    return sorted(findings)


def _rules(findings):
    return [(line, rule) for _, line, rule, _ in findings]


@pytest.fixture(scope="module")
def repo_sources():
    paths = sorted((ROOT / "src" / "repro").rglob("*.py"))
    return {path.relative_to(ROOT).as_posix(): path.read_text() for path in paths}


def test_repo_is_clean(repo_sources):
    findings = scan(repo_sources)
    assert findings == [], "\n".join(
        f"{path}:{line}: {rule} {message}" for path, line, rule, message in findings
    )


def test_repo_scan_covers_every_scoped_dir(repo_sources):
    """The clean scan cannot pass by reading nothing: each rule parsed files
    in each of its directories, and RPL011 exempts only the dispatch."""
    scanned = {}
    scan(repo_sources, scanned)
    for rule, dirs in (
        ("RPL001", ("nn", "diffusion", "quant")),
        ("RPL011", ("nn", "diffusion", "quant", "core")),
    ):
        prefixes = tuple(f"src/repro/{name}/" for name in dirs)
        for prefix in prefixes:
            assert any(path.startswith(prefix) for path in scanned[rule]), (
                f"{rule} parsed nothing under {prefix}"
            )
        in_dirs = {path for path in repo_sources if path.startswith(prefixes)}
        exempt = {"src/repro/nn/backends.py"} if rule == "RPL011" else set()
        assert scanned[rule] == in_dirs - exempt and exempt <= in_dirs


# (rule, file under src/repro, the sanctioned spelling, the seeded defect).
# Tier-1 and the sanitizer suite pass under the qlayers.py edits and under
# the nn/layers.py one; the rules are their only guard.  The other four also
# fail float32 numerics tests, and are pinned so the rules' scope cannot
# narrow.
SEEDED_EDITS = [
    pytest.param("RPL001", "nn/attention.py", "/ float(np.sqrt(self.head_dim))",
                 "/ np.sqrt(self.head_dim)", id="RPL001-attention-scale"),
    pytest.param("RPL001", "quant/qlayers.py", "/ float(np.sqrt(self.head_dim))",
                 "/ np.sqrt(self.head_dim)", id="RPL001-quantized-attention-scale"),
    pytest.param("RPL001", "nn/functional.py", "_GELU_C = float(np.sqrt(2.0 / np.pi))",
                 "_GELU_C = np.sqrt(2.0 / np.pi)", id="RPL001-gelu-constant"),
    pytest.param("RPL001", "diffusion/samplers.py", "x_prev = math.sqrt(a_bar_prev) * x0",
                 "x_prev = np.sqrt(a_bar_prev) * x0", id="RPL001-ddim-step"),
    pytest.param("RPL001", "diffusion/schedule.py", "return math.sqrt(a_bar) * x0",
                 "return np.sqrt(a_bar) * x0", id="RPL001-add-noise"),
    pytest.param("RPL001", "nn/layers.py", "1.0 / math.sqrt(max(fan_in, 1))",
                 "1.0 / np.sqrt(max(fan_in, 1))", id="RPL001-weight-init"),
    pytest.param("RPL011", "quant/qlayers.py", "s_int = bk.matmul(qq, kt)",
                 "s_int = qq @ kt", id="RPL011-attention-scores"),
    pytest.param("RPL011", "quant/qlayers.py", "out_int = bk.linear(q_in, q_weight)",
                 "out_int = q_in @ q_weight.T", id="RPL011-linear"),
    pytest.param("RPL011", "quant/qlayers.py",
                 "conv = bk.matmul(self._w_rows[0], cols[:, :, :span])",
                 "conv = self._w_rows[0] @ cols[:, :, :span]", id="RPL011-row-shift-conv"),
]


@pytest.mark.parametrize("rule, module, sanctioned, seeded", SEEDED_EDITS)
def test_seeded_edit_is_caught(repo_sources, rule, module, sanctioned, seeded):
    path = f"src/repro/{module}"
    source = repo_sources[path]
    assert source.count(sanctioned) == 1, f"seed site moved: {sanctioned!r} in {path}"
    line = source[: source.index(sanctioned)].count("\n") + 1
    assert scan({path: source}) == []
    findings = scan({path: source.replace(sanctioned, seeded)})
    assert [(p, ln, r) for p, ln, r, _ in findings] == [(path, line, rule)]


# ---------------------------------------------------------------------------
# fixtures: each rule fires on a violation, stays quiet on its clean twin
# and outside its scope
# ---------------------------------------------------------------------------

RPL001_BAD = """\
import numpy as np


def step(x: np.ndarray, a_bar: float) -> np.ndarray:
    return np.sqrt(a_bar) * x
"""

RPL001_CLEAN = """\
import math

import numpy as np


def step(x: np.ndarray, a_bar: float) -> np.ndarray:
    coeff = math.sqrt(a_bar)          # weak Python float: fine
    other = float(np.sqrt(a_bar))     # sanctioned wrap: fine
    grid = np.sqrt(np.arange(4))      # array argument: fine
    np.sqrt(x, out=x)                 # in-place on an array: fine
    chained = x * 2.0
    also = np.sqrt(chained)           # derived array name: fine
    return coeff * other * grid.sum() * also
"""


def test_rpl001_flags_scalar_np_math():
    findings = scan({"src/repro/diffusion/bad.py": RPL001_BAD})
    assert _rules(findings) == [(5, "RPL001")]
    assert "math.sqrt" in findings[0][3]


def test_rpl001_clean_twin_is_quiet():
    assert scan({"src/repro/diffusion/good.py": RPL001_CLEAN}) == []


def test_rpl001_only_applies_to_hot_modules():
    # Same violating code outside nn/diffusion/quant is out of scope.
    assert scan({"src/repro/workloads/bad.py": RPL001_BAD}) == []


def test_scoped_rules_skip_out_of_scope_files():
    # The rules watch src/repro's hot modules: the same violating code in
    # scripts/ or tests/helpers.py (test-only idioms) must stay quiet.
    assert scan({"scripts/bad.py": RPL001_BAD}) == []
    assert scan({"tests/helpers.py": RPL001_BAD}) == []


RPL011_BAD = """\
import numpy as np


def qk_scores(qq, dq, prev_k):
    s_int = qq @ prev_k
    s_int += np.matmul(dq, prev_k)
    s_int += np.einsum("bhtd,bhsd->bhts", dq, prev_k)
    return s_int
"""

RPL011_CLEAN = """\
import numpy as np

from repro.nn import backends


def qk_scores(qq, dq, prev_k, x, weight):
    bk = backends.active()
    s_int = bk.matmul(qq, prev_k)          # dispatched: fine
    s_int += bk.matmul(dq, prev_k)
    mixed = x @ weight                     # unquantized operands: fine
    probs = np.matmul(mixed, weight)       # unquantized np.matmul: fine
    return s_int + probs
"""


def test_rpl011_flags_raw_quantized_gemms():
    findings = scan({"src/repro/quant/bad_gemm.py": RPL011_BAD})
    assert _rules(findings) == [(5, "RPL011"), (6, "RPL011"), (7, "RPL011")]
    assert "backend" in findings[0][3]


def test_rpl011_clean_twin_is_quiet():
    assert scan({"src/repro/quant/good_gemm.py": RPL011_CLEAN}) == []


def test_rpl011_backends_package_is_exempt():
    # The backends module IS the dispatch target; its neighbours are not.
    assert scan({"src/repro/nn/backends.py": RPL011_BAD}) == []
    assert scan({"src/repro/nn/backends_extra.py": RPL011_BAD}) != []


def test_rpl011_out_of_scope_dirs_are_quiet():
    assert scan({"src/repro/workloads/bad_gemm.py": RPL011_BAD}) == []
