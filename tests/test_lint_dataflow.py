"""Tests for the dataflow lint engine and the RPL007-RPL010 rules.

Each rule gets a violating fixture proving it fires and a clean twin proving
it stays quiet.  The engine layers (lattice, call graph, interprocedural
fixed point) get unit tests, RPL007 gets the paired static/runtime test that
pins the shared sink model with the ``REPRO_SANITIZE`` sanitizer, and the
precision decisions that keep the real tree quiet (init-time ``rng``
parameters are not per-request streams, ``generate()``'s lockstep batch draw
is not a replayed stream, ``is None`` guards are schedule-static) are pinned
as regressions against the repo itself.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.lint import Project, default_checkers, run_checkers
from repro.lint.dataflow import (
    AbstractValue,
    CallGraph,
    DataflowEngine,
    DtypeFlowChecker,
    LayoutFlowChecker,
    RngStreamChecker,
    SessionLifecycleChecker,
    engine_for,
)
from repro.lint.dataflow.lattice import (
    DT_F32,
    DT_F64,
    LAY_CONTIG,
    LAY_VIEW,
    TAG_RNG_STREAM,
    TOP,
    array_value,
    join,
)

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

DATAFLOW_CHECKERS = (
    DtypeFlowChecker,
    LayoutFlowChecker,
    RngStreamChecker,
    SessionLifecycleChecker,
)


def lint_sources(sources, checkers=DATAFLOW_CHECKERS):
    project = Project.from_sources(sources)
    return run_checkers(project, [cls() for cls in checkers])


def engine_of(sources):
    return engine_for(Project.from_sources(sources))


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def test_join_unions_evidence_and_absorbs_top():
    f32 = array_value(dtypes=frozenset({DT_F32}), layouts=frozenset({LAY_CONTIG}))
    f64 = array_value(dtypes=frozenset({DT_F64}), layouts=frozenset({LAY_VIEW}))
    joined = join(f32, f64)
    assert joined.dtypes == frozenset({DT_F32, DT_F64})
    assert joined.may_f64 and joined.may_view and not joined.is_contig
    # None (top / no information) absorbs on join.
    assert join(f32, TOP).dtypes is None
    assert join(TOP, f32).layouts is None


def test_evidence_properties_need_positive_evidence():
    unknown = AbstractValue()
    assert not unknown.may_f64 and not unknown.may_view and not unknown.is_contig
    contig = array_value(layouts=frozenset({LAY_CONTIG}))
    assert contig.is_contig
    mixed = array_value(layouts=frozenset({LAY_CONTIG, LAY_VIEW}))
    assert mixed.may_view and not mixed.is_contig


def test_join_unions_tags():
    tagged = AbstractValue(tags=frozenset({TAG_RNG_STREAM}))
    assert TAG_RNG_STREAM in join(tagged, AbstractValue()).tags
    assert tagged.without_tags(TAG_RNG_STREAM).tags == frozenset()


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------

GRAPH_SOURCES = {
    "src/repro/nn/functional.py": (
        "def linear(x, w):\n    return x\n"
    ),
    "src/repro/quant/util.py": (
        "class Base:\n"
        "    def step(self, x):\n"
        "        raise NotImplementedError\n"
        "    def run(self, x):\n"
        "        return self.step(x)\n"
        "class Impl(Base):\n"
        "    def step(self, x):\n"
        "        return x\n"
    ),
    "src/repro/quant/user.py": (
        "import numpy as np\n"
        "from ..nn import functional as F\n"
        "from .util import Base\n"
        "def helper(x):\n"
        "    return F.linear(x, x)\n"
        "def main(x):\n"
        "    return helper(np.asarray(x))\n"
    ),
}


def test_callgraph_resolves_local_import_and_alias_calls():
    graph = CallGraph(Project.from_sources(GRAPH_SOURCES))
    user = graph.module("src/repro/quant/user.py")
    tree = user.handle.tree
    calls = {
        ast.unparse(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    resolved = graph.resolve_call(calls["helper"], "src/repro/quant/user.py", None)
    assert resolved.qualname == "src/repro/quant/user.py::helper"
    linear = graph.resolve_call(calls["F.linear"], "src/repro/quant/user.py", None)
    assert linear.qualname == "src/repro/nn/functional.py::linear"
    assert graph.resolve_call(calls["np.asarray"], "src/repro/quant/user.py", None) is None
    assert graph.is_numpy_alias("src/repro/quant/user.py", "np")


def test_callgraph_virtual_dispatch_includes_subclass_overrides():
    graph = CallGraph(Project.from_sources(GRAPH_SOURCES))
    targets = graph.resolve_virtual("src/repro/quant/util.py", "Base", "step")
    names = {t.qualname.split("::")[1] for t in targets}
    assert names == {"Base.step", "Impl.step"}


def test_callgraph_constructor_resolves_to_init():
    sources = dict(GRAPH_SOURCES)
    sources["src/repro/quant/ctor.py"] = (
        "class Thing:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "def make():\n"
        "    return Thing(1)\n"
    )
    graph = CallGraph(Project.from_sources(sources))
    tree = graph.module("src/repro/quant/ctor.py").handle.tree
    call = next(n for n in ast.walk(tree) if isinstance(n, ast.Call))
    resolved = graph.resolve_call(call, "src/repro/quant/ctor.py", None)
    assert resolved.qualname == "src/repro/quant/ctor.py::Thing.__init__"


# ---------------------------------------------------------------------------
# interpreter: interprocedural evidence flow
# ---------------------------------------------------------------------------


def test_param_evidence_joins_across_call_sites():
    engine = engine_of(
        {
            "src/repro/quant/flow.py": (
                "import numpy as np\n"
                "def sink(v):\n"
                "    return v\n"
                "def caller():\n"
                "    sink(np.zeros((2, 2)))\n"
                "    sink(np.zeros((2, 2), dtype=np.float32))\n"
            )
        }
    )
    info = engine.graph.functions["src/repro/quant/flow.py::sink"]
    param = engine.summary(info).param_values[0]
    assert param.dtypes == frozenset({DT_F64, DT_F32})
    # `array` is tri-state with no bottom: the join of unknown-and-True stays
    # unknown, which is why the rules key off dtype/layout evidence instead.
    assert param.array is not False


def test_return_summaries_feed_call_sites():
    engine = engine_of(
        {
            "src/repro/quant/flow.py": (
                "import numpy as np\n"
                "def make():\n"
                "    return np.ones((2, 2))\n"
                "def use():\n"
                "    x = make()\n"
                "    return x\n"
            )
        }
    )
    use = engine.graph.functions["src/repro/quant/flow.py::use"]
    assert engine.summary(use).return_value.may_f64


def test_branch_join_and_loop_widening():
    engine = engine_of(
        {
            "src/repro/quant/flow.py": (
                "import numpy as np\n"
                "def branchy(flag):\n"
                "    x = np.zeros((2, 2), dtype=np.float32)\n"
                "    if flag:\n"
                "        x = np.zeros((2, 2))\n"
                "    return x\n"
                "def loopy():\n"
                "    x = np.zeros((2, 2), dtype=np.float32)\n"
                "    for _ in range(3):\n"
                "        x = x + np.zeros((2, 2))\n"
                "    return x\n"
            )
        }
    )
    fns = engine.graph.functions
    branchy = engine.summary(fns["src/repro/quant/flow.py::branchy"]).return_value
    assert branchy.dtypes == frozenset({DT_F32, DT_F64})
    loopy = engine.summary(fns["src/repro/quant/flow.py::loopy"]).return_value
    assert loopy.may_f64 and DT_F32 in loopy.dtypes


def test_python_float_scalars_are_weak():
    # NEP-50: `x * 0.5` on a float32 array must not produce f64 evidence.
    engine = engine_of(
        {
            "src/repro/quant/flow.py": (
                "import numpy as np\n"
                "def scale():\n"
                "    x = np.zeros((2, 2), dtype=np.float32)\n"
                "    return x * 0.5\n"
                "def strong():\n"
                "    x = np.zeros((2, 2), dtype=np.float32)\n"
                "    return x * np.sqrt(2.0)\n"
            )
        }
    )
    fns = engine.graph.functions
    weak = engine.summary(fns["src/repro/quant/flow.py::scale"]).return_value
    assert not weak.may_f64
    # A strong np.float64 scalar (np.sqrt on a python float) does promote.
    strong = engine.summary(fns["src/repro/quant/flow.py::strong"]).return_value
    assert strong.may_f64


# ---------------------------------------------------------------------------
# RPL007 - dtype flow into f32-region kernels
# ---------------------------------------------------------------------------

RPL007_BAD = """\
import numpy as np

from ..nn import functional as F
from .calibration import calibration_precision


def collect(model, pipeline, w32):
    stats = np.zeros((2, 3))
    with calibration_precision(model, pipeline, np.float32):
        hidden = stats
        return F.linear(hidden, w32)
"""

RPL007_CLEAN = """\
import numpy as np

from ..nn import functional as F
from .calibration import calibration_precision


def collect(model, pipeline, w32):
    stats = np.zeros((2, 3))
    with calibration_precision(model, pipeline, np.float32):
        hidden = stats.astype(np.float32)
        part = F.linear(hidden, w32)
    outside = F.linear(stats, w32)  # float64 outside the region: fine
    return part + outside
"""

RPL007_HELPER_BAD = """\
import numpy as np

from ..nn import functional as F
from .calibration import calibration_precision


def project(hidden, w32):
    return F.linear(hidden, w32)


def collect(model, pipeline, w32):
    with calibration_precision(model, pipeline, np.float32):
        return project(np.zeros((2, 3)), w32)
"""


def test_rpl007_flags_f64_reaching_kernel_in_region():
    findings = lint_sources({"src/repro/quant/bad.py": RPL007_BAD})
    assert rules_of(findings) == ["RPL007"]
    assert "hidden" in findings[0].message
    assert "float32 calibration region" in findings[0].message


def test_rpl007_clean_twin_is_quiet():
    assert lint_sources({"src/repro/quant/good.py": RPL007_CLEAN}) == []


def test_rpl007_follows_helper_calls_out_of_the_region():
    # The kernel call sits in a helper that is only ever invoked from inside
    # the region: region taint propagates caller -> callee.
    findings = lint_sources({"src/repro/quant/bad.py": RPL007_HELPER_BAD})
    assert rules_of(findings) == ["RPL007"]
    assert findings[0].line == 8  # anchored at the sink inside the helper


def test_rpl007_assume_f32_silences():
    source = RPL007_BAD.replace(
        "        return F.linear(hidden, w32)",
        "        # repro-lint: assume[f32]\n        return F.linear(hidden, w32)",
    )
    assert lint_sources({"src/repro/quant/bad.py": source}) == []


def test_rpl007_static_and_runtime_sanitizer_agree():
    """The paired static/runtime test: one defect class, both catchers.

    RPL007 is the static twin of ``REPRO_SANITIZE=1`` - both import the same
    kernel list from ``repro.lint.runtime``, so a float64 array reaching
    ``F.linear`` inside a float32 calibration region is (a) flagged by the
    dataflow rule on the fixture source and (b) raises ``SanitizerError``
    when the equivalent code actually runs under the sanitizer.
    """
    from repro.lint import runtime as lint_runtime
    from repro.nn import functional as F

    findings = lint_sources({"src/repro/quant/bad.py": RPL007_BAD})
    assert rules_of(findings) == ["RPL007"]

    stats = np.zeros((2, 3))  # float64, same as the fixture's `stats`
    w32 = np.ones((4, 3), dtype=np.float32)
    with lint_runtime.sanitized():
        with lint_runtime.calibration_region(np.float32):
            with pytest.raises(lint_runtime.SanitizerError, match="float64"):
                F.linear(stats, w32)
            # The clean twin's cast runs clean under the same sanitizer.
            out = F.linear(stats.astype(np.float32), w32)
    assert out.dtype == np.float32


def test_rpl007_shares_kernel_model_with_runtime():
    from repro.lint.dataflow.rules import _F_KERNELS
    from repro.lint.runtime import COLS_CHECKED_KERNELS, DTYPE_CHECKED_KERNELS

    assert _F_KERNELS == set(DTYPE_CHECKED_KERNELS) | set(COLS_CHECKED_KERNELS)


# ---------------------------------------------------------------------------
# RPL008 - layout flow into GEMM sinks
# ---------------------------------------------------------------------------

RPL008_BAD = """\
import numpy as np


def run(a, b):
    flipped = b.transpose(1, 0)
    return np.matmul(a, flipped)
"""

RPL008_CLEAN = """\
import numpy as np


def run(a, b):
    flipped = np.ascontiguousarray(b.transpose(1, 0))
    return np.matmul(a, flipped)
"""

RPL008_HELPER_BAD = """\
import numpy as np


def flip(b):
    return b.transpose(1, 0)


def run(a, b):
    return np.matmul(a, flip(b))
"""


def test_rpl008_flags_view_through_assignment():
    findings = lint_sources({"src/repro/quant/bad.py": RPL008_BAD})
    assert rules_of(findings) == ["RPL008"]
    assert "flipped" in findings[0].message
    assert "def-use chain" in findings[0].message


def test_rpl008_clean_twin_is_quiet():
    assert lint_sources({"src/repro/quant/good.py": RPL008_CLEAN}) == []


def test_rpl008_follows_helper_returns():
    findings = lint_sources({"src/repro/quant/bad.py": RPL008_HELPER_BAD})
    assert rules_of(findings) == ["RPL008"]


def test_rpl008_leaves_direct_views_to_rpl005():
    # A transpose written directly in the argument list is RPL005's finding;
    # RPL008 must not double-report it.
    source = (
        "import numpy as np\n"
        "def run(a, b):\n"
        "    return np.matmul(a, b.transpose(1, 0))\n"
    )
    findings = lint_sources(
        {"src/repro/quant/bad.py": source}, checkers=(LayoutFlowChecker,)
    )
    assert findings == []


def test_rpl008_scope_gating():
    # Outside the GEMM directories the src-scope rule stays quiet...
    assert lint_sources({"src/repro/metrics/bad.py": RPL008_BAD}) == []
    # ...but scripts/ are in scope without a directory restriction.
    findings = lint_sources({"scripts/bad.py": RPL008_BAD})
    assert rules_of(findings) == ["RPL008"]


def test_rpl008_assume_contiguous_silences():
    source = RPL008_BAD.replace(
        "    return np.matmul(a, flipped)",
        "    # repro-lint: assume[c-contiguous]\n    return np.matmul(a, flipped)",
    )
    assert lint_sources({"src/repro/quant/bad.py": source}) == []


# ---------------------------------------------------------------------------
# RPL009 - per-request RNG stream draw discipline
# ---------------------------------------------------------------------------

RPL009_BAD_SHAPE = """\
def recover(request, n, sample_shape):
    rng = request.sampler_rng()
    return rng.standard_normal((n,) + sample_shape)
"""

RPL009_BAD_GUARD = """\
import numpy as np


def step(request, eps: np.ndarray, x):
    rng = request.sampler_rng()
    if eps.mean() > 0:
        return rng.standard_normal(x.shape)
    return x
"""

RPL009_BAD_LOOP = """\
def replay(request, steps, x):
    rng = request.sampler_rng()
    for _ in range(steps):
        x = x + rng.standard_normal(x.shape)
    return x
"""

RPL009_CLEAN = """\
def step(request, sigma, x, sample_shape):
    rng = request.sampler_rng()
    if x is None:
        x = rng.standard_normal((1,) + sample_shape)
    if sigma > 0.0:
        noise = rng.standard_normal(x.shape)
        return x + sigma * noise
    return x
"""


def test_rpl009_flags_non_row_shape():
    findings = lint_sources({"src/repro/runtime/bad.py": RPL009_BAD_SHAPE})
    assert rules_of(findings) == ["RPL009"]
    assert "not statically row-shaped" in findings[0].message


def test_rpl009_flags_data_dependent_guard():
    findings = lint_sources({"src/repro/runtime/bad.py": RPL009_BAD_GUARD})
    assert rules_of(findings) == ["RPL009"]
    assert "data-dependent predicate" in findings[0].message


def test_rpl009_flags_loop_invariant_stream_in_loop():
    findings = lint_sources({"src/repro/runtime/bad.py": RPL009_BAD_LOOP})
    assert any("inside a loop" in f.message for f in findings)


def test_rpl009_clean_twin_is_quiet():
    # Row-shaped draws, an `is None` identity guard and a scalar schedule
    # guard (sigma) are all replay-countable: no findings.
    assert lint_sources({"src/repro/runtime/good.py": RPL009_CLEAN}) == []


def test_rpl009_assume_row_shape_silences():
    source = RPL009_BAD_SHAPE.replace(
        "    return rng.standard_normal((n,) + sample_shape)",
        "    # repro-lint: assume[row-shape]\n"
        "    return rng.standard_normal((n,) + sample_shape)",
    )
    assert lint_sources({"src/repro/runtime/bad.py": source}) == []


def test_rpl009_plain_rng_params_are_not_streams():
    # Regression pin: a generic `rng` parameter (weight init, dataset
    # synthesis) is not a per-request stream; only factory provenance
    # (`sampler_rng()`, `ReplayableRNG`) and rngs/streams containers tag.
    source = (
        "def init_weights(shape, rng):\n"
        "    return rng.standard_normal(shape) * 0.02\n"
    )
    assert lint_sources({"src/repro/nn/bad.py": source}) == []


def test_rpl009_replayable_rng_constructor_tags():
    source = (
        "from .faults import ReplayableRNG\n"
        "def recover(generator, k, shape):\n"
        "    rng = ReplayableRNG(generator)\n"
        "    return rng.standard_normal((k,) + shape)\n"
    )
    findings = lint_sources({"src/repro/runtime/bad.py": source})
    assert rules_of(findings) == ["RPL009"]


def test_rpl009_streams_flow_through_containers():
    # The serving idiom: a list comprehension of sampler_rng() handles,
    # passed onward and indexed per row.
    source = (
        "def launch(requests, sample_shape):\n"
        "    rngs = [r.sampler_rng() for r in requests]\n"
        "    return [rngs[i].standard_normal(sample_shape) for i in range(len(rngs))]\n"
    )
    findings = lint_sources({"src/repro/runtime/bad.py": source})
    assert rules_of(findings) == ["RPL009"]  # sample_shape is not row-shaped


# ---------------------------------------------------------------------------
# RPL010 - EngineSession lifecycle
# ---------------------------------------------------------------------------

RPL010_BAD_HEALTH = """\
def drive(engine, batch):
    session = engine.open_session()
    try:
        session.step(batch)
    except RuntimeError as exc:
        session.mark_unhealthy(str(exc))
    session.admit(batch)
"""

RPL010_CLEAN_HEALTH = """\
def drive(engine, batch):
    session = engine.open_session()
    try:
        session.step(batch)
    except RuntimeError as exc:
        session.mark_unhealthy(str(exc))
        session = engine.open_session()
    session.admit(batch)
"""


def test_rpl010_flags_admit_after_mark_unhealthy():
    findings = lint_sources({"src/repro/runtime/bad.py": RPL010_BAD_HEALTH})
    assert rules_of(findings) == ["RPL010"]
    assert "marked unhealthy" in findings[0].message
    assert findings[0].line == 7


def test_rpl010_rebinding_to_recovered_session_is_quiet():
    assert lint_sources({"src/repro/runtime/good.py": RPL010_CLEAN_HEALTH}) == []


def test_rpl010_assume_escapes():
    healthy = RPL010_BAD_HEALTH.replace(
        "    session.admit(batch)",
        "    # repro-lint: assume[healthy]\n    session.admit(batch)",
    )
    assert lint_sources({"src/repro/runtime/bad.py": healthy}) == []


# ---------------------------------------------------------------------------
# the engine against the real tree: precision regressions + shared engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_engine():
    from repro.lint.framework import load_project

    return engine_for(load_project(REPO_ROOT))


def test_engine_is_shared_per_project():
    project = Project.from_sources({"src/repro/quant/mod.py": "x = 1\n"})
    assert engine_for(project) is engine_for(project)


def test_repo_sampler_draws_are_tracked(repo_engine):
    # The interprocedural chain that makes RPL009 meaningful on this tree:
    # serving builds per-request streams, `step_rows` forwards `rng=` through
    # virtual dispatch into the sampler overrides, and the DDIM/DDPM noise
    # draws register as stream draws.  If this breaks, RPL009 silently stops
    # guarding the fast_forward contract.
    paths = {draw.path for draw in repo_engine.all_draws()}
    assert "src/repro/diffusion/samplers.py" in paths


def test_repo_generate_draws_rows_from_streams(repo_engine):
    # GenerationPipeline.generate() draws each row's initial noise from that
    # row's stream (`rngs`, request streams when serving passes them), one
    # (1, *sample) row at a time: a tracked stream draw that RPL009 accepts.
    draws = [
        draw
        for draw in repo_engine.all_draws()
        if draw.path == "src/repro/diffusion/pipeline.py"
    ]
    assert [draw.fn.name for draw in draws] == ["generate"]
    assert ast.unparse(draws[0].shape_node) == "(1,) + self.sample_shape"
    assert not draws[0].loop_fixed


def test_repo_is_clean_under_dataflow_rules(repo_engine):
    findings = []
    for cls in DATAFLOW_CHECKERS:
        findings.extend(cls().check_project(repo_engine.project))
    assert findings == [], "\n".join(str(f) for f in findings)


def test_repo_engine_converged_quickly(repo_engine):
    # The fixed point over the whole tree stays small: every function got a
    # summary and the facts tables are populated.
    assert len(repo_engine.summaries) > 100
    assert repo_engine.all_calls()


def test_default_checkers_include_dataflow_rules():
    rules = {c.rule for c in default_checkers()}
    assert {"RPL007", "RPL008", "RPL009", "RPL010"} <= rules
