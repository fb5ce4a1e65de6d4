"""Flow-sensitive abstract interpreter + interprocedural fixed point.

One :class:`DataflowEngine` analyzes every function the
:class:`~repro.lint.dataflow.callgraph.CallGraph` knows about:

* per function, a flow-sensitive walk over the statement list propagates
  :class:`~repro.lint.dataflow.lattice.AbstractValue` through assignments,
  attribute stores, branches (join), loops (bounded iteration to a fixed
  point - the conservative widening), ``with`` blocks and ``try`` handlers;
* across functions, a context-insensitive fixed point: parameter values are
  the join of every *observed* call-site binding, return summaries feed call
  expression evaluation, and calibration-region taint propagates caller to
  callee.  Entry points nobody calls internally keep bottom parameters, so
  unknown external inputs produce no evidence and no findings.

The engine records *facts* (calls, RNG draws, attribute stores) plus an
expression evaluation cache; the rules in
:mod:`repro.lint.dataflow.rules` and the dataflow-backed RPL001/RPL005
upgrades consume those instead of re-walking the AST.

``# repro-lint: assume[...]`` comments are the escape hatch: ``f32``/``f64``/
``int`` pin dtype evidence, ``c-contiguous``/``view`` pin layout evidence,
``not-rng`` / ``healthy`` strip provenance tags, and ``row-shape`` marks an
RNG draw whose shape discipline the author vouches for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..framework import Project, SourceFile
from .callgraph import CallGraph, FunctionInfo
from .lattice import (
    DT_F32,
    DT_F64,
    DT_INT,
    DT_OTHER,
    LAY_CONTIG,
    LAY_VIEW,
    TAG_RNG_DRAW,
    TAG_RNG_STREAM,
    TAG_SESSION,
    TAG_UNHEALTHY,
    TOP,
    AbstractValue,
    array_value,
    join,
    join_envs,
    scalar_value,
)

__all__ = ["CallFact", "DrawFact", "Summary", "DataflowEngine"]

_MAX_PASSES = 8
_LOOP_ITERATIONS = 3

# numpy constructors whose default dtype is float64 (fresh C-contiguous)
_DEFAULT_F64_FNS = {"zeros", "ones", "empty", "full", "linspace"}
# numpy functions that allocate fresh arrays and inherit input dtype
_PROPAGATE_FNS = {
    "concatenate", "stack", "where", "pad", "cumprod", "cumsum",
    "clip", "rint", "abs", "maximum", "minimum", "outer", "meshgrid",
    "atleast_1d", "atleast_2d",
}
_LIKE_FNS = {"zeros_like", "ones_like", "empty_like", "full_like"}
_NP_MATH_FNS = {
    "sqrt", "log", "log2", "log10", "log1p", "exp", "expm1", "power",
    "cos", "sin", "tan", "arcsin", "arccos", "arctan", "arctan2",
}
_VIEW_FNS = {"transpose", "swapaxes"}
_DRAW_METHODS = {"standard_normal", "normal", "uniform", "integers", "random"}

# method / attribute spellings that mint per-request RNG stream handles.
# Deliberately narrow: a generic `rng` parameter (weight init, dataset
# synthesis, lockstep batch generation) is NOT a per-request stream; stream
# provenance comes from the factories below and flows interprocedurally into
# sampler `rng` parameters via the rngs-list call sites.
_STREAM_FACTORY_METHODS = {"sampler_rng"}
_STREAM_CLASSES = {"ReplayableRNG"}
_STREAM_ATTRS = {"streams"}
_STREAM_PARAM_NAMES = {"rngs", "streams"}

_SESSION_FACTORY_METHODS = {"open_session"}
_SESSION_CLASSES = {"EngineSession"}

# with-block context managers that open a float32 calibration region; the
# spellings mirror repro.lint.runtime / repro.quant.calibration.
_REGION_MANAGERS = {"calibration_precision", "calibration_region"}


@dataclass
class CallFact:
    """One call expression, with evaluated operands and context."""

    node: ast.Call
    fn: FunctionInfo
    func_name: str  # trailing name: `F.linear(...)` -> "linear"
    receiver_name: Optional[str]  # `x.m()` -> "x"; None for plain calls
    receiver: Optional[AbstractValue]
    args: List[AbstractValue]
    kwargs: Dict[str, AbstractValue]
    resolved: Optional[FunctionInfo]
    targets: List[FunctionInfo]  # resolved + virtual-dispatch candidates
    in_region: bool  # lexically inside a calibration-region `with`
    line: int

    @property
    def path(self) -> str:
        return self.fn.path


@dataclass
class DrawFact:
    """A draw on a value carrying the rng-stream provenance tag."""

    node: ast.Call
    fn: FunctionInfo
    method: str
    stream: AbstractValue
    shape_node: Optional[ast.expr]
    guards: List[ast.expr]  # enclosing if/while tests at the draw
    loop_fixed: bool  # drawn inside a loop from a loop-invariant stream
    line: int

    @property
    def path(self) -> str:
        return self.fn.path


@dataclass
class Summary:
    """Converging interprocedural facts for one function.

    ``return_value`` is ``None`` until the function has been analyzed at
    least once (bottom, contributes nothing to joins) - starting at ``TOP``
    would absorb every join and erase all return evidence.
    """

    param_values: List[AbstractValue] = field(default_factory=list)
    return_value: Optional[AbstractValue] = None
    in_region: bool = False  # some call site is (transitively) in a region
    returns_array: Optional[bool] = None

    def state(self) -> Tuple:
        return (tuple(self.param_values), self.return_value, self.in_region)

    def result(self) -> AbstractValue:
        return self.return_value if self.return_value is not None else TOP


@dataclass
class FunctionFacts:
    calls: List[CallFact] = field(default_factory=list)
    draws: List[DrawFact] = field(default_factory=list)
    values: Dict[int, AbstractValue] = field(default_factory=dict)  # id(node)


def _assumptions(handle: SourceFile, line: int) -> Set[str]:
    getter = getattr(handle, "assumptions", None)
    return getter(line) if getter is not None else set()


def _dtype_atom_from_node(node: Optional[ast.expr]) -> Optional[str]:
    """Map a dtype= expression to a lattice atom when statically knowable."""
    if node is None:
        return None
    text = None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.Attribute):
        text = node.attr
    elif isinstance(node, ast.Name):
        text = node.id
    if text is None:
        return None
    if "float32" in text:
        return DT_F32
    if "float64" in text or text == "double":
        return DT_F64
    if "int" in text:
        return DT_INT
    return None


class _Terminated(Exception):
    """Internal: the current block path ended (return/raise/break/continue)."""


class DataflowEngine:
    """Build the call graph, run the fixed point, expose facts to rules."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project)
        self.summaries: Dict[str, Summary] = {}
        self.facts: Dict[str, FunctionFacts] = {}
        self._eval_cache: Dict[int, AbstractValue] = {}
        for qual, info in self.graph.functions.items():
            self.summaries[qual] = Summary(param_values=self._initial_params(info))
        self._run_fixed_point()

    # -- public queries ----------------------------------------------------

    def value_of(self, node: ast.AST) -> AbstractValue:
        """The abstract value computed for an expression node (or top)."""
        return self._eval_cache.get(id(node), TOP)

    def all_calls(self) -> List[CallFact]:
        return [fact for facts in self.facts.values() for fact in facts.calls]

    def all_draws(self) -> List[DrawFact]:
        return [fact for facts in self.facts.values() for fact in facts.draws]

    def function_facts(self, info: FunctionInfo) -> FunctionFacts:
        return self.facts.get(info.qualname, FunctionFacts())

    def summary(self, info: FunctionInfo) -> Summary:
        return self.summaries[info.qualname]

    # -- fixed point -------------------------------------------------------

    def _initial_params(self, info: FunctionInfo) -> List[AbstractValue]:
        values: List[AbstractValue] = []
        args = info.node.args
        bottom = AbstractValue(dtypes=frozenset(), layouts=frozenset())
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            value = bottom
            annotation = getattr(arg, "annotation", None)
            if annotation is not None and "ndarray" in ast.unparse(annotation):
                value = AbstractValue(dtypes=frozenset(), layouts=frozenset(), array=True)
            if arg.arg == "self":
                tags = set()
                if info.class_name in _SESSION_CLASSES:
                    tags.add(TAG_SESSION)
                value = AbstractValue(array=False, tags=frozenset(tags))
            elif arg.arg in _STREAM_PARAM_NAMES:
                value = value.with_tags(TAG_RNG_STREAM)
            values.append(value)
        return values

    def _run_fixed_point(self) -> None:
        for _ in range(_MAX_PASSES):
            before = {qual: s.state() for qual, s in self.summaries.items()}
            self._eval_cache = {}
            for qual, info in self.graph.functions.items():
                facts = FunctionFacts()
                interp = _Interp(self, info, facts)
                interp.run()
                self.facts[qual] = facts
                self._eval_cache.update(facts.values)
            if all(self.summaries[q].state() == before[q] for q in before):
                break

    def _observe_call(self, fact: CallFact, caller_in_region: bool) -> None:
        """Join call-site bindings into the callee summaries (the fixed point)."""
        for target in fact.targets:
            self._observe_one(fact, target, caller_in_region)

    def _observe_one(self, fact: CallFact, target: FunctionInfo, caller_in_region: bool) -> None:
        summary = self.summaries[target.qualname]
        if fact.in_region or caller_in_region:
            summary.in_region = True
        bound: List[AbstractValue] = []
        if target.class_name is not None:
            # Slot 0 is `self`: the receiver for method calls, a fresh
            # instance (top) for constructor calls resolved to __init__.
            if target.name == "__init__":
                bound.append(TOP)
            else:
                bound.append(fact.receiver if fact.receiver is not None else TOP)
        bound.extend(fact.args)
        for i, value in enumerate(bound):
            if i < len(summary.param_values):
                summary.param_values[i] = join(summary.param_values[i], value)
        if fact.kwargs:
            args = target.node.args
            names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
            for kw_name, value in fact.kwargs.items():
                if kw_name in names:
                    i = names.index(kw_name)
                    if i < len(summary.param_values):
                        summary.param_values[i] = join(summary.param_values[i], value)

    def _observe_return(self, info: FunctionInfo, value: AbstractValue) -> None:
        summary = self.summaries[info.qualname]
        summary.return_value = (
            value if summary.return_value is None else join(summary.return_value, value)
        )
        summary.returns_array = summary.return_value.array


class _Interp:
    """One flow-sensitive pass over one function body."""

    def __init__(self, engine: DataflowEngine, info: FunctionInfo, facts: FunctionFacts):
        self.engine = engine
        self.info = info
        self.facts = facts
        self.handle = info.handle
        self.guards: List[ast.expr] = []
        self.loop_targets: List[Set[str]] = []
        self.region_depth = 0
        self.return_value: Optional[AbstractValue] = None
        self.summary = engine.summaries[info.qualname]

    # -- entry -------------------------------------------------------------

    def run(self) -> None:
        env: Dict[str, AbstractValue] = {}
        args = self.info.node.args
        names = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for i, arg in enumerate(names):
            if i < len(self.summary.param_values):
                env[arg.arg] = self.summary.param_values[i].with_tags(f"param:{i}")
            else:
                env[arg.arg] = TOP
        if args.vararg is not None:
            env[args.vararg.arg] = TOP
        if args.kwarg is not None:
            env[args.kwarg.arg] = TOP
        try:
            self.exec_block(self.info.node.body, env)
        except _Terminated:
            pass
        if self.return_value is None:
            self.return_value = scalar_value()  # fell off the end -> None
        self.engine._observe_return(self.info, self.return_value)

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt], env: Dict[str, AbstractValue]) -> None:
        """Execute statements in env (mutated in place); raises _Terminated."""
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: Dict[str, AbstractValue]) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt, env)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, env) if stmt.value is not None else scalar_value()
            self.return_value = (
                value if self.return_value is None else join(self.return_value, value)
            )
            raise _Terminated()
        elif isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self.eval(stmt.exc, env)
            raise _Terminated()
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env)
        elif isinstance(stmt, (ast.For, ast.While)):
            self._exec_loop(stmt, env)
        elif isinstance(stmt, ast.With):
            self._exec_with(stmt, env)
        elif isinstance(stmt, ast.Try):
            self._exec_try(stmt, env)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env[stmt.name] = scalar_value()  # nested defs are opaque
        elif isinstance(stmt, ast.ClassDef):
            env[stmt.name] = scalar_value()

    def _exec_assign(self, stmt: ast.stmt, env: Dict[str, AbstractValue]) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value_node = stmt.targets, stmt.value
        else:
            targets, value_node = [stmt.target], stmt.value
        if value_node is None:
            return
        value = self.eval(value_node, env)
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            value = self._binop_value(env.get(stmt.target.id, TOP), value)
        value = self._apply_assumptions(value, stmt.lineno)
        for target in targets:
            self._bind(target, value, env)

    def _bind(self, target: ast.AST, value: AbstractValue, env: Dict[str, AbstractValue]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = AbstractValue(tags=value.tags)
            for elt in target.elts:
                self._bind(elt, element, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, env)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name):
                self.eval(target.value, env)
        elif isinstance(target, ast.Subscript):
            self.eval(target.value, env)

    def _apply_assumptions(self, value: AbstractValue, line: int) -> AbstractValue:
        assumes = _assumptions(self.handle, line)
        if not assumes:
            return value
        if "f32" in assumes:
            value = value.with_dtypes(DT_F32)
        if "f64" in assumes:
            value = value.with_dtypes(DT_F64)
        if "int" in assumes:
            value = value.with_dtypes(DT_INT)
        if "c-contiguous" in assumes:
            value = value.with_layouts(LAY_CONTIG)
        if "view" in assumes:
            value = value.with_layouts(LAY_VIEW)
        if "not-rng" in assumes:
            value = value.without_tags(TAG_RNG_STREAM, TAG_RNG_DRAW)
        if "healthy" in assumes:
            value = value.without_tags(TAG_UNHEALTHY)
        return value

    def _exec_if(self, stmt: ast.If, env: Dict[str, AbstractValue]) -> None:
        self.eval(stmt.test, env)
        self.guards.append(stmt.test)
        then_env, else_env = dict(env), dict(env)
        then_done = else_done = False
        try:
            self.exec_block(stmt.body, then_env)
        except _Terminated:
            then_done = True
        try:
            self.exec_block(stmt.orelse, else_env)
        except _Terminated:
            else_done = True
        self.guards.pop()
        if then_done and else_done:
            raise _Terminated()
        if then_done:
            merged = else_env
        elif else_done:
            merged = then_env
        else:
            merged = join_envs(then_env, else_env)
        env.clear()
        env.update(merged)

    def _exec_loop(self, stmt: ast.stmt, env: Dict[str, AbstractValue]) -> None:
        targets: Set[str] = set()
        if isinstance(stmt, ast.For):
            iterable = self.eval(stmt.iter, env)
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    targets.add(node.id)
            element = self._element_of(iterable)
            self._bind(stmt.target, element, env)
            guard = None
        else:
            self.eval(stmt.test, env)
            guard = stmt.test
        if guard is not None:
            self.guards.append(guard)
        self.loop_targets.append(targets)
        # Bounded iteration to a fixed point: evidence sets only grow, so a
        # few passes reach the loop's join; a final env-join widens the result
        # to cover the zero-iteration path.
        pre = dict(env)
        for _ in range(_LOOP_ITERATIONS):
            snapshot = dict(env)
            try:
                self.exec_block(stmt.body, env)
            except _Terminated:
                env.clear()
                env.update(snapshot)
                break
            merged = join_envs(snapshot, env)
            env.clear()
            env.update(merged)
            if env == snapshot:
                break
        self.loop_targets.pop()
        if guard is not None:
            self.guards.pop()
        merged = join_envs(pre, env)
        env.clear()
        env.update(merged)
        for orelse in getattr(stmt, "orelse", []) or []:
            self.exec_stmt(orelse, env)

    def _element_of(self, iterable: AbstractValue) -> AbstractValue:
        tags = iterable.tags - frozenset(t for t in iterable.tags if t.startswith("param:"))
        return AbstractValue(dtypes=iterable.dtypes, array=None, tags=tags)

    def _exec_with(self, stmt: ast.With, env: Dict[str, AbstractValue]) -> None:
        opens_region = False
        for item in stmt.items:
            value = self.eval(item.context_expr, env)
            if isinstance(item.context_expr, ast.Call):
                name = _call_name(item.context_expr)
                if name in _REGION_MANAGERS:
                    opens_region = True
            if item.optional_vars is not None:
                self._bind(item.optional_vars, value, env)
        if opens_region:
            self.region_depth += 1
        try:
            self.exec_block(stmt.body, env)
        finally:
            if opens_region:
                self.region_depth -= 1

    def _exec_try(self, stmt: ast.Try, env: Dict[str, AbstractValue]) -> None:
        # Handlers may observe any intermediate state of the body; seed them
        # from the join of the pre-state and the body's exit state.
        pre = dict(env)
        body_done = False
        try:
            self.exec_block(stmt.body, env)
        except _Terminated:
            body_done = True
        handler_seed = join_envs(pre, env)
        exits: List[Dict[str, AbstractValue]] = [] if body_done else [dict(env)]
        for handler in stmt.handlers:
            h_env = dict(handler_seed)
            if handler.name is not None:
                h_env[handler.name] = scalar_value()
            try:
                self.exec_block(handler.body, h_env)
            except _Terminated:
                continue
            exits.append(h_env)
        for orelse in stmt.orelse:
            if exits:
                self.exec_stmt(orelse, exits[0])
        if not exits:
            merged = handler_seed  # every path terminated; finally still runs
        else:
            merged = exits[0]
            for other in exits[1:]:
                merged = join_envs(merged, other)
        env.clear()
        env.update(merged)
        self.exec_block(stmt.finalbody, env)
        if not exits:
            raise _Terminated()

    # -- expressions -------------------------------------------------------

    def eval(self, node: Optional[ast.expr], env: Dict[str, AbstractValue]) -> AbstractValue:
        if node is None:
            return TOP
        value = self._eval_inner(node, env)
        self.facts.values[id(node)] = value
        return value

    def _eval_inner(self, node: ast.expr, env: Dict[str, AbstractValue]) -> AbstractValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return scalar_value(DT_OTHER)
            if isinstance(node.value, int):
                return scalar_value(DT_INT)
            if isinstance(node.value, float):
                # Python floats are NEP-50 weak: no float64 evidence.
                return scalar_value(DT_OTHER)
            return scalar_value(DT_OTHER)
        if isinstance(node, ast.Name):
            return env.get(node.id, TOP)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return self._binop_value(left, right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            parts = (
                [node.left, *node.comparators] if isinstance(node, ast.Compare) else node.values
            )
            tags: frozenset = frozenset()
            for part in parts:
                tags |= self.eval(part, env).tags
            return AbstractValue(tags=tags - _param_tags(tags))
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            self.eval(node.slice, env)
            has_slice = isinstance(node.slice, ast.Slice) or (
                isinstance(node.slice, ast.Tuple)
                and any(isinstance(e, ast.Slice) for e in node.slice.elts)
            )
            return AbstractValue(
                dtypes=base.dtypes,
                array=base.array if has_slice else None,
                tags=base.tags - _param_tags(base.tags),
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            dtypes: Optional[frozenset] = frozenset()
            tags = frozenset()
            for elt in node.elts:
                value = self.eval(elt, env)
                dtypes = None if (dtypes is None or value.dtypes is None) else dtypes | value.dtypes
                tags |= value.tags
            return AbstractValue(dtypes=dtypes, array=False, tags=tags - _param_tags(tags))
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.eval(key, env)
            for value in node.values:
                self.eval(value, env)
            return scalar_value()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._eval_comprehension(node, env)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.Lambda):
            return scalar_value()
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    self.eval(part.value, env)
            return scalar_value(DT_OTHER)
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value, env)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part, env)
            return scalar_value()
        return TOP

    def _eval_attribute(self, node: ast.Attribute, env: Dict[str, AbstractValue]) -> AbstractValue:
        base = self.eval(node.value, env)
        attr = node.attr
        if attr == "T":
            return array_value(
                dtypes=base.dtypes, layouts=frozenset({LAY_VIEW}), tags=_carry(base.tags)
            )
        if attr in ("shape", "ndim", "size", "dtype", "nbytes", "strides", "flags"):
            return AbstractValue(array=False, tags=_carry(base.tags))
        if attr in _STREAM_ATTRS:
            return AbstractValue(tags=_carry(base.tags) | frozenset({TAG_RNG_STREAM}))
        return AbstractValue(tags=_carry(base.tags))

    def _eval_comprehension(self, node: ast.expr, env: Dict[str, AbstractValue]) -> AbstractValue:
        local = dict(env)
        targets: Set[str] = set()
        for gen in node.generators:
            iterable = self.eval(gen.iter, local)
            for sub in ast.walk(gen.target):
                if isinstance(sub, ast.Name):
                    targets.add(sub.id)
            self._bind(gen.target, self._element_of(iterable), local)
        self.loop_targets.append(targets)
        try:
            for gen in node.generators:
                for cond in gen.ifs:
                    self.eval(cond, local)
            tags: frozenset = frozenset()
            if isinstance(node, ast.DictComp):
                tags |= self.eval(node.key, local).tags
                tags |= self.eval(node.value, local).tags
            else:
                tags |= self.eval(node.elt, local).tags
        finally:
            self.loop_targets.pop()
        # A container of stream handles (`[r.sampler_rng() for r in batch]`)
        # is itself stream-tagged so positional/keyword bindings propagate.
        kept = _carry(tags) | (tags & frozenset({TAG_RNG_STREAM}))
        return AbstractValue(array=False, tags=kept)

    def _binop_value(self, left: AbstractValue, right: AbstractValue) -> AbstractValue:
        tags = _carry(left.tags | right.tags)
        is_array = True if (left.array or right.array) else None
        if left.array is False and right.array is False:
            is_array = False
        if is_array:
            # NEP-50: python-weak scalars don't steer array dtype; strong
            # np.float64 scalars (and f64 arrays) do.
            dtypes: Optional[frozenset] = frozenset()
            for side in (left, right):
                if side.dtypes is None:
                    if side.array is not False:
                        dtypes = None
                        break
                    continue  # unknown scalar: weak, ignore
                contributed = side.dtypes
                if side.array is False:
                    contributed = contributed - {DT_INT, DT_OTHER}
                dtypes = dtypes | contributed
            layouts = frozenset({LAY_CONTIG}) if is_array is True else None
            return AbstractValue(dtypes=dtypes, layouts=layouts, array=is_array, tags=tags)
        dtypes = (
            None
            if left.dtypes is None or right.dtypes is None
            else left.dtypes | right.dtypes
        )
        return AbstractValue(dtypes=dtypes, array=is_array, tags=tags)

    # -- calls -------------------------------------------------------------

    def _eval_call(self, node: ast.Call, env: Dict[str, AbstractValue]) -> AbstractValue:
        func = node.func
        arg_values = [self.eval(arg, env) for arg in node.args]
        kw_values = {kw.arg: self.eval(kw.value, env) for kw in node.keywords}
        receiver_name: Optional[str] = None
        receiver: Optional[AbstractValue] = None
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, env)
            if isinstance(func.value, ast.Name):
                receiver_name = func.value.id
        name = _call_name(node) or ""

        resolved = self.engine.graph.resolve_call(node, self.info.path, self.info.class_name)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.info.class_name is not None
        ):
            # Virtual dispatch: `self.step(...)` binds into the statically
            # resolved method AND every same-module subclass override.
            targets = self.engine.graph.resolve_virtual(
                self.info.path, self.info.class_name, name
            )
        elif resolved is not None:
            targets = [resolved]
        else:
            targets = []
        fact = CallFact(
            node=node,
            fn=self.info,
            func_name=name,
            receiver_name=receiver_name,
            receiver=receiver,
            args=arg_values,
            kwargs={kw: v for kw, v in kw_values.items() if kw is not None},
            resolved=resolved,
            targets=targets,
            in_region=self.region_depth > 0,
            line=node.lineno,
        )
        self.facts.calls.append(fact)
        self.engine._observe_call(fact, self.summary.in_region)

        # RNG draws on tagged streams.
        if receiver is not None and name in _DRAW_METHODS:
            result = array_value(
                dtypes=frozenset({DT_F64}),
                layouts=frozenset({LAY_CONTIG}),
                tags=frozenset({TAG_RNG_DRAW}),
            )
            if receiver.has(TAG_RNG_STREAM):
                stream_names = {
                    sub.id for sub in ast.walk(func.value) if isinstance(sub, ast.Name)
                }
                in_loop = bool(self.loop_targets)
                loop_fixed = in_loop and not any(
                    stream_names & targets for targets in self.loop_targets
                )
                self.facts.draws.append(
                    DrawFact(
                        node=node,
                        fn=self.info,
                        method=name,
                        stream=receiver,
                        shape_node=node.args[0] if node.args else None,
                        guards=list(self.guards),
                        loop_fixed=loop_fixed,
                        line=node.lineno,
                    )
                )
            return result

        # Session lifecycle mutation: X.mark_unhealthy(...) taints X in env.
        if name == "mark_unhealthy" and receiver_name is not None:
            current = env.get(receiver_name)
            if current is not None:
                env[receiver_name] = current.with_tags(TAG_UNHEALTHY)
            return scalar_value()

        if targets and (resolved is None or len(targets) > 1):
            # Virtual dispatch: the result is the join of every candidate
            # override's converging return summary (not-yet-analyzed targets
            # are bottom and contribute nothing).
            result: Optional[AbstractValue] = None
            for target in targets:
                summary = self.engine.summaries[target.qualname].return_value
                if summary is None:
                    continue
                result = summary if result is None else join(result, summary)
            if result is not None:
                return result
        return self._call_result(node, name, arg_values, kw_values, receiver, resolved)

    def _call_result(
        self,
        node: ast.Call,
        name: str,
        args: List[AbstractValue],
        kwargs: Dict[Optional[str], AbstractValue],
        receiver: Optional[AbstractValue],
        resolved: Optional[FunctionInfo],
    ) -> AbstractValue:
        func = node.func
        arg0 = args[0] if args else TOP
        dtype_kw = None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype_kw = _dtype_atom_from_node(kw.value)

        # Stream / session factories (by spelling, independent of resolution).
        if name in _STREAM_FACTORY_METHODS or name in _STREAM_CLASSES:
            return AbstractValue(array=False, tags=frozenset({TAG_RNG_STREAM}))
        if name in _SESSION_FACTORY_METHODS or name in _SESSION_CLASSES:
            return AbstractValue(array=False, tags=frozenset({TAG_SESSION}))

        # numpy module functions.
        if self._is_numpy_func(func):
            if name in _NP_MATH_FNS:
                if any(a.array is not False for a in args):
                    dtypes = _union_array_dtypes(args)
                    return array_value(
                        dtypes=dtypes, layouts=frozenset({LAY_CONTIG}), tags=_carry_args(args)
                    )
                # np.<math>(scalar): a strong float64 numpy scalar.
                return AbstractValue(
                    dtypes=frozenset({DT_F64}), array=False, tags=_carry_args(args)
                )
            if name in _DEFAULT_F64_FNS:
                dtypes = frozenset({dtype_kw}) if dtype_kw is not None else frozenset({DT_F64})
                return array_value(
                    dtypes=dtypes, layouts=frozenset({LAY_CONTIG}), tags=_carry_args(args)
                )
            if name == "arange":
                dtypes = frozenset({dtype_kw}) if dtype_kw is not None else None
                return array_value(
                    dtypes=dtypes, layouts=frozenset({LAY_CONTIG}), tags=_carry_args(args)
                )
            if name in _PROPAGATE_FNS:
                return array_value(
                    dtypes=_union_array_dtypes(args),
                    layouts=frozenset({LAY_CONTIG}),
                    tags=_carry_args(args),
                )
            if name in _LIKE_FNS:
                dtypes = frozenset({dtype_kw}) if dtype_kw is not None else arg0.dtypes
                return array_value(
                    dtypes=dtypes, layouts=frozenset({LAY_CONTIG}), tags=_carry(arg0.tags)
                )
            if name == "ascontiguousarray":
                dtypes = frozenset({dtype_kw}) if dtype_kw is not None else arg0.dtypes
                return array_value(
                    dtypes=dtypes, layouts=frozenset({LAY_CONTIG}), tags=_carry(arg0.tags)
                )
            if name in ("asarray", "array"):
                dtypes = frozenset({dtype_kw}) if dtype_kw is not None else arg0.dtypes
                layouts = frozenset({LAY_CONTIG}) if name == "array" else arg0.layouts
                return array_value(dtypes=dtypes, layouts=layouts, tags=_carry(arg0.tags))
            if name in _VIEW_FNS:
                return array_value(
                    dtypes=arg0.dtypes, layouts=frozenset({LAY_VIEW}), tags=_carry(arg0.tags)
                )
            if name == "reshape":
                return array_value(
                    dtypes=arg0.dtypes, layouts=arg0.layouts, tags=_carry(arg0.tags)
                )
            if name in ("matmul", "dot", "einsum", "tensordot"):
                return array_value(
                    dtypes=_union_array_dtypes(args),
                    layouts=frozenset({LAY_CONTIG}),
                    tags=_carry_args(args),
                )
            if name in ("float32", "float64", "dtype"):
                return scalar_value(DT_OTHER)
            return AbstractValue(tags=_carry_args(args))

        # Array methods on an evaluated receiver.
        if receiver is not None:
            if name == "astype":
                atom = dtype_kw or (_dtype_atom_from_node(node.args[0]) if node.args else None)
                dtypes = frozenset({atom}) if atom is not None else None
                return array_value(
                    dtypes=dtypes, layouts=frozenset({LAY_CONTIG}), tags=_carry(receiver.tags)
                )
            if name in ("copy", "flatten"):
                return array_value(
                    dtypes=receiver.dtypes,
                    layouts=frozenset({LAY_CONTIG}),
                    tags=_carry(receiver.tags),
                )
            if name in ("transpose", "swapaxes"):
                return array_value(
                    dtypes=receiver.dtypes,
                    layouts=frozenset({LAY_VIEW}),
                    tags=_carry(receiver.tags),
                )
            if name in ("reshape", "ravel"):
                return array_value(
                    dtypes=receiver.dtypes, layouts=receiver.layouts, tags=_carry(receiver.tags)
                )
            if name in ("mean", "sum", "std", "var", "min", "max", "item"):
                return AbstractValue(dtypes=receiver.dtypes, tags=_carry(receiver.tags))

        # Resolved project functions: use the converging return summary.
        if resolved is not None:
            if resolved.name == "__init__":
                tags: frozenset = frozenset()
                if resolved.class_name in _STREAM_CLASSES:
                    tags = frozenset({TAG_RNG_STREAM})
                elif resolved.class_name in _SESSION_CLASSES:
                    tags = frozenset({TAG_SESSION})
                return AbstractValue(array=False, tags=tags)
            return self.engine.summaries[resolved.qualname].result()
        if name == "float":
            return scalar_value(DT_OTHER)
        if name in ("len", "int", "bool", "str", "range", "enumerate", "zip"):
            return AbstractValue(array=False, tags=_carry_args(args))
        return AbstractValue(tags=_carry_args(args))

    def _is_numpy_func(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base in ("np", "numpy"):
                return True
            return self.engine.graph.is_numpy_alias(self.info.path, base)
        return False


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _param_tags(tags: frozenset) -> frozenset:
    return frozenset(t for t in tags if t.startswith("param:"))


def _carry(tags: frozenset) -> frozenset:
    """Tags that flow through derived expressions (drop param identity)."""
    return tags - _param_tags(tags) - frozenset({TAG_RNG_STREAM, TAG_SESSION, TAG_UNHEALTHY})


def _carry_args(args: Sequence[AbstractValue]) -> frozenset:
    tags: frozenset = frozenset()
    for arg in args:
        tags |= arg.tags
    return _carry(tags)


def _union_array_dtypes(args: Sequence[AbstractValue]):
    """Union of dtype evidence over arguments, NEP-50 weak scalars filtered."""
    dtypes: frozenset = frozenset()
    for arg in args:
        if arg.dtypes is None:
            if arg.array is False:
                continue  # unknown scalar: weak, steers nothing
            return None  # unknown array absorbs to top
        contributed = arg.dtypes
        if arg.array is False:
            contributed = contributed - frozenset({DT_INT, DT_OTHER})
        dtypes = dtypes | contributed
    return dtypes
