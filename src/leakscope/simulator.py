"""Cycle-accurate two-state simulator over the flattened instance tree.

Combinational items and clocked blocks become Python functions over a flat
value vector (signals get contiguous global indices per instance), so
repeated runs of the same design pay only per-cycle costs. Each module is
compiled once per design, with indices relative to the instance's first
one, and relocated to every instance by swapping the global indices into
the compiled constants; port maps are compiled once per instance
declaration and relocated to parent and child. Per cycle the engine:
commits the clock edge (non-blocking writes buffered and applied
atomically), drives stimulus inputs, settles combinational logic, and
records a snapshot row when it differs from the last one.

Generated functions only store into the value vector `v`. To settle, the
engine copies `v`, runs every combinational function once (instance items,
then port maps) and repeats until `v` equals the copy. The linker admits
one combinational driver per signal, so a pass stores each signal at most
once, and an unchanged `v` means no store changed a value.

Timeline convention: rst is held high for RESET_CYCLES cycles, dropped for
one settle cycle, and the first stimulus step lands on the next cycle; that
cycle is the bundle's start_cycle and the origin all execution times are
measured from. The run ends once the stimulus is exhausted and no signal
has toggled for `quiescence_window` cycles, or at max_cycles (flagged).

A trace is stored as its runs, the way a value-change dump stores it: each
distinct row once, with the cycle its run starts at. A cycle with no input
write that settles to exactly the previous row is a fixed point of the
clock step, so every later cycle up to the next input write repeats that
row without evaluating anything: the quiet stretch only advances the cycle
count, up to that write, the quiescence stop or max_cycles.

One instance's view of a run (`TraceBundle.trace`, a `SimulationTrace`)
is also the run's coverage evaluator, and it reads the runs: `mask(expr)`,
the cycles at which a boolean holds as the bits of an int, evaluates the
boolean once per run, and `toggles(i)` is the run starts at which a signal
changes. The expression compiler that generates the design's code also
compiles each mask function (`compile_trace_expr`), once per signal layout
and expression; the trace keeps each mask it builds for every consumer.
"""

from __future__ import annotations

import builtins
import random
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne, sub
from types import CodeType, FunctionType

from .design import DesignHierarchy
from .errors import (
    CombinationalLoop,
    ExpressionEvalError,
    LeakscopeError,
    SimulationLimitError,
    UnknownInstance,
)
from .hdl_ast import (
    AlwaysBlock,
    AlwaysTrigger,
    Assign,
    AssignStyle,
    Binary,
    BitSelect,
    Case,
    ContinuousAssign,
    Expr,
    InstanceDecl,
    ModuleAst,
    Num,
    PartSelect,
    Ref,
    SignalKind,
    SourceLoc,
    Ternary,
    Unary,
    expr_signals,
    fold,
)
from .parser import CLOCK_NAME, RESET_NAME, parse_expression
from .stimulus import Stimulus, validate_stimulus

SETTLE_LIMIT = 1000
DEFAULT_QUIESCENCE = 8
RESET_CYCLES = 2
DEFAULT_MAX_CYCLES = 10_000


@dataclass(frozen=True)
class InitPolicy:
    """Register initialization: all-zero, or seeded pseudo-random."""

    kind: str = "zero"
    seed: int = 0

    @staticmethod
    def zero() -> "InitPolicy":
        return InitPolicy("zero", 0)

    @staticmethod
    def random(seed: int) -> "InitPolicy":
        return InitPolicy("random", seed)


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _mask(width: int) -> int:
    return (1 << width) - 1


# How deep brackets may nest in one subexpression's source before it is
# bound to a temporary; CPython's parser stops at 200 levels.
_SPILL_DEPTH = 120


class _ExprCompiler:
    """Compile an expression to a Python source fragment plus its width.

    `scope` maps a signal name to (python-access-string, width). Values are
    nonnegative ints already confined to their widths, so only operators
    that can overflow re-mask. A subexpression whose source nests
    `_SPILL_DEPTH` brackets deep is bound to a temporary, giving
    `(x0 := …, final)[-1]`, which fits in an `if` condition and in a
    comprehension alike; subset expressions cannot fail or have side
    effects, so evaluating every temporary up front is exact.
    """

    def __init__(self, scope: dict[str, tuple[str, int]]):
        self.scope = scope

    def compile(self, e: Expr) -> tuple[str, int]:
        self.spilled: list[str] = []
        src, width, _ = fold(e, self._node)
        if self.spilled:
            src = f"({', '.join(self.spilled)}, {src})[-1]"
        return src, width

    def _node(self, e: Expr, subs: list[tuple[str, int, int]]) -> tuple[str, int, int]:
        """The node's source, its width and how deep brackets nest in the
        source; a signal's access counts as one level."""
        t = type(e)
        if t is Ref:
            return (*self.scope[e.name], 1)
        if t is Num:
            return str(e.value), e.width, 0
        if t is PartSelect:
            base, _ = self.scope[e.base]
            width = e.msb - e.lsb + 1
            return f"(({base} >> {e.lsb}) & {_mask(width)})", width, 3
        # Each source below puts `added` brackets around its deepest operand.
        if t is Binary:
            (a, wa, _), (b, wb, _) = subs
            op = e.op
            if op in ("==", "!=", "<", "<=", ">", ">="):
                src, width, added = f"(1 if {a} {op} {b} else 0)", 1, 1
            elif op == "&&":
                src, width, added = f"(1 if {a} and {b} else 0)", 1, 1
            elif op == "||":
                src, width, added = f"(1 if {a} or {b} else 0)", 1, 1
            elif op in ("+", "-"):
                width = max(wa, wb)
                src, added = f"(({a} {op} {b}) & {_mask(width)})", 2
            elif op in ("&", "|", "^"):
                src, width, added = f"({a} {op} {b})", max(wa, wb), 1
            elif op == "<<":
                # Clamped: a shift by wa or more clears every kept bit anyway,
                # and a huge amount would otherwise build a huge int first.
                src, width, added = f"(({a} << min({b}, {wa})) & {_mask(wa)})", wa, 3
            elif op == ">>":
                src, width, added = f"({a} >> {b})", wa, 1
            else:
                raise AssertionError(op)
        elif t is Unary:
            a, width, _ = subs[0]
            if e.op == "~":
                src, added = f"({_mask(width)} ^ {a})", 1
            elif e.op == "!":
                src, width, added = f"(0 if {a} else 1)", 1, 1
            elif e.op == "-":
                src, added = f"((-{a}) & {_mask(width)})", 2
            else:
                raise AssertionError(e.op)
        elif t is Ternary:
            (c, _, _), (a, wa, _), (b, wb, _) = subs
            src, width, added = f"({a} if {c} else {b})", max(wa, wb), 1
        elif t is BitSelect:
            base, _ = self.scope[e.base]
            src, width, added = f"(({base} >> {subs[0][0]}) & 1)", 1, 3
        else:
            raise TypeError(e)
        depth = added + max([d for _, _, d in subs])
        if depth < _SPILL_DEPTH:
            return src, width, depth
        name = f"x{len(self.spilled)}"
        self.spilled.append(f"{name} := {src}")
        return name, width, 0


# Compiled mask builders, one dict per signal layout, keyed by expression;
# the compiled function takes a trace's runs explicitly so one compile
# serves every trace with the same layout. A trace looks up its layout's
# dict once, so a mask build hashes only the expression.
_EXPR_CACHE: dict[tuple[tuple[str, int], ...], dict[str, object]] = {}


def compile_trace_expr(expr_text: str, layout: tuple[tuple[str, int], ...]):
    """Compile a boolean expression into `fn(values, lens)`, the mask of
    a trace whose run k holds the row `values[k]` for `lens[k]` cycles:
    bit t is set iff the expression holds at cycle t. The expression is
    evaluated once per run, and its verdict fills the run's bit range."""
    try:
        tree: Expr = parse_expression(expr_text)
    except Exception as exc:
        raise ExpressionEvalError(expr_text, f"parse failure: {exc}")
    index = {name: i for i, (name, _) in enumerate(layout)}
    scope = {}
    for name in expr_signals(tree):
        if name not in index:
            raise ExpressionEvalError(expr_text, f"unknown signal {name!r}")
        scope[name] = (f"row[{index[name]}]", layout[index[name]][1])
    src, _ = _ExprCompiler(scope).compile(tree)
    # The runs are visited last first, so the joined digits run from the
    # highest cycle down, the order int() reads them in.
    namespace: dict = {}
    exec(  # noqa: S102
        f"def fn(values, lens):\n"
        f"    return int(''.join([('1' if {src} else '0') * n"
        f" for row, n in zip(reversed(values), reversed(lens))]) or '0', 2)",
        namespace,
    )
    return namespace["fn"]


# ---------------------------------------------------------------------------
# Design compilation
# ---------------------------------------------------------------------------

@dataclass
class InstanceLayout:
    path: str
    module: ModuleAst
    lo: int  # first global index
    hi: int  # one past last
    names: list[str]
    widths: list[int]
    index: dict[str, int]  # signal name -> global index


@dataclass
class CompiledDesign:
    hierarchy: DesignHierarchy
    layouts: dict[str, InstanceLayout]
    size: int
    comb_fns: list = field(default_factory=list)
    seq_fns: list = field(default_factory=list)
    reg_indices: list[tuple[str, str, int, int]] = field(default_factory=list)
    clk_indices: list[int] = field(default_factory=list)
    top_inputs: dict[str, tuple[int, int]] = field(default_factory=dict)  # name -> (idx, width)
    rst_index: int | None = None


def compile_design(h: DesignHierarchy) -> CompiledDesign:
    cached = getattr(h, "_compiled", None)
    if cached is not None:
        return cached

    layouts: dict[str, InstanceLayout] = {}
    next_index = 0
    for inst in h.instances:
        m = h.modules[inst.module_name]
        decls = m.all_signals()
        names = [d.name for d in decls]
        widths = [d.width for d in decls]
        index = {name: next_index + i for i, name in enumerate(names)}
        layouts[inst.path] = InstanceLayout(
            inst.path, m, next_index, next_index + len(names), names, widths, index
        )
        next_index += len(names)

    design = CompiledDesign(hierarchy=h, layouts=layouts, size=next_index)

    top_layout = layouts[h.top]
    for port in h.modules[h.top].ports:
        if port.kind is SignalKind.INPUT:
            design.top_inputs[port.name] = (top_layout.index[port.name], port.width)
    design.rst_index = top_layout.index.get(RESET_NAME)

    # Code is generated once per module (and per port map of an instance),
    # compiled once per distinct source text, and relocated to each
    # instance's base. The caches live for this call only: kept
    # process-wide, they would hold every compiled design's code for the
    # life of the process.
    relocatable = cache(_Relocatable)

    def bind(src: str, loc: SourceLoc, *bases: int):
        try:
            code = relocatable(src)
        except (RecursionError, MemoryError) as exc:  # CPython's compiler and parser limits
            raise LeakscopeError(f"{loc}: generated code too large for CPython to compile"
                                 f" ({type(exc).__name__})") from None
        return code.bind(*bases)

    module_code: dict[str, list[str]] = {}
    for inst in h.instances:
        layout = layouts[inst.path]
        if CLOCK_NAME in layout.index:
            design.clk_indices.append(layout.index[CLOCK_NAME])
        for decl in layout.module.all_signals():
            if decl.is_reg:
                design.reg_indices.append(
                    (inst.path, decl.name, layout.index[decl.name], decl.width)
                )
        items = module_code.get(inst.module_name)
        if items is None:
            items = module_code[inst.module_name] = _module_code(layout.module)
        for item, src in zip(layout.module.items, items):
            clocked = isinstance(item, AlwaysBlock) and item.trigger is AlwaysTrigger.POSEDGE_CLOCK
            (design.seq_fns if clocked else design.comb_fns).append(bind(src, item.loc, layout.lo))

    for inst in h.instances:
        if inst.decl is None:
            continue
        parent, child = layouts[inst.parent], layouts[inst.path]
        for src in _port_code(parent.module, child.module, inst.decl):
            design.comb_fns.append(bind(src, inst.decl.loc, parent.lo, child.lo))

    h._compiled = design
    return design


# A signal is referenced by a placeholder string constant, the prefix of its
# base followed by its index relative to that base: `v["@3"]` is signal 3 of
# the instance (or, in a port map, of the parent) and `v["^3"]` signal 3 of
# the child. The HDL subset has no strings, so no literal can collide.
_BASE_PREFIXES = "@^"
_FN_GLOBALS = {"__builtins__": builtins}


def _slot(k: int, base: int = 0) -> str:
    return f'"{_BASE_PREFIXES[base]}{k}"'


def _scope_for(module: ModuleAst, base: int = 0) -> dict[str, tuple[str, int]]:
    return {
        d.name: (f"v[{_slot(k, base)}]", d.width) for k, d in enumerate(module.all_signals())
    }


class _Relocatable:
    """One generated function, compiled once with placeholder indices;
    `bind` makes the function for given bases by swapping each placeholder
    constant for its global index, so the bound code runs the very bytecode
    a function compiled with literal indices would."""

    __slots__ = ("code", "consts", "slots")

    def __init__(self, src: str):
        self.code = _compile_fn(src)
        self.consts = self.code.co_consts
        self.slots = [
            (pos, _BASE_PREFIXES.index(c[0]), int(c[1:]))
            for pos, c in enumerate(self.consts)
            if type(c) is str
        ]

    def bind(self, *bases: int):
        consts = list(self.consts)
        for pos, base, k in self.slots:
            consts[pos] = bases[base] + k
        return FunctionType(self.code.replace(co_consts=tuple(consts)), _FN_GLOBALS)


def _compile_fn(src: str) -> CodeType:
    """Compile the source of one `def fn` and return the function's code."""
    module = compile(src, "<string>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _fit(src: str, width: int, dest_width: int) -> str:
    """Source `src` of `width` bits, truncated to fit a `dest_width` sink."""
    if width > dest_width:
        return f"({src}) & {_mask(dest_width)}"
    return src


def _transfer(dst: str, src: str) -> str:
    """The source of a combinational `dst = src`."""
    return f"def fn(v):\n    {dst} = {src}"


def _module_code(m: ModuleAst) -> list[str]:
    """The source of each of the module's items as a relocatable function:
    `fn(v)` for a continuous assign or an always @(*) block, `fn(v, nb)`
    for a clocked block. Every function stores straight into `v`."""
    scope = _scope_for(m)
    rel = {d.name: k for k, d in enumerate(m.all_signals())}
    ec = _ExprCompiler(scope)
    out: list[str] = []
    for item in m.items:
        if isinstance(item, ContinuousAssign):
            target, width = scope[item.dest]
            out.append(_transfer(target, _fit(*ec.compile(item.expr), width)))
        else:
            clocked = item.trigger is AlwaysTrigger.POSEDGE_CLOCK
            lines = ["def fn(v, nb):" if clocked else "def fn(v):"]
            _emit_stmts(lines, item.body, 1, ec, rel)
            if len(lines) == 1:
                lines.append("    pass")
            out.append("\n".join(lines))
    return out


def _emit_stmts(lines, stmts, depth, ec, rel: dict[str, int]) -> None:
    pad = "    " * depth
    for stmt in stmts:
        if isinstance(stmt, Assign):
            target, dest_width = ec.scope[stmt.dest]
            value = _fit(*ec.compile(stmt.expr), dest_width)
            if stmt.style is AssignStyle.NON_BLOCKING:
                lines.append(f"{pad}nb[{_slot(rel[stmt.dest])}] = {value}")
            else:
                lines.append(f"{pad}{target} = {value}")
            continue
        # An if chain or a case: one `if`/`elif` per arm, then the default.
        if isinstance(stmt, Case):
            # Named by depth: a case nested in an arm is one level deeper,
            # and a later case at this depth starts after this chain is done.
            tmp = f"s{depth}"
            lines.append(f"{pad}{tmp} = {ec.compile(stmt.subject)[0]}")
            guards = [f"{tmp} == {arm.guard.value}" for arm in stmt.arms]
        else:
            guards = [ec.compile(arm.guard)[0] for arm in stmt.arms]
        keyword = "if"
        for arm, guard in zip(stmt.arms, guards):
            lines.append(f"{pad}{keyword} {guard}:")
            _emit_stmts(lines, arm.body, depth + 1, ec, rel)
            if not arm.body:
                lines.append(f"{pad}    pass")
            keyword = "elif"
        if stmt.default:
            lines.append(f"{pad}else:" if stmt.arms else f"{pad}if True:")
            _emit_stmts(lines, stmt.default, depth + 1, ec, rel)


def _port_code(parent: ModuleAst, child: ModuleAst, decl: InstanceDecl) -> list[str]:
    """Port bindings become the source of combinational transfer functions,
    bound to the parent's base and the child's."""
    child_ports = {p.name: p for p in child.ports}
    parent_scope = _scope_for(parent)
    child_scope = _scope_for(child, base=1)
    ec = _ExprCompiler(parent_scope)
    out: list[str] = []

    for formal, actual in decl.port_map:
        port = child_ports[formal]
        if formal == CLOCK_NAME:
            continue
        if port.kind is SignalKind.INPUT:
            src = _fit(*ec.compile(actual), port.width)
            dst = child_scope[formal][0]
        else:
            src = _fit(child_scope[formal][0], port.width, parent_scope[actual.name][1])
            dst = parent_scope[actual.name][0]
        out.append(_transfer(dst, src))
    return out


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass
class SimulationTrace:
    """One instance's view of a bundle's runs: the instance holds
    `values[k]`, in the order of `names`, from cycle `starts[k]` up to the
    next start, or to `cycles`; no two consecutive runs hold equal values.

    The trace is also the run's coverage evaluator: bit t of a mask is set
    iff its predicate holds at cycle t. Masks are built from the runs
    and kept, so every coverage consumer of the run (the fuzzer's probes,
    `match_coverage`, `replay_sva`) pays one pass per expression."""

    instance_path: str
    names: list[str]
    widths: list[int]
    starts: list[int]
    values: list[list[int]]
    cycles: int
    _masks: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _toggles: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _lens(self) -> list[int]:
        """How many cycles each run lasts."""
        return list(map(sub, [*islice(self.starts, 1, None), self.cycles], self.starts))

    @cached_property
    def signal_values(self) -> dict[str, list[int]]:
        """Each signal's value at every cycle, by name: each run's row is
        repeated over its run, and zip transposes."""
        rows = chain.from_iterable(map(repeat, self.values, self._lens))
        columns = zip(*rows) if self.cycles else repeat(())
        return {name: list(column) for name, column in zip(self.names, columns)}

    @cached_property
    def all(self) -> int:
        """The mask of every recorded cycle."""
        return (1 << self.cycles) - 1

    @cached_property
    def _compiled(self) -> dict[str, object]:
        """The compiled mask functions of this trace's layout, shared with
        every trace of the same layout; keyed only once a mask is asked
        for, since most traces are never masked."""
        return _EXPR_CACHE.setdefault(tuple(zip(self.names, self.widths)), {})

    def mask(self, expr_text: str) -> int:
        m = self._masks.get(expr_text)
        if m is None:
            fn = self._compiled.get(expr_text)
            if fn is None:
                layout = tuple(zip(self.names, self.widths))
                fn = self._compiled[expr_text] = compile_trace_expr(expr_text, layout)
            m = self._masks[expr_text] = fn(self.values, self._lens)
        return m

    def toggles(self, i: int) -> int:
        """The run starts at which signal i differs from the run before;
        run 0 is its own predecessor, so cycle 0 never toggles."""
        m = self._toggles.get(i)
        if m is None:
            values = self.values
            runs = zip(reversed(values), reversed(values[:1] + values[:-1]), reversed(self._lens))
            # zfill pads in front, so a run's first cycle is its last digit.
            bits = "".join([("1" if row[i] != prev[i] else "0").zfill(n) for row, prev, n in runs])
            m = self._toggles[i] = int(bits or "0", 2)
        return m


class TraceBundle:
    """Per-instance traces of one run, sampled once per clock cycle and
    stored as runs: the design-wide row `rows[k]` holds from cycle
    `starts[k]` up to the next start, or to `cycles`. Runs are maximal (no
    two consecutive rows are equal), so a cycle other than 0 differs from
    its predecessor exactly where a run starts, and equal traces have
    equal runs. Each instance owns the columns `lo:hi` of every row."""

    def __init__(
        self,
        rows: list[list[int]],
        starts: list[int],
        cycles: int,
        layouts: dict[str, tuple[int, int, list[str], list[int]]],
        start_cycle: int,
        stimulus: Stimulus | None,
        seed_id: str = "run",
        max_cycles_reached: bool = False,
        warnings: tuple[str, ...] = (),
    ):
        self._rows = rows
        self._starts = starts
        self.cycles = cycles
        self._layouts = layouts
        self._traces: dict[str, SimulationTrace] = {}
        self.start_cycle = start_cycle
        self.stimulus = stimulus
        self.seed_id = seed_id
        self.max_cycles_reached = max_cycles_reached
        self.warnings = warnings

    def instances(self) -> list[str]:
        return list(self._layouts)

    def signal_names(self, path: str) -> list[str]:
        return list(self._require(path)[2])

    def signal_widths(self, path: str) -> list[int]:
        return list(self._require(path)[3])

    def _require(self, path: str) -> tuple[int, int, list[str], list[int]]:
        layout = self._layouts.get(path)
        if layout is None:
            raise UnknownInstance(f"no instance {path!r} in trace bundle")
        return layout

    def trace(self, path: str) -> SimulationTrace:
        """The design runs sliced to the instance's columns; a slice equal
        to the previous one extends its run."""
        cached = self._traces.get(path)
        if cached is not None:
            return cached
        lo, hi, names, widths = self._require(path)
        parts = list(map(itemgetter(slice(lo, hi)), self._rows))
        new = [True, *map(ne, islice(parts, 1, None), parts)]
        starts, values = list(compress(self._starts, new)), list(compress(parts, new))
        trace = SimulationTrace(path, list(names), list(widths), starts, values, self.cycles)
        self._traces[path] = trace
        return trace

    def last_toggle_at_or_after(self, path: str, start: int) -> int | None:
        """The last cycle c >= start, c >= 1, at which the instance differs
        from cycle c - 1, or None."""
        starts = self.trace(path).starts
        last = starts[-1] if starts else 0
        return last if last >= max(start, 1) else None

    def value_changes(
        self, signals: list[tuple[str, str]]
    ) -> Iterator[tuple[int, Sequence[tuple[int, int]]]]:
        """(cycle, the (position in `signals`, value) pairs the cycle sets)
        for cycle 0, which sets every signal, and for each later run start,
        which sets those that differ from the previous run. A cycle not
        yielded repeats its predecessor's row."""
        positions: dict[tuple[str, str], int] = {}
        for path in dict.fromkeys(path for path, _ in signals):
            lo, _, names, _ = self._require(path)
            positions.update(((path, name), lo + i) for i, name in enumerate(names))
        columns = [(k, positions[signal]) for k, signal in enumerate(signals)]
        rows = self._rows
        if rows:
            yield 0, [(k, rows[0][i]) for k, i in columns]
        for start, row, previous in zip(islice(self._starts, 1, None), islice(rows, 1, None), rows):
            yield start, [(k, row[i]) for k, i in columns if row[i] != previous[i]]

    def rows_digest(self) -> str:
        """Content hash of the recorded runs; runs with identical behavior
        share a digest. The fuzzer keys the run pairs it has already
        diagnosed by it (`_Campaign._diagnosed`)."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            import hashlib

            runs = repr((self.cycles, self._starts, self._rows))
            cached = hashlib.sha1(runs.encode()).hexdigest()
            self._digest = cached
        return cached

    def equal_traces(self, other: "TraceBundle") -> bool:
        def recorded(b: TraceBundle) -> tuple:
            names = [(path, layout[2]) for path, layout in b._layouts.items()]
            return names, b.start_cycle, b.cycles, b._starts, b._rows

        return recorded(self) == recorded(other)

    @staticmethod
    def from_signal_values(
        per_instance: dict[str, dict[str, list[int]]],
        widths: dict[str, dict[str, int]],
        start_cycle: int,
        seed_id: str = "vcd",
        warnings: tuple[str, ...] = (),
    ) -> "TraceBundle":
        """Assemble a bundle from per-signal arrays of per-cycle values.

        Shorter arrays are padded with 0; a row equal to its predecessor
        extends that row's run."""
        layouts: dict[str, tuple[int, int, list[str], list[int]]] = {}
        columns: list[list[int]] = []
        lo = 0
        for path, signals in per_instance.items():
            names = list(signals)
            wlist = [widths.get(path, {}).get(n, 1) for n in names]
            layouts[path] = (lo, lo + len(names), names, wlist)
            columns.extend(signals.values())
            lo += len(names)
        cycles = max(map(len, columns), default=0)
        padded = [chain(c, repeat(0, cycles - len(c))) for c in columns]
        rows: list[list[int]] = []
        starts: list[int] = []
        previous = None
        for cycle, values in enumerate(zip(*padded)):
            if values != previous:
                starts.append(cycle)
                rows.append(list(values))
                previous = values
        return TraceBundle(
            rows, starts, cycles, layouts, start_cycle, None, seed_id=seed_id, warnings=warnings
        )


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------

def simulate(
    h: DesignHierarchy | CompiledDesign,
    stim: Stimulus,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    init: InitPolicy = InitPolicy(),
    *,
    quiescence_window: int = DEFAULT_QUIESCENCE,
    seed_id: str = "run",
) -> TraceBundle:
    if max_cycles < 1:
        raise SimulationLimitError(f"max cycles must be at least 1, got {max_cycles}")
    if quiescence_window < 0:
        raise SimulationLimitError(
            f"quiescence window must not be negative, got {quiescence_window}"
        )
    design = h if isinstance(h, CompiledDesign) else compile_design(h)
    hierarchy = design.hierarchy
    step_assignments = validate_stimulus(stim, hierarchy)

    v = [0] * design.size
    for idx in design.clk_indices:
        v[idx] = 1

    if init.kind == "random":
        rng = random.Random(init.seed)
        for _, _, idx, width in design.reg_indices:
            v[idx] = rng.randrange(1 << width)
    elif init.kind != "zero":
        raise ValueError(f"unknown init policy {init.kind!r}")

    # Input schedule: cycle -> list of (index, value).
    start_cycle = RESET_CYCLES + 1
    schedule: dict[int, list[tuple[int, int]]] = {}
    if design.rst_index is not None:
        v[design.rst_index] = 1
        schedule.setdefault(RESET_CYCLES, []).append((design.rst_index, 0))
    cycle_cursor = start_cycle
    for step, assignments in zip(stim.steps, step_assignments):
        assigns = schedule.setdefault(cycle_cursor, [])
        for name, value in sorted(assignments.items()):
            assigns.append((design.top_inputs[name][0], value))
        cycle_cursor += step.hold
    stimulus_end = cycle_cursor

    seq_fns = design.seq_fns
    stops = sorted([*schedule, max_cycles])  # where a quiet stretch must end
    rows: list[list[int]] = []  # one per run
    starts: list[int] = []  # the cycle each run starts at
    nb: dict[int, int] = {}
    last_activity = 0
    max_reached = False

    # A cycle with no input write that settles back to the previous row
    # reaches a fixed point of the clock step: all state lives in `v` and
    # the step is deterministic. Every cycle up to the next input write
    # repeats that row, so the whole stretch is skipped at once, up to
    # that write, the quiescence stop or max_cycles, whichever is first.
    settled = False
    cycle = 0
    while True:
        writes = schedule.get(cycle)
        if settled and writes is None:
            cycle = min(
                stops[bisect_right(stops, cycle)],
                max(last_activity, stimulus_end - 1) + quiescence_window + 1,
            )
        else:
            if cycle > 0:
                nb.clear()
                for fn in seq_fns:
                    fn(v, nb)
                for idx, value in nb.items():
                    v[idx] = value
            for idx, value in writes or ():
                v[idx] = value
            _settle(design, v)
            if rows and v == rows[-1]:
                settled = writes is None
            else:
                if rows:
                    last_activity = cycle
                rows.append(v.copy())
                starts.append(cycle)
                settled = False
            cycle += 1
        if cycle >= max_cycles:
            max_reached = True
            break
        # Past the stimulus and quiescence_window cycles since the last toggle.
        if cycle > max(last_activity, stimulus_end - 1) + quiescence_window:
            break

    layouts = {
        path: (lay.lo, lay.hi, list(lay.names), list(lay.widths))
        for path, lay in design.layouts.items()
    }
    return TraceBundle(
        rows,
        starts,
        cycle,
        layouts,
        start_cycle,
        stim,
        seed_id=seed_id,
        max_cycles_reached=max_reached,
    )


def _settle(design: CompiledDesign, v: list[int]) -> None:
    """Rerun the combinational functions until a pass leaves `v` unchanged;
    the pass after SETTLE_LIMIT changing passes names what still changes."""
    comb_fns = design.comb_fns
    for _ in range(SETTLE_LIMIT + 1):
        before = v.copy()
        for fn in comb_fns:
            fn(v)
        if v == before:
            return
    unstable = [
        (lay.path, name) for lay in design.layouts.values()
        for name, old, new in zip(lay.names, before[lay.lo:lay.hi], v[lay.lo:lay.hi]) if old != new
    ]
    instance = unstable[0][0]
    raise CombinationalLoop(instance, sorted(
        name if path == instance else f"{path}.{name}" for path, name in unstable
    ))
