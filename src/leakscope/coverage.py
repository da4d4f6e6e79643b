"""Timing-behavior coverage: path conditions, cover properties, matching.

Each micro-event path becomes an ordered condition: per edge, a Branch step
for the (possibly disjunctive) edge guard, a OneCycle step when the edge
lands on a clocked element (the event completes on the next edge), and an
Eventually step when it leaves an input or a sub-instance (the event lands
whenever the outside world delivers it). The same condition drives two
evaluators: emission as an SVA-style cover property for external tools, and
the internal matcher. The matcher turns each Branch expression into a
bitmask over a trace's cycles and walks the steps backward over the set of
cycles from which the rest of the path aligns: a Branch intersects it with
the expression's mask, a OneCycle shifts it one cycle earlier, and an
Eventually widens it to every cycle up to its latest member. A path is
covered iff the set is non-empty after the first step.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .errors import ExpressionEvalError, PathNotInGraph
from .meg import Meg, MicroEventPath, NodeKind, render_condition
from .parser import parse_expression
from .simulator import TraceBundle
from .hdl_ast import Expr

log = logging.getLogger(__name__)


class StepKind(Enum):
    BRANCH = "branch"
    ONE_CYCLE = "one_cycle"
    EVENTUALLY = "eventually"


@dataclass(frozen=True)
class ConditionStep:
    kind: StepKind
    expr: str | None = None  # BRANCH only: re-parseable boolean
    line: int | None = None  # origin of the first clause


@dataclass(frozen=True)
class PathCondition:
    path_id: str
    module: str
    node_ids: tuple[str, ...]
    steps: tuple[ConditionStep, ...]


def path_condition(p: MicroEventPath, g: Meg) -> PathCondition:
    """Ordered condition steps for one path, per-edge case analysis."""
    steps: list[ConditionStep] = []
    for edge in p.edges:
        if g.edges.get((edge.src, edge.dst)) is not edge:
            known = g.edges.get((edge.src, edge.dst))
            if known is None or known != edge:
                raise PathNotInGraph(
                    f"edge ({edge.src} -> {edge.dst}) is not part of MEG "
                    f"{g.module_name!r}"
                )
        if edge.clauses:
            steps.append(
                ConditionStep(
                    StepKind.BRANCH,
                    expr=render_condition(edge),
                    line=min(edge.lines),
                )
            )
        if g.nodes[edge.dst].clocked:
            steps.append(ConditionStep(StepKind.ONE_CYCLE))
        if g.nodes[edge.src].kind in (NodeKind.INSTANCE, NodeKind.INPUT):
            steps.append(ConditionStep(StepKind.EVENTUALLY))
    return PathCondition(
        path_id=p.id, module=g.module_name, node_ids=p.node_ids, steps=tuple(steps)
    )


# ---------------------------------------------------------------------------
# SVA emission
# ---------------------------------------------------------------------------

def emit_sva(pc: PathCondition, module: str | None = None) -> str:
    """One `cover property` per path. ##1 for OneCycle, ##[0:$] for
    Eventually; consecutive delays are separated by a literal-true term so
    the output stays inside the SVA sequence grammar."""
    module = module or pc.module
    tokens: list[str] = []
    for step in pc.steps:
        if step.kind is StepKind.BRANCH:
            tokens.append(f"({step.expr})")
        elif step.kind is StepKind.ONE_CYCLE:
            tokens.append("##1")
        else:
            tokens.append("##[0:$]")
    if not tokens:
        log.warning(
            "path %s in %s has no condition steps; emitting an always-coverable "
            "property", pc.path_id, module,
        )
    seq: list[str] = []
    expect_bool = True
    for token in tokens:
        is_delay = token.startswith("##")
        if expect_bool and is_delay:
            seq.append("1'b1")
        if not expect_bool and not is_delay:
            # Two adjacent booleans fuse with a zero-delay; keep them apart.
            seq.append("##0")
        seq.append(token)
        expect_bool = is_delay
    if expect_bool:
        seq.append("1'b1")
    name = f"cp_{module}_{pc.path_id}"
    comment = " -> ".join(pc.node_ids)
    return (
        f"// {comment}\n"
        f"{name}: cover property (@(posedge clk) {' '.join(seq)});"
    )


def emit_sva_file(conditions: list[PathCondition], module: str) -> str:
    header = f"// cover properties for module {module}: {len(conditions)} paths\n"
    return header + "\n".join(emit_sva(pc, module) for pc in conditions) + "\n"


_SVA_RE = re.compile(
    r"^(?P<name>[A-Za-z_]\w*)\s*:\s*cover\s+property\s*\(\s*"
    r"@\(posedge\s+clk\)\s*(?P<seq>.*)\)\s*;\s*$"
)
# The capture keeps the delay operators in re.split's output.
_DELAY_SPLIT = re.compile(r"(##(?:\d+|\[0:\$\]))")
_BARE_TERM = re.compile(r"[^\s#]+")


def _scan_segment(seg: str) -> list[str]:
    """The booleans of one delay-free stretch of a sequence: parenthesized
    groups and bare terms (literals like 1'b1), separated by whitespace."""
    tokens: list[str] = []
    i = 0
    n = len(seg)
    while i < n:
        ch = seg[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            depth = 0
            for j in range(i, n):
                if seg[j] == "(":
                    depth += 1
                elif seg[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
            if depth:
                raise ValueError("unbalanced parentheses in sequence")
            tokens.append(seg[i:j + 1])
            i = j + 1
        elif ch == "#":
            raise ValueError("stray '#' outside a delay operator")
        else:
            j = _BARE_TERM.match(seg, i).end()
            tokens.append(seg[i:j])
            i = j
    return tokens


def _split_sva_seq(seq: str, segments: dict[str, list[str]]) -> list[str]:
    """Tokenize a property sequence into booleans and delay operators.

    The sequence is cut at its delay operators; each distinct stretch
    between them is scanned once and kept in `segments`.
    """
    tokens: list[str] = []
    for k, part in enumerate(_DELAY_SPLIT.split(seq)):
        if k % 2:
            tokens.append(part)
            continue
        booleans = segments.get(part)
        if booleans is None:
            booleans = segments[part] = _scan_segment(part)
        tokens.extend(booleans)
    return tokens


def _read_properties(
    text: str,
) -> Iterator[tuple[int, str | None, list[str] | None, str | None]]:
    """Yield (line number, name, tokens, problem) for each property line
    of SVA text; blank and comment lines are skipped. A line outside the
    subset has name and tokens None and says why in `problem`."""
    segments: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        m = _SVA_RE.match(stripped)
        if not m:
            yield lineno, None, None, "not a cover property in the subset"
            continue
        try:
            tokens = _split_sva_seq(m.group("seq"), segments)
        except ValueError as exc:
            yield lineno, None, None, str(exc)
            continue
        yield lineno, m.group("name"), tokens, None


def sva_lint(text: str) -> list[str]:
    """Check emitted properties against the supported SVA subset.

    Returns a list of problems; empty means the text lints clean.
    """
    problems: list[str] = []
    parsed: set[str] = set()  # booleans known to parse; failures re-report
    for lineno, _, tokens, problem in _read_properties(text):
        if problem:
            problems.append(f"line {lineno}: {problem}")
            continue
        expect_bool = True
        for token in tokens:
            is_delay = token.startswith("##")
            if expect_bool and is_delay:
                problems.append(f"line {lineno}: delay {token} where a boolean is required")
                break
            if not expect_bool and not is_delay:
                problems.append(f"line {lineno}: adjacent booleans without a delay")
                break
            if not is_delay and token not in parsed:
                try:
                    parse_expression(token)
                except Exception as exc:
                    problems.append(f"line {lineno}: unparseable boolean {token!r}: {exc}")
                    break
                parsed.add(token)
            expect_bool = is_delay
        else:
            if expect_bool and tokens:
                problems.append(f"line {lineno}: sequence ends on a delay")
    return problems


def parse_sva(text: str) -> list[tuple[str, tuple[ConditionStep, ...]]]:
    """Read emitted properties back into condition steps (reference route
    for the emission/evaluation agreement check). Steps are shared: one
    per delay kind and one per distinct boolean."""
    one = (ConditionStep(StepKind.ONE_CYCLE),)
    steps_of: dict[str, tuple[ConditionStep, ...]] = {
        "##1": one,
        "##[0:$]": (ConditionStep(StepKind.EVENTUALLY),),
    }
    out = []
    for lineno, name, tokens, problem in _read_properties(text):
        if problem:
            raise ValueError(f"line {lineno}: {problem}")
        steps: list[ConditionStep] = []
        for token in tokens:
            interned = steps_of.get(token)
            if interned is None:
                if token.startswith("##"):
                    interned = one * int(token[2:])
                else:
                    expr = token[1:-1] if token.startswith("(") else token
                    interned = (ConditionStep(StepKind.BRANCH, expr=expr),)
                steps_of[token] = interned
            steps.extend(interned)
        out.append((name, tuple(steps)))
    return out


# ---------------------------------------------------------------------------
# Matching against traces
# ---------------------------------------------------------------------------

# Compiled boolean evaluators keyed by (signal layout, expression); the
# compiled function takes the per-signal arrays explicitly so one compile
# serves every trace with the same layout.
_EXPR_CACHE: dict[tuple[tuple[tuple[str, int], ...], str], object] = {}


def compile_trace_expr(expr_text: str, layout: tuple[tuple[str, int], ...]):
    key = (layout, expr_text)
    fn = _EXPR_CACHE.get(key)
    if fn is not None:
        return fn
    from .hdl_ast import expr_signals
    from .simulator import _ExprCompiler

    try:
        tree: Expr = parse_expression(expr_text)
    except Exception as exc:
        raise ExpressionEvalError(expr_text, 0, f"parse failure: {exc}")
    scope = {
        name: (f"sv[{i}][t]", width) for i, (name, width) in enumerate(layout)
    }
    for name in expr_signals(tree):
        if name not in scope:
            raise ExpressionEvalError(expr_text, 0, f"unknown signal {name!r}")
    src, _ = _ExprCompiler(scope).compile(tree)
    namespace: dict = {}
    exec(f"def fn(sv, t):\n    return {src}", namespace)  # noqa: S102
    fn = namespace["fn"]
    _EXPR_CACHE[key] = fn
    return fn


def _bits(flags) -> int:
    """Pack an iterable of truth values into an int, bit t for item t."""
    return int("".join("1" if f else "0" for f in flags)[::-1] or "0", 2)


class TraceMasks:
    """One instance trace as per-cycle bitmasks: bit t of a mask is set iff
    its predicate holds at cycle t. Masks are built once per expression
    and cached, so every coverage consumer pays one pass per trace."""

    def __init__(self, bundle: TraceBundle, instance_path: str):
        trace = bundle.trace(instance_path)
        names = bundle.signal_names(instance_path)
        widths = bundle.signal_widths(instance_path)
        self.layout = tuple(zip(names, widths))
        self.sv = [trace.signal_values[name] for name in names]
        self.cycles = trace.cycles
        self.all = (1 << self.cycles) - 1
        self._masks: dict[str, int] = {}
        self._toggles: dict[int, int] = {}

    def mask(self, expr_text: str) -> int:
        m = self._masks.get(expr_text)
        if m is None:
            fn = compile_trace_expr(expr_text, self.layout)
            sv = self.sv
            m = _bits(fn(sv, t) for t in range(self.cycles))
            self._masks[expr_text] = m
        return m

    def toggles(self, i: int) -> int:
        """Cycles t >= 1 at which signal i differs from cycle t - 1."""
        m = self._toggles.get(i)
        if m is None:
            series = self.sv[i]
            m = _bits(series[t] != series[t - 1] for t in range(1, self.cycles)) << 1
            self._toggles[i] = m
        return m


def match_steps(steps: tuple[ConditionStep, ...], masks: TraceMasks) -> bool:
    """True when some start cycle admits an alignment of all steps.

    Walks the steps backward keeping `r`, the set of cycles from which the
    remaining suffix aligns. Every step, including a trailing OneCycle's
    landing cycle, must be witnessed by a recorded cycle.
    """
    r = masks.all
    for step in reversed(steps):
        if step.kind is StepKind.BRANCH:
            r &= masks.mask(step.expr)
        elif step.kind is StepKind.ONE_CYCLE:
            r >>= 1
        else:  # EVENTUALLY: any cycle at or before the latest suffix start
            r = (1 << r.bit_length()) - 1
        if not r:
            return False
    return r != 0


@dataclass
class ModuleCoverage:
    module: str
    total_paths: int
    covered: set[str] = field(default_factory=set)
    truncated: bool = False

    @property
    def covered_paths(self) -> int:
        return len(self.covered)


@dataclass
class CoverageReport:
    per_module: dict[str, ModuleCoverage] = field(default_factory=dict)

    def add(self, fragment: ModuleCoverage) -> None:
        existing = self.per_module.get(fragment.module)
        if existing is None:
            self.per_module[fragment.module] = ModuleCoverage(
                fragment.module,
                fragment.total_paths,
                set(fragment.covered),
                fragment.truncated,
            )
        else:
            existing.covered |= fragment.covered
            existing.truncated = existing.truncated or fragment.truncated
            existing.total_paths = max(existing.total_paths, fragment.total_paths)

    @property
    def overall_percent(self) -> float:
        total = sum(m.total_paths for m in self.per_module.values())
        covered = sum(m.covered_paths for m in self.per_module.values())
        return 100.0 * covered / total if total else 0.0


def match_coverage(
    bundle: TraceBundle,
    conditions: list[PathCondition],
    g: Meg,
    instance_path: str | None = None,
    *,
    truncated: bool = False,
    skip_ids: set[str] | None = None,
    masks: TraceMasks | None = None,
) -> ModuleCoverage:
    """Evaluate which paths this run covered on instances of g's module.

    `skip_ids` lets a caller omit paths it already knows are covered; they
    are reported as covered without re-evaluation. `masks`, when given,
    are the prebuilt masks of `instance_path`'s trace, so a caller that
    already evaluated expressions on this run (the code-coverage probes)
    does not evaluate them again.
    """
    if masks is not None:
        traces = [masks]
    elif instance_path is not None:
        traces = [TraceMasks(bundle, instance_path)]
    else:
        wanted = {n.id for n in g.nodes.values() if n.kind is not NodeKind.INSTANCE}
        traces = [
            TraceMasks(bundle, path) for path in bundle.instances()
            if set(bundle.signal_names(path)) == wanted
        ]
    fragment = ModuleCoverage(g.module_name, len(conditions), truncated=truncated)
    for pc in conditions:
        if (skip_ids and pc.path_id in skip_ids) or any(
            match_steps(pc.steps, masks) for masks in traces
        ):
            fragment.covered.add(pc.path_id)
    return fragment


def replay_sva(
    sva_text: str, bundle: TraceBundle, instance_path: str
) -> dict[str, bool]:
    """Evaluate emitted property text against a trace: the reference route.

    Returns property-name -> covered verdict.
    """
    masks = TraceMasks(bundle, instance_path)
    return {
        name: match_steps(steps, masks)
        for name, steps in parse_sva(sva_text)
    }
