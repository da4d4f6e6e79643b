"""Independent oracles the test suite checks the implementation against.

Each oracle re-derives a result by a deliberately different route than the
implementation: the edge oracle walks statements with explicit condition
accumulation and real port directions; the path oracle extends node
sequences over all candidate nodes and filters by edge existence, and
the path enumeration oracle recurses once per node on the path instead of
walking an explicit stack; the alignment oracle tries every start cycle and every Eventually advance with
no memoization or ordering heuristics; the trace evaluator interprets
expression ASTs with the reference simulator's evaluator, one cycle at a
time, instead of compiling them into per-trace bitmasks; the SVA sequence
tokenizer walks the whole sequence character by character instead of
cutting it at delay operators first; the stop-rule oracle reads the run
length off full-length reference traces instead of deciding it cycle by
cycle; the VCD writer oracle dumps every signal of every cycle from the
per-signal traces instead of skipping repeated rows; the VCD loader oracle
reads line by line, sorts every value change by time and replays them one
at a time into per-signal columns, instead of tokenizing the text into
timestamp blocks and building shared rows; the trace oracle slices and
transposes every row instead of only the distinct ones; the tokenizer
oracle walks the source one character at a time instead of scanning it
with one pattern; the expression oracle recurses once per precedence level
and per prefix operator instead of climbing one operator table in a loop;
the path-condition oracle derives every edge's steps afresh on every path
instead of once per graph; the SVA emitter oracle builds each property's
token list and then places the fillers, instead of writing the sequence
straight from the steps; the SVA reader oracles cut the text with
str.splitlines and strip and match each line on its own, and check or read
every property line in full, instead of reading all lines with one pattern
and each distinct sequence once.
"""

from __future__ import annotations

import logging
import re

from itertools import groupby
from operator import itemgetter

from leakscope.coverage import (
    ConditionStep,
    PathCondition,
    StepKind,
    _delay_cycles,
    _delay_problem,
    _split_sva_seq,
)
from leakscope.design import DesignHierarchy
from leakscope.errors import (
    ClockNotFound,
    ParseError,
    PathNotInGraph,
    UnknownScope,
    UnsupportedConstruct,
    VcdParseError,
)
from leakscope.hdl_ast import (
    AlwaysBlock,
    Assign,
    Binary,
    BitSelect,
    Case,
    ContinuousAssign,
    Expr,
    If,
    Num,
    PartSelect,
    Ref,
    SignalKind,
    Ternary,
    Unary,
    expr_signals,
)
from leakscope.lexer import _KEYWORDS, _REJECTED_KEYWORDS, T, Token, parse_number
from leakscope.meg import Meg, MegEdge, MepResult, MicroEventPath, NodeKind, render_condition
from leakscope.parser import CLOCK_NAME, _Parser, parse_expression
from leakscope.simulator import TraceBundle
from leakscope.vcd import MAX_VCD_WIDTH
from reference_sim import eval_expr


def oracle_edges(h: DesignHierarchy, module_name: str) -> set[tuple[str, str, frozenset[int]]]:
    """Naive re-extraction of the dependency edges of one module.

    Returns {(src, dst, lines)} with the same collapsing rule as the
    implementation: one entry per ordered pair, lines unioned.
    """
    m = h.modules[module_name]
    raw: dict[tuple[str, str], set[int]] = {}

    def note(src: str, dst: str, line: int) -> None:
        if src == CLOCK_NAME:
            return
        raw.setdefault((src, dst), set()).add(line)

    def operands_of(expr) -> list[str]:
        return expr_signals(expr)

    # Iterative walk with an explicit stack of enclosing condition signals.
    def walk_block(stmts, cond_signals: list[str]):
        for stmt in stmts:
            if isinstance(stmt, Assign):
                for src in operands_of(stmt.expr) + cond_signals:
                    note(src, stmt.dest, stmt.loc.line)
            elif isinstance(stmt, If):
                # An arm is reached through every earlier arm's condition.
                inner = cond_signals
                for arm in stmt.arms:
                    inner = inner + operands_of(arm.guard)
                    walk_block(arm.body, inner)
                walk_block(stmt.default, inner)
            elif isinstance(stmt, Case):
                inner = cond_signals + operands_of(stmt.subject)
                for arm in stmt.arms:
                    walk_block(arm.body, inner)
                walk_block(stmt.default, inner)

    for item in m.items:
        if isinstance(item, ContinuousAssign):
            for src in operands_of(item.expr):
                note(src, item.dest, item.loc.line)
        elif isinstance(item, AlwaysBlock):
            walk_block(item.body, [])

    # Instance ports with true directions from the linked design.
    for inst in m.instances:
        child = h.modules[inst.module_name]
        directions = {p.name: p.kind for p in child.ports}
        for formal, actual in inst.port_map:
            if formal == CLOCK_NAME:
                continue
            if directions[formal] is SignalKind.OUTPUT:
                note(inst.instance_name, actual.name, inst.loc.line)
            else:
                for src in operands_of(actual):
                    note(src, inst.instance_name, inst.loc.line)

    return {(src, dst, frozenset(lines)) for (src, dst), lines in raw.items()}


def oracle_simple_paths(
    input_nodes: set[str],
    output_nodes: set[str],
    all_nodes: set[str],
    edges: set[tuple[str, str]],
    max_len: int = 64,
) -> set[tuple[str, ...]]:
    """All simple input-to-output node sequences, filtered by edge existence."""
    found: set[tuple[str, ...]] = set()

    def extend(seq: list[str]) -> None:
        last = seq[-1]
        if len(seq) >= 2 and last in output_nodes:
            found.add(tuple(seq))
        if len(seq) - 1 >= max_len:
            return
        for candidate in all_nodes:
            if candidate in seq:
                continue
            if (last, candidate) in edges and last != candidate:
                extend(seq + [candidate])

    for start in input_nodes:
        extend([start])
    return found


def oracle_enumerate_meps(g: Meg, max_paths: int = 10_000, max_len: int = 64) -> MepResult:
    """`enumerate_meps` as it was written before it walked with an explicit
    stack: one recursive call per node on the path."""
    adjacency: dict[str, list[MegEdge]] = {}
    for (src, dst), edge in g.edges.items():
        if src == dst:
            continue
        adjacency.setdefault(src, []).append(edge)
    for edges in adjacency.values():
        edges.sort(key=lambda e: e.dst)

    inputs = sorted(n.id for n in g.nodes_of_kind(NodeKind.INPUT))
    result = MepResult(paths=[], truncated=False)
    path: list[MegEdge] = []
    visited: set[str] = set()

    def dfs(node: str) -> bool:
        if path and g.nodes[node].kind is NodeKind.OUTPUT:
            result.paths.append(MicroEventPath(tuple(path)))
            if len(result.paths) >= max_paths:
                result.truncated = True
                return False
        if len(path) >= max_len:
            return True
        for edge in adjacency.get(node, ()):
            if edge.dst in visited:
                continue
            visited.add(edge.dst)
            path.append(edge)
            alive = dfs(edge.dst)
            path.pop()
            visited.remove(edge.dst)
            if not alive:
                return False
        return True

    for start in inputs:
        visited = {start}
        if not dfs(start):
            break
    return result


def oracle_path_condition(p: MicroEventPath, g: Meg) -> PathCondition:
    """Ordered condition steps for one path, every edge's steps derived
    anew from the edge and its end nodes on each call."""
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


def oracle_match(steps, evaluate, cycles: int) -> bool:
    """Exhaustive alignment search over every start cycle and every
    Eventually advance; same boundary rule as the implementation (each
    step, including a trailing OneCycle landing, needs a recorded cycle)."""
    from leakscope.coverage import StepKind

    def rec(idx: int, t: int) -> bool:
        if t >= cycles:
            return False
        if idx == len(steps):
            return True
        step = steps[idx]
        if step.kind is StepKind.BRANCH:
            return bool(evaluate(step.expr, t)) and rec(idx + 1, t)
        if step.kind is StepKind.ONE_CYCLE:
            return rec(idx + 1, t + 1)
        return any(rec(idx + 1, u) for u in range(cycles - 1, t - 1, -1))

    return any(rec(0, t0) for t0 in range(cycles))


_SVA_DELAY = re.compile(r"##(\d+|\[0:\$\])")


def oracle_split_sva_seq(seq: str) -> list[str]:
    """Tokenize a property sequence into booleans and delay operators one
    character at a time: a delay operator where one starts, a balanced
    parenthesized group (delays inside it included), else a bare term up to
    whitespace or '#'. A '#' that starts no delay is an error."""
    tokens: list[str] = []
    i = 0
    n = len(seq)
    while i < n:
        ch = seq[i]
        if ch.isspace():
            i += 1
            continue
        m = _SVA_DELAY.match(seq, i)
        if m:
            tokens.append(m.group(0))
            i = m.end()
            continue
        if ch == "(":
            depth = 0
            j = i
            while j < n:
                if seq[j] == "(":
                    depth += 1
                elif seq[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise ValueError("unbalanced parentheses in sequence")
            tokens.append(seq[i:j + 1])
            i = j + 1
            continue
        j = i
        while j < n and not seq[j].isspace() and seq[j] != "#":
            j += 1
        if j == i:
            raise ValueError("stray '#' outside a delay operator")
        tokens.append(seq[i:j])
        i = j
    return tokens


def oracle_emit_sva(pc: PathCondition, module: str | None = None) -> str:
    """One property: the steps' tokens first, then a literal-true term
    before a delay that follows none and at the end after a delay, and
    `##0` between adjacent booleans. Warns on a path with no steps."""
    module = module or pc.module
    tokens = [
        f"({step.expr})" if step.kind is StepKind.BRANCH else step.kind.value
        for step in pc.steps
    ]
    if not tokens:
        logging.getLogger(__name__).warning(
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
            seq.append("##0")
        seq.append(token)
        expect_bool = is_delay
    if expect_bool:
        seq.append("1'b1")
    comment = " -> ".join(pc.node_ids)
    return (
        f"// {comment}\n"
        f"cp_{module}_{pc.path_id}: cover property (@(posedge clk) {' '.join(seq)});"
    )


def oracle_emit_sva_file(conditions: list[PathCondition], module: str) -> str:
    header = f"// cover properties for module {module}: {len(conditions)} paths\n"
    return header + "\n".join(oracle_emit_sva(pc, module) for pc in conditions) + "\n"


_ORACLE_SVA_RE = re.compile(
    r"^(?P<name>[A-Za-z_]\w*)\s*:\s*cover\s+property\s*\(\s*"
    r"@\(posedge\s+clk\)\s*(?P<seq>.*)\)\s*;\s*$"
)


def oracle_read_properties(text: str):
    """Yield (line number, name, tokens, problem) per property line, one
    stripped line of str.splitlines() at a time; blank and comment lines
    are skipped, and a line outside the subset says why in `problem`."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        m = _ORACLE_SVA_RE.match(stripped)
        if not m:
            yield lineno, None, None, "not a cover property in the subset"
            continue
        try:
            tokens = _split_sva_seq(m.group("seq"), {})
        except ValueError as exc:
            yield lineno, None, None, str(exc)
            continue
        yield lineno, m.group("name"), tokens, None


def oracle_sva_lint(text: str) -> list[str]:
    """The problems of SVA text, every property line checked in full."""
    problems: list[str] = []
    for lineno, _, tokens, problem in oracle_read_properties(text):
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
            if is_delay:
                problem = _delay_problem(token)
                if problem:
                    problems.append(f"line {lineno}: {problem}")
                    break
            else:
                try:
                    parse_expression(token)
                except Exception as exc:
                    problems.append(f"line {lineno}: unparseable boolean {token!r}: {exc}")
                    break
            expect_bool = is_delay
        else:
            if expect_bool and tokens:
                problems.append(f"line {lineno}: sequence ends on a delay")
    return problems


def oracle_parse_sva(text: str) -> list[tuple[str, tuple[ConditionStep, ...]]]:
    """(name, steps) per property line, each built afresh; raises
    ValueError at the first line outside the subset."""
    out = []
    for lineno, name, tokens, problem in oracle_read_properties(text):
        if problem:
            raise ValueError(f"line {lineno}: {problem}")
        steps: list[ConditionStep] = []
        for token in tokens:
            if token == "##[0:$]":
                steps.append(ConditionStep(StepKind.EVENTUALLY))
            elif token.startswith("##"):
                problem = _delay_problem(token)
                if problem:
                    raise ValueError(f"line {lineno}: {problem}")
                steps += [ConditionStep(StepKind.ONE_CYCLE)] * _delay_cycles(token)
            else:
                expr = token[1:-1] if token.startswith("(") else token
                steps.append(ConditionStep(StepKind.BRANCH, expr=expr))
        out.append((name, tuple(steps)))
    return out


def trace_evaluator(bundle, path: str):
    """`evaluate(expr, t)`: the value of a boolean at cycle t of one
    instance trace, by AST interpretation. `evaluate.cycles` is the trace
    length."""
    trace = bundle.trace(path)
    widths = dict(zip(bundle.signal_names(path), bundle.signal_widths(path)))
    envs = [
        {name: values[t] for name, values in trace.signal_values.items()}
        for t in range(trace.cycles)
    ]
    trees: dict = {}

    def evaluate(expr: str, t: int) -> int:
        if expr not in trees:
            trees[expr] = parse_expression(expr)
        return eval_expr(trees[expr], envs[t], widths)[0]

    evaluate.cycles = trace.cycles
    return evaluate


def oracle_code_items(probes, bundle, path: str) -> set[str]:
    """Code-coverage items by a per-cycle scan: a branch item when its
    expression holds at some cycle, an edge item when the destination
    toggles at a cycle t whose guard held at t (t - 1 for a clocked
    destination)."""
    evaluate = trace_evaluator(bundle, path)
    signals = bundle.trace(path).signal_values
    cycles = evaluate.cycles
    items: set[str] = set()

    for item, expr in probes.branches:
        if any(evaluate(expr, t) for t in range(cycles)):
            items.add(item)

    for item, src, dst, cond, clocked in probes.edges:
        if dst not in signals:
            continue
        series = signals[dst]
        toggles = [t for t in range(1, cycles) if series[t] != series[t - 1]]
        if not toggles:
            continue
        if cond is None:
            items.add(item)
            continue
        for t in toggles:
            guard_t = t - 1 if clocked else t
            if guard_t >= 0 and evaluate(cond, guard_t):
                items.add(item)
                break
    return items


_DOT_ID = r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*'
_DOT_NODE = re.compile(rf"^({_DOT_ID})\s*\[[^\]]*\];$")
_DOT_EDGE = re.compile(rf"^({_DOT_ID})\s*->\s*({_DOT_ID})\s*(\[[^\]]*\])?;$")
_DOT_ATTR = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\s*=\s*[^;]+;$")


def validate_dot(text: str) -> list[str]:
    """Syntax check for the DOT digraph subset the exporter emits."""
    problems = []
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or not re.match(rf"^digraph\s+({_DOT_ID})\s*\{{$", lines[0]):
        problems.append("missing digraph header")
        return problems
    if lines[-1] != "}":
        problems.append("missing closing brace")
        return problems
    for lineno, line in enumerate(lines[1:-1], start=2):
        if not line:
            continue
        if _DOT_NODE.match(line) or _DOT_EDGE.match(line) or _DOT_ATTR.match(line):
            continue
        problems.append(f"line {lineno}: not a node/edge/attr statement: {line!r}")
    return problems


def depth_by_tree_walk(h: DesignHierarchy) -> dict[str, int]:
    """Instance depths recomputed by a plain parent-chain walk."""
    parent = {inst.path: inst.parent for inst in h.instances}
    depths = {}
    for path in parent:
        depth = 1
        cursor = parent[path]
        while cursor is not None:
            depth += 1
            cursor = parent[cursor]
        depths[path] = depth
    return depths


def oracle_stop(
    rows: list[tuple[int, ...]],
    stimulus_end: int,
    *,
    max_cycles: int,
    quiescence_window: int,
) -> tuple[int, bool]:
    """(cycles, max_cycles_reached) by the documented stop rule, read off
    rows recorded for at least max_cycles cycles.

    A run stops once the stimulus is exhausted and nothing has toggled for
    quiescence_window cycles: after the first n cycles whose last
    quiescence_window cycles all lie at or after stimulus_end and each
    equal their predecessor. It stops at max_cycles, flagged, otherwise.
    """
    for n in range(1, max_cycles):
        quiet = range(n - quiescence_window, n)
        if n - quiescence_window >= stimulus_end and all(
            rows[c] == rows[c - 1] for c in quiet
        ):
            return n, False
    return max_cycles, True


def oracle_write_vcd(bundle) -> str:
    """The VCD text of a bundle, written cycle by cycle from its per-signal
    traces: every signal compared with its own previous value."""
    from leakscope.vcd import _id_code

    paths = bundle.instances()
    var_ids: dict[tuple[str, str], str] = {}
    counter = 0
    for path in paths:
        for name in bundle.signal_names(path):
            var_ids[(path, name)] = _id_code(counter)
            counter += 1

    out: list[str] = []
    out.append("$timescale 1ns $end")
    out.append(
        f"$comment leakscope start_cycle={bundle.start_cycle} "
        f"seed_id={bundle.seed_id} $end"
    )

    def scope_children(prefix: str) -> list[str]:
        depth = prefix.count(".") + 1 if prefix else 0
        return [
            p for p in paths
            if (p.startswith(prefix + ".") if prefix else True)
            and p.count(".") == depth
        ]

    def emit_scope(path: str) -> None:
        leaf = path.rsplit(".", 1)[-1]
        out.append(f"$scope module {leaf} $end")
        names = bundle.signal_names(path)
        widths = bundle.signal_widths(path)
        for name, width in zip(names, widths):
            out.append(f"$var wire {width} {var_ids[(path, name)]} {name} $end")
        for child in scope_children(path):
            emit_scope(child)
        out.append("$upscope $end")

    roots = scope_children("")
    for root in roots:
        emit_scope(root)
    out.append("$enddefinitions $end")

    top = roots[0] if roots else None
    clk_id = None
    if top is not None and CLOCK_NAME in bundle.signal_names(top):
        clk_id = var_ids[(top, CLOCK_NAME)]

    def value_change(path: str, name: str, width: int, value: int) -> str:
        code = var_ids[(path, name)]
        if width == 1:
            return f"{value}{code}"
        return f"b{value:b} {code}"

    previous: dict[tuple[str, str], int] = {}
    traces = {path: bundle.trace(path) for path in paths}
    widths = {
        path: dict(zip(bundle.signal_names(path), bundle.signal_widths(path)))
        for path in paths
    }
    for cycle in range(bundle.cycles):
        out.append(f"#{2 * cycle}")
        if cycle == 0:
            out.append("$dumpvars")
        for path in paths:
            for name, series in traces[path].signal_values.items():
                if (path, name) == (top, CLOCK_NAME):
                    continue
                value = series[cycle]
                if cycle == 0 or previous[(path, name)] != value:
                    out.append(value_change(path, name, widths[path][name], value))
                    previous[(path, name)] = value
        if clk_id is not None:
            out.append(f"1{clk_id}")
        if cycle == 0:
            out.append("$end")
        if clk_id is not None:
            out.append(f"#{2 * cycle + 1}")
            out.append(f"0{clk_id}")
    return "\n".join(out) + "\n"


class _Var:
    __slots__ = ("scope", "name", "width", "line")

    def __init__(self, scope: str, name: str, width: int, line: int):
        self.scope = scope
        self.name = name
        self.width = width
        self.line = line


def oracle_load_vcd(
    text: str,
    hierarchy_map: dict[str, str] | None = None,
    *,
    expect: DesignHierarchy | None = None,
) -> TraceBundle:
    """load_vcd line by line: every value change becomes a (time, code,
    raw) tuple, the tuples are stably sorted by time and replayed one
    by one, and the sampled values go through per-signal columns and
    TraceBundle.from_signal_values, which merges equal consecutive rows
    into one run."""
    vars_by_code: dict[str, list[_Var]] = {}
    scope_stack: list[str] = []
    changes: list[tuple[int, str, str]] = []  # (time, code, raw value)
    start_cycle = 0
    seed_id = "vcd"
    in_defs = True
    time = 0
    lineno = 0

    for raw_line in text.splitlines():
        lineno += 1
        line = raw_line.strip()
        if not line:
            continue
        if in_defs:
            if line.startswith("$scope"):
                parts = line.split()
                if len(parts) < 3 or parts[1] != "module":
                    raise VcdParseError(lineno, f"unsupported scope: {line!r}")
                scope_stack.append(parts[2])
            elif line.startswith("$upscope"):
                if not scope_stack:
                    raise VcdParseError(lineno, "unbalanced $upscope")
                scope_stack.pop()
            elif line.startswith("$var"):
                parts = line.split()
                if len(parts) < 5:
                    raise VcdParseError(lineno, f"malformed $var: {line!r}")
                if parts[1] not in ("wire", "reg"):
                    raise VcdParseError(lineno, f"unsupported var type {parts[1]!r}")
                try:
                    width = int(parts[2])
                except ValueError:
                    raise VcdParseError(lineno, f"bad width in {line!r}")
                if not 1 <= width <= MAX_VCD_WIDTH:
                    raise VcdParseError(lineno, f"width out of range in {line!r}")
                code = parts[3]
                name = parts[4]
                scope = ".".join(scope_stack)
                vars_by_code.setdefault(code, []).append(_Var(scope, name, width, lineno))
            elif line.startswith("$comment"):
                for field in line.split():
                    if field.startswith("start_cycle="):
                        try:
                            start_cycle = int(field.split("=", 1)[1])
                        except ValueError:
                            raise VcdParseError(lineno, f"bad start cycle {field!r}")
                    elif field.startswith("seed_id="):
                        seed_id = field.split("=", 1)[1]
            elif line.startswith("$enddefinitions"):
                in_defs = False
            elif line.startswith(("$timescale", "$date", "$version")):
                continue
            continue

        # Value-change section.
        lead = line[0]
        if lead in "01xXzZ":
            code = line[1:].strip()
            if code not in vars_by_code:
                raise VcdParseError(lineno, f"value change for undeclared id {code!r}")
            changes.append((time, code, lead))
        elif lead == "#":
            try:
                time = int(line[1:])
            except ValueError:
                raise VcdParseError(lineno, f"bad timestamp {line!r}")
        elif line.startswith(("$dumpvars", "$end", "$dumpall", "$dumpon", "$dumpoff")):
            continue
        elif lead in "bB":
            parts = line[1:].split()
            if len(parts) != 2:
                raise VcdParseError(lineno, f"malformed vector change {line!r}")
            if parts[0].strip("01xXzZ"):
                raise VcdParseError(lineno, f"bad vector value in {line!r}")
            if parts[1] not in vars_by_code:
                raise VcdParseError(lineno, f"value change for undeclared id {parts[1]!r}")
            changes.append((time, parts[1], parts[0]))
        else:
            raise VcdParseError(lineno, f"unsupported value change {line!r}")

    if in_defs and vars_by_code:
        raise VcdParseError(lineno, "missing $enddefinitions")

    # Designated clock: a var literally named clk, shallowest scope wins.
    clk_code = None
    clk_depth = None
    for code, vars_ in vars_by_code.items():
        for var in vars_:
            if var.name == CLOCK_NAME:
                depth = var.scope.count(".")
                if clk_depth is None or depth < clk_depth:
                    clk_code = code
                    clk_depth = depth
    if clk_code is None:
        raise ClockNotFound("no signal named 'clk' in VCD")
    if vars_by_code[clk_code][0].width != 1:
        raise VcdParseError(
            vars_by_code[clk_code][0].line, f"clock id {clk_code!r} must be declared 1 bit wide"
        )

    xz_counts: dict[tuple[str, str], int] = {}

    def decode(raw: str, width: int, codes: list[_Var]) -> int:
        cleaned = []
        had_xz = False
        for ch in raw:
            if ch in "xXzZ":
                cleaned.append("0")
                had_xz = True
            else:
                cleaned.append(ch)
        if had_xz:
            for var in codes:
                key = (var.scope, var.name)
                xz_counts[key] = xz_counts.get(key, 0) + 1
        value = int("".join(cleaned), 2)
        return value & ((1 << width) - 1)

    # Replay changes in time order; snapshot all values at each clk posedge.
    # A posedge with no other value change since the last snapshot reuses it.
    values: dict[str, int] = {code: 0 for code in vars_by_code}
    samples: list[dict[str, int]] = []
    changed = True
    clk_value = 0
    changes.sort(key=itemgetter(0))
    for _, batch in groupby(changes, key=itemgetter(0)):
        posedge = False
        for _, code, raw in batch:
            codes = vars_by_code[code]
            width = codes[0].width
            if raw == "0":
                value = 0
            elif raw == "1":
                value = 1 & ((1 << width) - 1)
            else:
                value = decode(raw, width, codes)
            if code == clk_code:
                if clk_value == 0 and value == 1:
                    posedge = True
                clk_value = value
            elif value != values[code]:
                changed = True
            values[code] = value
        if posedge:
            if changed:
                sample = dict(values)
                changed = False
            samples.append(sample)

    # Regroup per instance path.
    per_instance: dict[str, dict[str, list[int]]] = {}
    widths: dict[str, dict[str, int]] = {}
    for code, vars_ in vars_by_code.items():
        for var in vars_:
            scope = var.scope
            if hierarchy_map is not None:
                if scope not in hierarchy_map:
                    raise UnknownScope(f"VCD scope {scope!r} has no instance mapping")
                scope = hierarchy_map[scope]
            series = list(map(itemgetter(code), samples))
            per_instance.setdefault(scope, {})[var.name] = series
            widths.setdefault(scope, {})[var.name] = var.width

    warnings = [
        f"{scope}.{name}: {count} x/z value(s) mapped to 0"
        for (scope, name), count in sorted(xz_counts.items())
    ]
    if expect is not None:
        for inst in expect.instances:
            module = expect.modules[inst.module_name]
            present = per_instance.get(inst.path, {})
            for decl in module.all_signals():
                if decl.name not in present:
                    warnings.append(
                        f"{inst.path}.{decl.name}: absent from VCD, not invented"
                    )

    return TraceBundle.from_signal_values(
        per_instance, widths, start_cycle, seed_id=seed_id, warnings=tuple(warnings)
    )


def oracle_trace(bundle, path: str) -> dict[str, list[int]]:
    """Per-signal values of one instance: each run's row sliced, and each
    value appended once per cycle of its run."""
    layout = bundle._require(path)
    lo, hi, names = layout.lo, layout.hi, layout.signals.names
    values = {name: [] for name in names}
    ends = bundle._starts[1:] + [bundle.cycles]
    for start, row, end in zip(bundle._starts, bundle._rows, ends):
        for _ in range(start, end):
            for name, value in zip(names, row[lo:hi]):
                values[name].append(value)
    return values


def oracle_first_divergence(sv1: dict[str, list[int]], sv2: dict[str, list[int]]):
    """diagnose's phase 1 cycle by cycle over per-signal series: the
    signals that differ at the first cycle both traces record, else those
    that toggle in the longer trace's tail (at the common length), else
    None."""
    names = sorted(sv1)
    cycles1, cycles2 = len(next(iter(sv1.values()), [])), len(next(iter(sv2.values()), []))
    common = min(cycles1, cycles2)
    for cycle in range(common):
        differing = [n for n in names if sv1[n][cycle] != sv2[n][cycle]]
        if differing:
            return differing, cycle
    longer, cycles = (sv1, cycles1) if cycles1 > cycles2 else (sv2, cycles2)
    tail = [
        n for n in names
        if any(longer[n][c] != longer[n][c - 1] for c in range(max(common, 1), cycles))
    ]
    return (tail, common) if tail else None


# ---------------------------------------------------------------------------
# Front end: a character-by-character tokenizer and a parser that recurses
# once per precedence level, with its own copy of the operator levels.
# ---------------------------------------------------------------------------

_ORACLE_PUNCT = {
    "(": T.LPAREN, ")": T.RPAREN, "[": T.LBRACKET, "]": T.RBRACKET,
    ";": T.SEMI, ":": T.COLON, ",": T.COMMA, ".": T.DOT,
    "@": T.AT, "*": T.STAR, "?": T.QUESTION, "=": T.EQ,
}


def oracle_tokenize(text: str, file: str = "<input>") -> list[Token]:
    """Walk the text one character at a time, tracking line and column by
    hand, and try the two-character operators before the one-character
    ones."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(message: str) -> ParseError:
        return ParseError(message, file, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            for c in text[i:end + 2]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue

        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _REJECTED_KEYWORDS:
                raise UnsupportedConstruct(
                    f"construct {word!r} is outside the supported HDL subset",
                    file, line, col,
                )
            tokens.append(Token(_KEYWORDS.get(word, T.IDENT), word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "'" and i + 1 < n):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "'_"):
                j += 1
            tokens.append(Token(T.NUMBER, text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue

        two = text[i:i + 2]
        if two == "<=":
            kind, width = T.LE, 2
        elif two in ("==", "!=", ">=", "&&", "||", "<<", ">>"):
            kind, width = T.OP, 2
        elif ch in _ORACLE_PUNCT:
            kind, width = _ORACLE_PUNCT[ch], 1
        elif ch in "<>+-&|^~!":
            kind, width = T.OP, 1
        else:
            raise error(f"unexpected character {ch!r}")
        tokens.append(Token(kind, text[i:i + width], start_line, start_col))
        i += width
        col += width

    tokens.append(Token(T.EOF, "", line, col))
    return tokens


_ORACLE_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
]


class _LevelParser(_Parser):
    """The statement parser, with expressions read by one recursive
    function per precedence level and one call per prefix operator."""

    def parse_expr(self) -> Expr:
        cond = self.parse_binary(0)
        if self.eat_if(T.QUESTION):
            then = self.parse_expr()
            self.eat(T.COLON)
            other = self.parse_expr()
            return Ternary(cond, then, other, cond.loc)
        return cond

    def parse_binary(self, level: int) -> Expr:
        if level == len(_ORACLE_LEVELS):
            return self.parse_unary()
        lhs = self.parse_binary(level + 1)
        while True:
            tok = self.tok
            if tok.kind not in (T.OP, T.LE) or tok.text not in _ORACLE_LEVELS[level]:
                return lhs
            self.advance()
            rhs = self.parse_binary(level + 1)
            lhs = Binary(tok.text, lhs, rhs, self.loc(tok))

    def parse_unary(self) -> Expr:
        tok = self.tok
        if tok.kind is T.OP and tok.text in ("~", "!", "-"):
            self.advance()
            return Unary(tok.text, self.parse_unary(), self.loc(tok))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.tok
        if tok.kind is T.NUMBER:
            self.advance()
            value, width, sized = parse_number(tok, self.file)
            return Num(value, width, self.loc(tok), sized)
        if tok.kind is T.LPAREN:
            self.advance()
            inner = self.parse_expr()
            self.eat(T.RPAREN)
            return inner
        if tok.kind is T.IDENT:
            self.advance()
            if self.eat_if(T.LBRACKET):
                first = self.parse_expr()
                if self.eat_if(T.COLON):
                    lsb_tok = self.eat(T.NUMBER, "part-select lsb")
                    lsb, _, _ = parse_number(lsb_tok, self.file)
                    self.eat(T.RBRACKET)
                    if not isinstance(first, Num):
                        raise self.error("part-select bounds must be literals", tok)
                    if first.value < lsb:
                        raise self.error("part-select msb below lsb", tok)
                    return PartSelect(tok.text, first.value, lsb, self.loc(tok))
                self.eat(T.RBRACKET)
                return BitSelect(tok.text, first, self.loc(tok))
            return Ref(tok.text, self.loc(tok))
        raise self.error(f"unexpected {tok.text!r} in expression")


def oracle_parse_expression(text: str, file: str = "<expr>") -> Expr:
    p = _LevelParser(oracle_tokenize(text, file), file)
    expr = p.parse_expr()
    if not p.at(T.EOF):
        raise p.error("trailing input after expression")
    return expr


def oracle_parse_modules(text: str, file: str = "<input>") -> list:
    return _LevelParser(oracle_tokenize(text, file), file).parse_source()
