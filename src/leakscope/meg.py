"""Micro-event graph construction, path enumeration, and exports.

A micro-event graph has one node per declared signal plus one per
sub-instance. A directed edge (a, b) records that a change on `a` may
trigger a change on `b`: `a` is either an operand of an assignment to `b`
or a signal read by any branch condition guarding that assignment. Each
edge carries the disjunction of per-occurrence branch conjunctions and the
source lines that induced the dependency; parallel edges between the same
ordered pair are collapsed into that disjunction so path enumeration does
not explode with the number of guarding conditions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .errors import LeakscopeError, PathNotInGraph
from .hdl_ast import (
    AlwaysBlock,
    AlwaysTrigger,
    Assign,
    Binary,
    Case,
    ContinuousAssign,
    If,
    ModuleAst,
    SignalKind,
    SourceLoc,
    expr_signals,
    render_expr,
    walk_stmts,
)
from .parser import CLOCK_NAME


class NodeKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    SEQUENTIAL = "sequential"
    COMBINATIONAL = "combinational"
    INSTANCE = "instance"


@dataclass(frozen=True, slots=True)
class MegNode:
    id: str
    kind: NodeKind
    loc: SourceLoc
    # True when the signal is assigned under a clock edge. Output regs are
    # clocked without being SEQUENTIAL-kind: port kinds dominate the node
    # classification, but timing semantics follow this flag.
    clocked: bool = False


@dataclass(frozen=True, slots=True)
class ConditionTerm:
    expr: str
    loc: SourceLoc


# One clause = conjunction of branch terms guarding a single occurrence.
Clause = tuple[ConditionTerm, ...]


@dataclass(frozen=True, slots=True)
class MegEdge:
    src: str
    dst: str
    clauses: tuple[Clause, ...]  # empty tuple means unconditional
    lines: frozenset[int]
    locs: tuple[SourceLoc, ...]

    @property
    def unconditional(self) -> bool:
        return not self.clauses


@dataclass
class Meg:
    module_name: str
    nodes: dict[str, MegNode] = field(default_factory=dict)
    edges: dict[tuple[str, str], MegEdge] = field(default_factory=dict)
    # coverage.path_condition's steps per edge key, each stored with the
    # edge they were derived from. Not an init field, so a copy made with
    # dataclasses.replace starts with an empty cache of its own.
    edge_steps: dict[tuple[str, str], tuple[MegEdge, tuple]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def out_edges(self, node_id: str) -> list[MegEdge]:
        return [e for (src, _), e in self.edges.items() if src == node_id]

    def nodes_of_kind(self, kind: NodeKind) -> list[MegNode]:
        return [n for n in self.nodes.values() if n.kind is kind]


def render_clause(clause: Clause) -> str:
    return " && ".join(f"({term.expr})" for term in clause)


def render_condition(edge: MegEdge) -> str | None:
    """Single re-parseable boolean for an edge, or None if unconditional."""
    if edge.unconditional:
        return None
    if len(edge.clauses) == 1:
        return render_clause(edge.clauses[0])
    return " || ".join(f"({render_clause(c)})" for c in edge.clauses)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _negate(term: ConditionTerm) -> ConditionTerm:
    return ConditionTerm(f"!({term.expr})", term.loc)


def _clocked_signals(m: ModuleAst) -> set[str]:
    clocked: set[str] = set()
    for item in m.items:
        if isinstance(item, AlwaysBlock) and item.trigger is AlwaysTrigger.POSEDGE_CLOCK:
            for stmt in walk_stmts(item.body):
                if isinstance(stmt, Assign):
                    clocked.add(stmt.dest)
    return clocked


def build_meg(m: ModuleAst, modules: dict[str, ModuleAst]) -> Meg:
    """Extract the micro-event graph of one parsed module; `modules` holds
    the linked design's modules, whose ports give each instance binding
    its direction."""
    g = Meg(module_name=m.name)
    clocked = _clocked_signals(m)

    for decl in m.all_signals():
        if decl.kind is SignalKind.INPUT:
            kind = NodeKind.INPUT
        elif decl.kind is SignalKind.OUTPUT:
            kind = NodeKind.OUTPUT
        elif decl.name in clocked:
            kind = NodeKind.SEQUENTIAL
        else:
            kind = NodeKind.COMBINATIONAL
        g.nodes[decl.name] = MegNode(decl.name, kind, decl.loc, decl.name in clocked)
    for inst in m.instances:
        g.nodes[inst.instance_name] = MegNode(
            inst.instance_name, NodeKind.INSTANCE, inst.loc, False
        )

    # occurrences[(src, dst)] holds the edge's clauses by their expression
    # key and its locs, as dicts that keep one entry per key in first-seen
    # order, and whether any occurrence was unconditional.
    occurrences: dict[tuple[str, str], dict] = {}

    def note(src: str, dst: str, clause: Clause, loc: SourceLoc) -> None:
        if src == CLOCK_NAME:
            return
        slot = occurrences.get((src, dst))
        if slot is None:
            slot = occurrences[(src, dst)] = {"clauses": {}, "locs": {}, "unconditional": False}
        slot["locs"][loc] = None
        if not clause:
            slot["unconditional"] = True
        else:
            slot["clauses"].setdefault(tuple(term.expr for term in clause), clause)

    # Branch stack entries pair the rendered guard (what the edge carries)
    # with the signals it reads (the operands it adds), both derived once
    # per branch.
    def note_assignment(dest, rhs, stack, loc):
        clause = tuple(term for term, _ in stack)
        operands = expr_signals(rhs)
        for _, signals in stack:
            for s in signals:
                if s not in operands:
                    operands.append(s)
        for s in operands:
            note(s, dest, clause, loc)

    def walk(stmts, stack):
        for stmt in stmts:
            if isinstance(stmt, Assign):
                note_assignment(stmt.dest, stmt.expr, stack, stmt.loc)
            else:
                # A case arm's guard `subject == label` reads the subject's
                # signals. Only an if arm needs every earlier guard to fail;
                # the default needs every guard to fail, in both kinds.
                if isinstance(stmt, Case):
                    signals = expr_signals(stmt.subject)
                    guards = [(Binary("==", stmt.subject, arm.guard, arm.loc), signals)
                              for arm in stmt.arms]
                else:
                    guards = [(arm.guard, expr_signals(arm.guard)) for arm in stmt.arms]
                terms = [(ConditionTerm(render_expr(g), g.loc), signals) for g, signals in guards]
                failed = [(_negate(term), signals) for term, signals in terms]
                earlier = failed if isinstance(stmt, If) else []
                for k, arm in enumerate(stmt.arms):
                    walk(arm.body, stack + earlier[:k] + [terms[k]])
                if stmt.default:
                    walk(stmt.default, stack + failed)

    for item in m.items:
        if isinstance(item, ContinuousAssign):
            note_assignment(item.dest, item.expr, [], item.loc)
        elif isinstance(item, AlwaysBlock):
            walk(item.body, [])

    # Sub-instance ports: inputs feed the instance node, outputs leave it,
    # as the child declares them.
    for inst in m.instances:
        kinds = {port.name: port.kind for port in modules[inst.module_name].ports}
        for formal, actual in inst.port_map:
            if formal == CLOCK_NAME:
                continue
            if kinds[formal] is SignalKind.OUTPUT:
                note(inst.instance_name, actual.name, (), inst.loc)
            else:
                for s in expr_signals(actual):
                    note(s, inst.instance_name, (), inst.loc)

    for (src, dst), slot in occurrences.items():
        clauses = () if slot["unconditional"] else tuple(slot["clauses"].values())
        lines = frozenset(loc.line for loc in slot["locs"])
        g.edges[(src, dst)] = MegEdge(src, dst, clauses, lines, tuple(slot["locs"]))
    return g


def build_megs(modules: dict[str, ModuleAst]) -> dict[str, Meg]:
    return {name: build_meg(m, modules) for name, m in sorted(modules.items())}


# ---------------------------------------------------------------------------
# Micro-event paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MicroEventPath:
    edges: tuple[MegEdge, ...]

    @property
    def node_ids(self) -> tuple[str, ...]:
        return (self.edges[0].src,) + tuple(e.dst for e in self.edges)

    @property
    def id(self) -> str:
        return mep_id(self.node_ids)

    def __str__(self) -> str:
        return " -> ".join(self.node_ids)


def mep_id(node_ids: tuple[str, ...]) -> str:
    """The id of the path through `node_ids`: a stable hash over the node
    sequence plus the chosen clause index per edge; collapsed disjunctions
    always use the whole edge (-1)."""
    text = ">".join(node_ids) + "|" + ",".join(["-1"] * (len(node_ids) - 1))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class MepResult:
    paths: list[MicroEventPath]
    truncated: bool

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


DEFAULT_MAX_PATHS = 10_000
DEFAULT_MAX_LEN = 64


def enumerate_meps(
    g: Meg, max_paths: int = DEFAULT_MAX_PATHS, max_len: int = DEFAULT_MAX_LEN
) -> MepResult:
    """All simple input-to-output paths, DFS order with sorted adjacency,
    walked with an explicit stack, so a path may be as long as the graph.

    Self-edges are skipped. Enumeration stops after `max_paths` results
    (result flagged truncated; fewer than 1 is an error); paths longer than
    `max_len` edges are not explored (a negative `max_len` is an error).
    """
    if max_paths < 1:
        raise LeakscopeError(f"max paths must be at least 1, got {max_paths}")
    if max_len < 0:
        raise LeakscopeError(f"max length must be at least 0, got {max_len}")
    adjacency: dict[str, list[MegEdge]] = {}
    for (src, dst), edge in g.edges.items():
        if src == dst:
            continue
        adjacency.setdefault(src, []).append(edge)
    for edges in adjacency.values():
        edges.sort(key=lambda e: e.dst)

    inputs = sorted(n.id for n in g.nodes_of_kind(NodeKind.INPUT))
    result = MepResult(paths=[], truncated=False)
    output = NodeKind.OUTPUT
    for start in inputs:
        # One iterator of unexplored out-edges per node on the path; a node
        # `max_len` edges from the start gets none.
        path: list[MegEdge] = []
        visited = {start}
        stack = [iter(adjacency.get(start, ()) if max_len > 0 else ())]
        while stack:
            edge = next(stack[-1], None)
            if edge is None:
                stack.pop()
                if path:
                    visited.remove(path.pop().dst)
            elif edge.dst not in visited:
                visited.add(edge.dst)
                path.append(edge)
                if g.nodes[edge.dst].kind is output:
                    result.paths.append(MicroEventPath(tuple(path)))
                    if len(result.paths) >= max_paths:
                        result.truncated = True
                        return result
                stack.append(iter(adjacency.get(edge.dst, ()) if len(path) < max_len else ()))
    return result


def find_mep(g: Meg, node_ids: list[str] | tuple[str, ...]) -> MicroEventPath:
    """Build the path along the given node sequence, verifying every hop."""
    edges = []
    for a, b in zip(node_ids, node_ids[1:]):
        edge = g.edges.get((a, b))
        if edge is None:
            raise PathNotInGraph(f"no edge ({a} -> {b}) in MEG of {g.module_name!r}")
        edges.append(edge)
    if not edges:
        raise PathNotInGraph("a path needs at least one edge")
    return MicroEventPath(tuple(edges))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

_DOT_SHAPE = {
    NodeKind.INPUT: ("ellipse", "bold"),
    NodeKind.OUTPUT: ("doublecircle", "solid"),
    NodeKind.SEQUENTIAL: ("box", "solid"),
    NodeKind.COMBINATIONAL: ("ellipse", "solid"),
    NodeKind.INSTANCE: ("box", "dashed"),
}


def export_dot(g: Meg) -> str:
    """Render the graph as DOT. Instance nodes dashed, outputs doubled."""
    lines = [f'digraph "{g.module_name}" {{', "  rankdir=LR;"]
    for node in g.nodes.values():
        shape, style = _DOT_SHAPE[node.kind]
        lines.append(f'  "{node.id}" [shape={shape}, style={style}];')
    for (src, dst), edge in sorted(g.edges.items()):
        label = "L" + ",".join(str(n) for n in sorted(edge.lines))
        if edge.clauses:
            label = f"{len(edge.clauses)}c {label}"
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: Meg) -> dict:
    nodes = [
        {
            "id": n.id,
            "kind": n.kind.value,
            "loc": {"file": n.loc.file, "line": n.loc.line, "col": n.loc.col},
        }
        for n in g.nodes.values()
    ]
    edges = [
        {
            "from": src,
            "to": dst,
            "clauses": [
                [{"expr": term.expr, "line": term.loc.line} for term in clause]
                for clause in edge.clauses
            ],
            "lines": sorted(edge.lines),
        }
        for (src, dst), edge in sorted(g.edges.items())
    ]
    return {"module": g.module_name, "nodes": nodes, "edges": edges}
