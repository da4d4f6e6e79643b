"""Design linking: module map, instance tree, levels, and AST export.

The instance tree is rooted at the top module; instance paths are dotted
names like ``cacheset.mem_call`` with the top module's name as the root.
Levels count depth from the top (top = 1), matching the bottom-up order the
leakage analyzer walks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError, PortMismatch, RecursiveInstantiation
from .hdl_ast import (
    AlwaysBlock,
    AlwaysTrigger,
    Assign,
    ContinuousAssign,
    If,
    InstanceDecl,
    ModuleAst,
    Ref,
    SignalKind,
    SourceLoc,
    render_expr,
    walk_stmts,
)
from .parser import parse_modules


@dataclass
class Instance:
    path: str
    module_name: str
    parent: str | None
    decl: InstanceDecl | None  # None for the top instance
    level: int


@dataclass
class DesignHierarchy:
    modules: dict[str, ModuleAst]
    top: str
    instances: list[Instance] = field(default_factory=list)

    def instance(self, path: str) -> Instance:
        for inst in self.instances:
            if inst.path == path:
                return inst
        raise KeyError(path)


def parse_design(
    sources: list[tuple[str, str]] | list[str],
    top: str | None = None,
) -> DesignHierarchy:
    """Parse and link a set of source texts into a resolved hierarchy.

    ``sources`` is a list of (filename, text) pairs; bare strings are
    accepted and named ``<input-N>``.
    """
    modules: dict[str, ModuleAst] = {}
    for index, source in enumerate(sources):
        if isinstance(source, str):
            file, text = f"<input-{index}>", source
        else:
            file, text = source
        for module in parse_modules(text, file):
            if module.name in modules:
                raise ParseError(
                    f"module {module.name!r} defined more than once",
                    module.loc.file, module.loc.line, module.loc.col,
                )
            modules[module.name] = module

    if not modules:
        raise ParseError("no modules found in input")

    _check_instantiations(modules)
    _check_drivers(modules)
    top_name = top or _infer_top(modules)
    if top_name not in modules:
        raise ParseError(f"top module {top_name!r} not found")
    _check_acyclic(modules, top_name)

    hierarchy = DesignHierarchy(modules=modules, top=top_name)
    _build_tree(hierarchy, top_name)
    return hierarchy


def _infer_top(modules: dict[str, ModuleAst]) -> str:
    instantiated = {
        inst.module_name for m in modules.values() for inst in m.instances
    }
    roots = [name for name in modules if name not in instantiated]
    if len(roots) != 1:
        raise ParseError(
            "cannot infer top module"
            + (f"; candidates: {', '.join(sorted(roots))}" if roots else "")
            + " (use --top)"
        )
    return roots[0]


def _check_instantiations(modules: dict[str, ModuleAst]) -> None:
    for m in modules.values():
        for inst in m.instances:
            child = modules.get(inst.module_name)
            loc = inst.loc
            if child is None:
                raise PortMismatch(
                    f"instance {inst.instance_name!r} refers to unknown module "
                    f"{inst.module_name!r}",
                    loc.file, loc.line, loc.col,
                )
            child_ports = {p.name: p for p in child.ports}
            bound = set()
            for formal, actual in inst.port_map:
                port = child_ports.get(formal)
                if port is None:
                    raise PortMismatch(
                        f"module {child.name!r} has no port {formal!r}",
                        loc.file, loc.line, loc.col,
                    )
                bound.add(formal)
                if port.kind is SignalKind.OUTPUT:
                    if not isinstance(actual, Ref):
                        raise PortMismatch(
                            f"output port {formal!r} must be bound to a plain signal",
                            loc.file, loc.line, loc.col,
                        )
                    dest = m.signal(actual.name)
                    if dest.is_reg or dest.kind is SignalKind.INPUT:
                        raise PortMismatch(
                            f"output port {formal!r} drives {actual.name!r}, "
                            "which is not a wire",
                            loc.file, loc.line, loc.col,
                        )
            missing = set(child_ports) - bound
            if missing:
                raise PortMismatch(
                    f"instance {inst.instance_name!r} leaves ports unbound: "
                    f"{', '.join(sorted(missing))}",
                    loc.file, loc.line, loc.col,
                )


def _check_drivers(modules: dict[str, ModuleAst]) -> None:
    """Each signal has at most one combinational driver: a continuous
    assign, an always @(*) block or an instance output. A two-state subset
    has no resolution function for two, and settling relies on it: a pass
    then stores each signal at most once. Clocked blocks write outside
    settling and do not count."""
    for m in modules.values():
        drivers: list[tuple[SourceLoc, str]] = []
        for item in m.items:
            if isinstance(item, ContinuousAssign):
                drivers.append((item.loc, item.dest))
            elif item.trigger is AlwaysTrigger.COMBINATIONAL:
                first: dict[str, SourceLoc] = {}
                for stmt in walk_stmts(item.body):
                    if isinstance(stmt, Assign):
                        first.setdefault(stmt.dest, stmt.loc)
                drivers += [(loc, name) for name, loc in first.items()]
        for inst in m.instances:
            child = modules[inst.module_name]
            outputs = {p.name for p in child.ports if p.kind is SignalKind.OUTPUT}
            drivers += [(a.loc, a.name) for formal, a in inst.port_map if formal in outputs]
        driven: dict[str, SourceLoc] = {}
        for loc, name in sorted(drivers, key=lambda d: (d[0].line, d[0].col)):
            if name in driven:
                raise ParseError(
                    f"{name!r} has a second combinational driver; the first is on line "
                    f"{driven[name].line}",
                    loc.file, loc.line, loc.col,
                )
            driven[name] = loc


def _check_acyclic(modules: dict[str, ModuleAst], top: str) -> None:
    """Depth-first over module instantiations, with an explicit stack, so
    a deep hierarchy needs no Python recursion."""
    state: dict[str, int] = {top: 1}  # 1 = on the path, 2 = done
    path = [top]
    pending = [iter(modules[top].instances)]  # per module on the path
    while pending:
        for inst in pending[-1]:
            child = inst.module_name
            if state.get(child) == 1:
                raise RecursiveInstantiation(path[path.index(child):] + [child])
            if state.get(child) != 2:
                state[child] = 1
                path.append(child)
                pending.append(iter(modules[child].instances))
                break
        else:
            state[path.pop()] = 2
            pending.pop()


def _build_tree(h: DesignHierarchy, top: str) -> None:
    """Append every instance to `h.instances` in depth-first preorder, each
    parent's children in declaration order."""
    stack = [(top, top, None, None, 1)]
    while stack:
        path, module_name, parent, decl, level = stack.pop()
        h.instances.append(Instance(path, module_name, parent, decl, level))
        for inst in reversed(h.modules[module_name].instances):
            stack.append((f"{path}.{inst.instance_name}", inst.module_name, path, inst, level + 1))


def levelize(h: DesignHierarchy) -> list[list[str]]:
    """Instance paths grouped by level, deepest group first.

    Within a group paths are sorted lexicographically so reports are stable.
    Concatenated, the groups form a leaves-to-root topological order.
    """
    by_level: dict[int, list[str]] = {}
    for inst in h.instances:
        by_level.setdefault(inst.level, []).append(inst.path)
    return [sorted(by_level[lvl]) for lvl in sorted(by_level, reverse=True)]


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def _loc_json(loc: SourceLoc) -> dict:
    return {"file": loc.file, "line": loc.line, "col": loc.col}


def _stmt_json(stmt) -> dict:
    if isinstance(stmt, Assign):
        return {
            "stmt": "assign",
            "dest": stmt.dest,
            "expr": render_expr(stmt.expr),
            "style": "nonblocking" if stmt.style.value == "<=" else "blocking",
            "loc": _loc_json(stmt.loc),
        }
    # An if chain or a case: each arm with its guard, then the default.
    if isinstance(stmt, If):
        doc, key = {"stmt": "if"}, "cond"
    else:
        doc, key = {"stmt": "case", "subject": render_expr(stmt.subject)}, "match"
    doc["arms"] = [
        {key: render_expr(arm.guard), "body": [_stmt_json(s) for s in arm.body],
         "loc": _loc_json(arm.loc)}
        for arm in stmt.arms
    ]
    doc["default"] = [_stmt_json(s) for s in stmt.default]
    doc["loc"] = _loc_json(stmt.loc)
    return doc


def ast_to_json(h: DesignHierarchy) -> str:
    """Stable JSON dump of every parsed module plus the instance tree."""
    doc: dict = {"top": h.top, "modules": [], "instances": []}
    for name in sorted(h.modules):
        m = h.modules[name]
        signals = [
            {
                "name": d.name,
                "kind": d.kind.value,
                "width": d.width,
                "loc": _loc_json(d.loc),
            }
            for d in m.all_signals()
        ]
        items = []
        for item in m.items:
            if isinstance(item, ContinuousAssign):
                items.append(
                    {
                        "item": "assign",
                        "dest": item.dest,
                        "expr": render_expr(item.expr),
                        "loc": _loc_json(item.loc),
                    }
                )
            elif isinstance(item, AlwaysBlock):
                items.append(
                    {
                        "item": "always",
                        "trigger": item.trigger.value,
                        "body": [_stmt_json(s) for s in item.body],
                        "loc": _loc_json(item.loc),
                    }
                )
        instances = [
            {
                "name": inst.instance_name,
                "module": inst.module_name,
                "ports": {f: render_expr(a) for f, a in inst.port_map},
                "loc": _loc_json(inst.loc),
            }
            for inst in m.instances
        ]
        doc["modules"].append(
            {"name": m.name, "signals": signals, "items": items, "instances": instances}
        )
    for inst in h.instances:
        doc["instances"].append(
            {"path": inst.path, "module": inst.module_name, "level": inst.level}
        )
    return json.dumps(doc, indent=2)
