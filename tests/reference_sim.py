"""Naive reference simulator used as a differential oracle.

Interprets the AST directly every cycle (no code generation): recursive
expression evaluation with the same width algebra as the compiled engine,
a dict-based environment per instance, port connections applied inside the
settle fixpoint, blocking updates applied immediately, non-blocking updates
buffered per posedge and committed together. Deliberately slow and simple.
"""

from __future__ import annotations

from leakscope.design import DesignHierarchy
from leakscope.hdl_ast import (
    AlwaysBlock,
    AlwaysTrigger,
    Assign,
    AssignStyle,
    Binary,
    BitSelect,
    Case,
    ContinuousAssign,
    If,
    Num,
    PartSelect,
    Ref,
    SignalKind,
    Ternary,
    Unary,
)
from leakscope.parser import CLOCK_NAME, RESET_NAME
from leakscope.stimulus import Stimulus


def _mask(w: int) -> int:
    return (1 << w) - 1


def eval_expr(e, env: dict[str, int], widths: dict[str, int]) -> tuple[int, int]:
    """Return (value, width) with the subset's width algebra."""
    if isinstance(e, Num):
        return e.value, e.width
    if isinstance(e, Ref):
        return env[e.name], widths[e.name]
    if isinstance(e, BitSelect):
        idx, _ = eval_expr(e.index, env, widths)
        return (env[e.base] >> idx) & 1, 1
    if isinstance(e, PartSelect):
        w = e.msb - e.lsb + 1
        return (env[e.base] >> e.lsb) & _mask(w), w
    if isinstance(e, Unary):
        v, w = eval_expr(e.operand, env, widths)
        if e.op == "~":
            return _mask(w) ^ v, w
        if e.op == "!":
            return (0 if v else 1), 1
        if e.op == "-":
            return (-v) & _mask(w), w
        raise AssertionError(e.op)
    if isinstance(e, Binary):
        a, wa = eval_expr(e.lhs, env, widths)
        b, wb = eval_expr(e.rhs, env, widths)
        op = e.op
        if op == "==":
            return int(a == b), 1
        if op == "!=":
            return int(a != b), 1
        if op == "<":
            return int(a < b), 1
        if op == "<=":
            return int(a <= b), 1
        if op == ">":
            return int(a > b), 1
        if op == ">=":
            return int(a >= b), 1
        if op == "&&":
            return int(bool(a) and bool(b)), 1
        if op == "||":
            return int(bool(a) or bool(b)), 1
        w = max(wa, wb)
        if op == "+":
            return (a + b) & _mask(w), w
        if op == "-":
            return (a - b) & _mask(w), w
        if op == "&":
            return a & b, w
        if op == "|":
            return a | b, w
        if op == "^":
            return a ^ b, w
        if op == "<<":
            # Bits shifted to wa or past it are masked off, so clamping the
            # amount to wa is exact and keeps a huge amount from building a
            # huge int.
            return (a << min(b, wa)) & _mask(wa), wa
        if op == ">>":
            return a >> b, wa
        raise AssertionError(op)
    if isinstance(e, Ternary):
        c, _ = eval_expr(e.cond, env, widths)
        a, wa = eval_expr(e.then, env, widths)
        b, wb = eval_expr(e.other, env, widths)
        return (a if c else b), max(wa, wb)
    raise TypeError(e)


class _Inst:
    def __init__(self, path, module, parent):
        self.path = path
        self.module = module
        self.parent = parent
        self.widths = {d.name: d.width for d in module.all_signals()}
        self.env = {d.name: 0 for d in module.all_signals()}


def reference_simulate(
    h: DesignHierarchy,
    stim: Stimulus,
    *,
    cycles: int,
    reset_cycles: int = 2,
    init_values: dict[tuple[str, str], int] | None = None,
) -> dict[str, dict[str, list[int]]]:
    """Per-instance per-signal traces for a fixed number of cycles."""
    insts = {
        i.path: _Inst(i.path, h.modules[i.module_name], i.parent) for i in h.instances
    }
    decls = {i.path: h.instances[k].decl for k, i in enumerate(insts.values())}
    for inst in insts.values():
        if CLOCK_NAME in inst.env:
            inst.env[CLOCK_NAME] = 1
    if init_values:
        for (path, name), value in init_values.items():
            insts[path].env[name] = value

    def assign(inst: _Inst, dest: str, value: int) -> None:
        inst.env[dest] = value & _mask(inst.widths[dest])

    def run_comb_once() -> bool:
        changed = False
        for inst in insts.values():
            for item in inst.module.items:
                if isinstance(item, ContinuousAssign):
                    v, _ = eval_expr(item.expr, inst.env, inst.widths)
                    v &= _mask(inst.widths[item.dest])
                    if inst.env[item.dest] != v:
                        inst.env[item.dest] = v
                        changed = True
                elif isinstance(item, AlwaysBlock) and item.trigger is AlwaysTrigger.COMBINATIONAL:
                    before = dict(inst.env)
                    exec_stmts(inst, item.body, None)
                    if inst.env != before:
                        changed = True
        # port connections
        for path, inst in insts.items():
            decl = decls[path]
            if decl is None:
                continue
            parent = insts[inst.parent]
            child_ports = {p.name: p for p in inst.module.ports}
            for formal, actual in decl.port_map:
                if formal == CLOCK_NAME:
                    continue
                port = child_ports[formal]
                if port.kind is SignalKind.INPUT:
                    v, _ = eval_expr(actual, parent.env, parent.widths)
                    v &= _mask(port.width)
                    if inst.env[formal] != v:
                        inst.env[formal] = v
                        changed = True
                else:
                    v = inst.env[formal] & _mask(parent.widths[actual.name])
                    if parent.env[actual.name] != v:
                        parent.env[actual.name] = v
                        changed = True
        return changed

    def settle() -> None:
        for _ in range(2000):
            if not run_comb_once():
                return
        raise RuntimeError("reference simulator did not settle")

    def exec_stmts(inst: _Inst, stmts, nb: dict[str, int] | None) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                v, _ = eval_expr(stmt.expr, inst.env, inst.widths)
                if nb is not None and stmt.style is AssignStyle.NON_BLOCKING:
                    nb[stmt.dest] = v & _mask(inst.widths[stmt.dest])
                else:
                    assign(inst, stmt.dest, v)
            elif isinstance(stmt, If):
                for arm in stmt.arms:
                    if eval_expr(arm.guard, inst.env, inst.widths)[0]:
                        exec_stmts(inst, arm.body, nb)
                        break
                else:
                    exec_stmts(inst, stmt.default, nb)
            elif isinstance(stmt, Case):
                subject, _ = eval_expr(stmt.subject, inst.env, inst.widths)
                for arm in stmt.arms:
                    if subject == arm.guard.value:
                        exec_stmts(inst, arm.body, nb)
                        break
                else:
                    exec_stmts(inst, stmt.default, nb)

    def posedge() -> None:
        commits: list[tuple[_Inst, dict[str, int]]] = []
        for inst in insts.values():
            nb: dict[str, int] = {}
            for item in inst.module.items:
                if isinstance(item, AlwaysBlock) and item.trigger is AlwaysTrigger.POSEDGE_CLOCK:
                    exec_stmts(inst, item.body, nb)
            commits.append((inst, nb))
        for inst, nb in commits:
            for name, value in nb.items():
                inst.env[name] = value

    # input schedule like the engine's: rst high then low, steps afterwards
    schedule: dict[int, dict[str, int]] = {}
    top = insts[h.top]
    if RESET_NAME in top.env:
        top.env[RESET_NAME] = 1
        schedule.setdefault(reset_cycles, {})[RESET_NAME] = 0
    cursor = reset_cycles + 1
    for step in stim.steps:
        schedule.setdefault(cursor, {}).update(step.assignments())
        cursor += step.hold

    traces: dict[str, dict[str, list[int]]] = {
        path: {name: [] for name in inst.env} for path, inst in insts.items()
    }
    for cycle in range(cycles):
        if cycle > 0:
            posedge()
        for name, value in schedule.get(cycle, {}).items():
            top.env[name] = value & _mask(top.widths[name])
        settle()
        for path, inst in insts.items():
            for name, value in inst.env.items():
                traces[path][name].append(value)
    return traces
