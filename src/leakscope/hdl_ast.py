"""Typed AST for the HDL subset, plus canonical expression rendering.

Every node carries exactly one SourceLoc (1-based line/column). Rendering is
whitespace-normalized and fully parenthesized below the top level, so two
conditions are considered equal exactly when their rendered strings match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union


@dataclass(frozen=True, slots=True)
class SourceLoc:
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class SignalKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    WIRE = "wire"
    REG = "reg"


@dataclass(frozen=True, slots=True)
class SignalDecl:
    name: str
    kind: SignalKind
    width: int
    loc: SourceLoc
    # True for `reg` declarations and `output reg` ports: legal targets of
    # procedural assignment.
    is_reg: bool = False


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# The expression operators of the subset, the one place they are stated:
# the lexer scans them, the parser climbs this precedence table and
# render_expr parenthesizes by it. Lowest binds weakest, as in Verilog, and
# every binary operator is left-associative. Prefix operators bind tightest.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
}
PREFIX_OPS = frozenset({"~", "!", "-"})
_UNARY_PRECEDENCE = max(BINARY_PRECEDENCE.values()) + 1


@dataclass(frozen=True, slots=True)
class Num:
    value: int
    width: int  # 32 for unsized literals
    loc: SourceLoc
    sized: bool = False


@dataclass(frozen=True, slots=True)
class Ref:
    name: str
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class BitSelect:
    base: str
    index: "Expr"
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class PartSelect:
    base: str
    msb: int
    lsb: int
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: "Expr"
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"
    loc: SourceLoc


Expr = Union[Num, Ref, BitSelect, PartSelect, Unary, Binary, Ternary]


def render_expr(e: Expr, parent_prec: int = 0) -> str:
    """Render an expression canonically (stable spacing, minimal parens)."""
    if isinstance(e, Num):
        if e.sized:
            return f"{e.width}'d{e.value}"
        return str(e.value)
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, BitSelect):
        return f"{e.base}[{render_expr(e.index)}]"
    if isinstance(e, PartSelect):
        return f"{e.base}[{e.msb}:{e.lsb}]"
    if isinstance(e, Unary):
        inner = render_expr(e.operand, _UNARY_PRECEDENCE)
        return f"{e.op}{inner}"
    if isinstance(e, Binary):
        prec = BINARY_PRECEDENCE[e.op]
        # Left-associative: the right child needs parens at equal precedence.
        lhs = render_expr(e.lhs, prec)
        rhs = render_expr(e.rhs, prec + 1)
        text = f"{lhs} {e.op} {rhs}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, Ternary):
        text = (
            f"{render_expr(e.cond, 1)} ? {render_expr(e.then)} : {render_expr(e.other)}"
        )
        return f"({text})" if parent_prec > 0 else text
    raise TypeError(f"not an expression node: {e!r}")


def expr_signals(e: Expr) -> list[str]:
    """Signal names read by an expression, in first-occurrence order.

    Bit/part selects contribute the whole parent signal; a dynamic select
    index contributes its own operand signals as well.
    """
    out: list[str] = []
    seen: set[str] = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Ref):
            if node.name not in seen:
                seen.add(node.name)
                out.append(node.name)
        elif isinstance(node, (BitSelect, PartSelect)):
            if node.base not in seen:
                seen.add(node.base)
                out.append(node.base)
            if isinstance(node, BitSelect):
                visit(node.index)
        elif isinstance(node, Unary):
            visit(node.operand)
        elif isinstance(node, Binary):
            visit(node.lhs)
            visit(node.rhs)
        elif isinstance(node, Ternary):
            visit(node.cond)
            visit(node.then)
            visit(node.other)

    visit(e)
    return out


# ---------------------------------------------------------------------------
# Statements and module items
# ---------------------------------------------------------------------------

class AssignStyle(Enum):
    BLOCKING = "="
    NON_BLOCKING = "<="


@dataclass(frozen=True, slots=True)
class Assign:
    dest: str
    expr: Expr
    style: AssignStyle
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then: tuple["Stmt", ...]
    other: tuple["Stmt", ...]
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class CaseArm:
    match: Num
    body: tuple["Stmt", ...]
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class Case:
    subject: Expr
    arms: tuple[CaseArm, ...]
    default: tuple["Stmt", ...]
    loc: SourceLoc


Stmt = Union[Assign, If, Case]


class AlwaysTrigger(Enum):
    POSEDGE_CLOCK = "posedge"
    COMBINATIONAL = "star"


@dataclass(frozen=True, slots=True)
class ContinuousAssign:
    dest: str
    expr: Expr
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class AlwaysBlock:
    trigger: AlwaysTrigger
    body: tuple[Stmt, ...]
    loc: SourceLoc


ModuleItem = Union[ContinuousAssign, AlwaysBlock]


@dataclass(frozen=True, slots=True)
class InstanceDecl:
    instance_name: str
    module_name: str
    # (formal, actual expression) in source order
    port_map: tuple[tuple[str, Expr], ...]
    loc: SourceLoc


@dataclass
class ModuleAst:
    name: str
    ports: list[SignalDecl]
    decls: list[SignalDecl]  # non-port signals
    items: list[ModuleItem]
    instances: list[InstanceDecl]
    loc: SourceLoc = field(default=SourceLoc("<input>", 1, 1))

    def all_signals(self) -> list[SignalDecl]:
        return list(self.ports) + list(self.decls)

    def signal(self, name: str) -> SignalDecl:
        for decl in self.ports:
            if decl.name == name:
                return decl
        for decl in self.decls:
            if decl.name == name:
                return decl
        raise KeyError(name)


def walk_stmts(stmts: tuple[Stmt, ...] | list[Stmt]):
    """Yield every statement reachable from the given list, pre-order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.other)
        elif isinstance(stmt, Case):
            for arm in stmt.arms:
                yield from walk_stmts(arm.body)
            yield from walk_stmts(stmt.default)
