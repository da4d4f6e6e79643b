"""Typed AST for the HDL subset, the one walk of an expression tree
(`operands` and `fold`), and canonical expression rendering.

Every node carries exactly one SourceLoc (1-based line/column). Rendering is
whitespace-normalized and fully parenthesized below the top level, so two
conditions are considered equal exactly when their rendered strings match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, TypeVar, Union


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
_R = TypeVar("_R")


def operands(e: Expr) -> tuple[Expr, ...]:
    """The subexpressions of a node, left to right; a leaf has none."""
    t = type(e)
    if t is Binary:
        return e.lhs, e.rhs
    if t is Unary:
        return (e.operand,)
    if t is Ternary:
        return e.cond, e.then, e.other
    if t is BitSelect:
        return (e.index,)
    return ()


def fold(e: Expr, rule: Callable[[Expr, list[_R]], _R]) -> _R:
    """`rule(node, the values of its operands)` on every node of `e`,
    operands first, left to right, with explicit stacks: a tree of any
    depth folds without recursion."""
    order = []  # pre-order, operands right to left: reversed, the post-order
    stack = [e]
    while stack:
        node = stack.pop()
        subs = operands(node)
        order.append((node, len(subs)))
        stack.extend(subs)
    values: list[_R] = []
    for node, n in reversed(order):
        k = len(values) - n
        values[k:] = [rule(node, values[k:])]
    return values[0]


def _paren(sub: tuple[str, int], need: int) -> str:
    """A rendered operand, parenthesized if it binds weaker than `need`."""
    text, prec = sub
    return f"({text})" if prec < need else text


def _render(e: Expr, subs: list[tuple[str, int]]) -> tuple[str, int]:
    """A node's canonical text and how tightly it binds: a leaf or prefix
    operation never needs parentheses, a ternary always does."""
    t = type(e)
    if t is Binary:
        prec = BINARY_PRECEDENCE[e.op]
        # Left-associative: the right operand needs parens at equal precedence.
        return f"{_paren(subs[0], prec)} {e.op} {_paren(subs[1], prec + 1)}", prec
    if t is Ref:
        return e.name, _UNARY_PRECEDENCE
    if t is Num:
        return (f"{e.width}'d{e.value}" if e.sized else str(e.value)), _UNARY_PRECEDENCE
    if t is Unary:
        return f"{e.op}{_paren(subs[0], _UNARY_PRECEDENCE)}", _UNARY_PRECEDENCE
    if t is BitSelect:
        return f"{e.base}[{subs[0][0]}]", _UNARY_PRECEDENCE
    if t is PartSelect:
        return f"{e.base}[{e.msb}:{e.lsb}]", _UNARY_PRECEDENCE
    if t is Ternary:
        return f"{_paren(subs[0], 1)} ? {subs[1][0]} : {subs[2][0]}", 0
    raise TypeError(f"not an expression node: {e!r}")


def render_expr(e: Expr) -> str:
    """Render an expression canonically (stable spacing, minimal parens)."""
    return fold(e, _render)[0]


def expr_signals(e: Expr) -> list[str]:
    """Signal names read by an expression, in first-occurrence order, pre-order:
    a bit/part select contributes its whole signal, before the signals of a
    dynamic select index."""
    seen: dict[str, None] = {}
    stack = [e]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Ref:
            seen.setdefault(node.name)
        elif t is BitSelect or t is PartSelect:
            seen.setdefault(node.base)
        stack.extend(reversed(operands(node)))
    return list(seen)


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
class Arm:
    """An arm of an `if` chain, guarded by its condition, or of a `case`, by its label."""

    guard: Expr
    body: tuple["Stmt", ...]
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class If:
    arms: tuple[Arm, ...]
    default: tuple["Stmt", ...]
    loc: SourceLoc


@dataclass(frozen=True, slots=True)
class Case:
    subject: Expr
    arms: tuple[Arm, ...]
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
        if not isinstance(stmt, Assign):
            for arm in stmt.arms:
                yield from walk_stmts(arm.body)
            yield from walk_stmts(stmt.default)
