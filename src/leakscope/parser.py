"""Recursive-descent parser for the HDL subset.

Accepted per module: input/output/wire/reg declarations with [msb:0] widths,
continuous assigns, always @(posedge clk) and always @(*) blocks with
blocking/non-blocking assigns, if/else, case, module instantiation with named
port maps, and expressions over the operator subset (including ternary,
bit-select and part-select reads), with parentheses and select indices
nested at most MAX_NESTING deep and statements at most MAX_STMT_NESTING
deep. Everything else is rejected with a ParseError pointing at the
offending token.

The parser pulls its tokens from `lexer.scan` one at a time and holds only
the current one, so a file's tokens are garbage as soon as they are read.
On any error, `parse_modules` and `parse_expression` first drain the rest
of the scan: a scan error later in the text is reported in place of an
earlier parse or module-check error, as when the whole text was scanned
first. The token kinds are the lexer's module-level names (`IDENT`, not
`T.IDENT`), which a hot loop reads without an `Enum` attribute lookup.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ParseError, UnresolvedIdentifier
from .hdl_ast import (
    BINARY_PRECEDENCE,
    PREFIX_OPS,
    AlwaysBlock,
    AlwaysTrigger,
    Arm,
    Assign,
    AssignStyle,
    Binary,
    BitSelect,
    Case,
    ContinuousAssign,
    Expr,
    If,
    InstanceDecl,
    ModuleAst,
    Num,
    PartSelect,
    Ref,
    SignalDecl,
    SignalKind,
    SourceLoc,
    Ternary,
    Unary,
    expr_signals,
    walk_stmts,
)
from .lexer import (
    ALWAYS,
    ASSIGN,
    AT,
    BEGIN,
    CASE,
    COLON,
    COMMA,
    DEFAULT,
    DOT,
    ELSE,
    END,
    ENDCASE,
    ENDMODULE,
    EOF,
    EQ,
    IDENT,
    IF,
    INPUT,
    LBRACKET,
    LE,
    LPAREN,
    MODULE,
    NUMBER,
    OP,
    OUTPUT,
    POSEDGE,
    QUESTION,
    RBRACKET,
    REG,
    RPAREN,
    SEMI,
    STAR,
    WIRE,
    T,
    Token,
    parse_number,
    scan,
)

CLOCK_NAME = "clk"
RESET_NAME = "rst"

# How deep parentheses and select indices may nest, so that the parser's own
# recursion stays well inside Python's limit. It does not bound the height
# of a long operator or ternary chain: every walk after the parser keeps its
# own stack (`hdl_ast.fold`).
MAX_NESTING = 100
# How deep statements may nest, an always block's body being level one:
# codegen indents each level once, and CPython stops at 100 levels. An
# `else if` is one more arm of its chain, at the chain's level.
MAX_STMT_NESTING = 99


class _Parser:
    def __init__(self, tokens: Iterable[Token], file: str):
        self._next = iter(tokens).__next__
        self.tok = self._next()  # the current token; EOF is never stepped past
        self.file = file
        self.depth = 0  # of nested expressions, up to MAX_NESTING
        self.stmt_depth = 0  # of nested statements, up to MAX_STMT_NESTING

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        """Step past the current token and return it."""
        tok = self.tok
        self.tok = self._next()
        return tok

    def at(self, *kinds: T) -> bool:
        return self.tok.kind in kinds

    def eat(self, kind: T, what: str = "") -> Token:
        tok = self.tok
        if tok.kind is not kind:
            expected = what or kind.name.lower()
            raise self.error(f"expected {expected}, got {tok.text!r}", tok)
        self.tok = self._next()
        return tok

    def eat_if(self, kind: T) -> Token | None:
        if self.tok.kind is kind:
            return self.advance()
        return None

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.tok
        return ParseError(message, self.file, tok.line, tok.col)

    def loc(self, tok: Token) -> SourceLoc:
        return SourceLoc(self.file, tok.line, tok.col)

    # -- top level ----------------------------------------------------------

    def parse_source(self) -> list[ModuleAst]:
        modules = []
        while not self.at(EOF):
            modules.append(self.parse_module())
        return modules

    def parse_module(self) -> ModuleAst:
        mod_tok = self.eat(MODULE, "'module'")
        name = self.eat(IDENT, "module name").text
        ports: list[SignalDecl] = []
        if self.eat_if(LPAREN):
            if not self.at(RPAREN):
                ports.append(self.parse_port_decl())
                while self.eat_if(COMMA):
                    ports.append(self.parse_port_decl())
            self.eat(RPAREN)
        self.eat(SEMI)

        decls: list[SignalDecl] = []
        items: list = []
        instances: list[InstanceDecl] = []
        while not self.at(ENDMODULE):
            if self.at(WIRE, REG):
                decls.extend(self.parse_net_decl())
            elif self.at(ASSIGN):
                items.append(self.parse_continuous_assign())
            elif self.at(ALWAYS):
                items.append(self.parse_always())
            elif self.at(IDENT):
                instances.append(self.parse_instance())
            elif self.at(INPUT, OUTPUT):
                raise self.error("port declarations must appear in the module header")
            else:
                raise self.error(f"unexpected {self.tok.text!r} in module body")
        self.eat(ENDMODULE)

        module = ModuleAst(
            name=name,
            ports=ports,
            decls=decls,
            items=items,
            instances=instances,
            loc=self.loc(mod_tok),
        )
        _check_module(module, self.file)
        return module

    def parse_port_decl(self) -> SignalDecl:
        tok = self.tok
        if self.eat_if(INPUT):
            kind = SignalKind.INPUT
            is_reg = False
        elif self.eat_if(OUTPUT):
            kind = SignalKind.OUTPUT
            is_reg = bool(self.eat_if(REG))
        else:
            raise self.error("expected 'input' or 'output'")
        width = self.parse_width()
        name = self.eat(IDENT, "port name")
        return SignalDecl(name.text, kind, width, self.loc(name), is_reg=is_reg)

    def parse_width(self) -> int:
        if not self.eat_if(LBRACKET):
            return 1
        msb_tok = self.eat(NUMBER, "msb")
        msb, _, _ = parse_number(msb_tok, self.file)
        self.eat(COLON)
        lsb_tok = self.eat(NUMBER, "lsb")
        lsb, _, _ = parse_number(lsb_tok, self.file)
        if lsb != 0:
            raise self.error("only [msb:0] ranges are supported", lsb_tok)
        self.eat(RBRACKET)
        return msb + 1

    def parse_net_decl(self) -> list[SignalDecl]:
        if self.eat_if(WIRE):
            kind = SignalKind.WIRE
        else:
            self.eat(REG)
            kind = SignalKind.REG
        width = self.parse_width()
        is_reg = kind is SignalKind.REG
        decls = []
        name = self.eat(IDENT, "signal name")
        decls.append(SignalDecl(name.text, kind, width, self.loc(name), is_reg=is_reg))
        while self.eat_if(COMMA):
            name = self.eat(IDENT, "signal name")
            decls.append(SignalDecl(name.text, kind, width, self.loc(name), is_reg=is_reg))
        self.eat(SEMI)
        return decls

    def parse_continuous_assign(self) -> ContinuousAssign:
        tok = self.eat(ASSIGN)
        dest = self.eat(IDENT, "assignment target").text
        self.eat(EQ, "'='")
        expr = self.parse_expr()
        self.eat(SEMI)
        return ContinuousAssign(dest, expr, self.loc(tok))

    def parse_always(self) -> AlwaysBlock:
        tok = self.eat(ALWAYS)
        self.eat(AT, "'@'")
        self.eat(LPAREN)
        if self.eat_if(POSEDGE):
            clk = self.eat(IDENT, "clock name")
            if clk.text != CLOCK_NAME:
                raise self.error(
                    f"only 'posedge {CLOCK_NAME}' is supported as a trigger", clk
                )
            trigger = AlwaysTrigger.POSEDGE_CLOCK
        elif self.eat_if(STAR):
            trigger = AlwaysTrigger.COMBINATIONAL
        else:
            raise self.error("expected 'posedge clk' or '*' in sensitivity list")
        self.eat(RPAREN)
        body = self.parse_stmt_or_block()
        return AlwaysBlock(trigger, tuple(body), self.loc(tok))

    def parse_stmt_or_block(self) -> list:
        if self.stmt_depth == MAX_STMT_NESTING:
            raise self.error(f"statements nested deeper than {MAX_STMT_NESTING} levels")
        self.stmt_depth += 1
        if self.eat_if(BEGIN):
            stmts = []
            while not self.at(END):
                stmts.append(self.parse_stmt())
            self.eat(END)
        else:
            stmts = [self.parse_stmt()]
        self.stmt_depth -= 1
        return stmts

    def parse_stmt(self):
        tok = self.tok
        if tok.kind is IF:
            return self.parse_if()
        if tok.kind is CASE:
            return self.parse_case()
        if tok.kind is IDENT:
            dest = self.eat(IDENT)
            if self.eat_if(EQ):
                style = AssignStyle.BLOCKING
            elif self.eat_if(LE):
                style = AssignStyle.NON_BLOCKING
            else:
                raise self.error("expected '=' or '<=' after assignment target")
            expr = self.parse_expr()
            self.eat(SEMI)
            return Assign(dest.text, expr, style, self.loc(dest))
        raise self.error(f"unexpected {tok.text!r}; expected a statement")

    def parse_if(self) -> If:
        """An `if` and its `else if` arms, read in a loop. An else block that
        is exactly one `if` continues the chain, as `else if` does."""
        arms: list[Arm] = []
        while True:
            tok = self.eat(IF)
            self.eat(LPAREN)
            cond = self.parse_expr()
            self.eat(RPAREN)
            arms.append(Arm(cond, tuple(self.parse_stmt_or_block()), self.loc(tok)))
            if not self.eat_if(ELSE):
                return If(tuple(arms), (), arms[0].loc)
            if not self.at(IF):
                break
        default = self.parse_stmt_or_block()
        if len(default) == 1 and isinstance(default[0], If):
            arms += default[0].arms
            default = default[0].default
        return If(tuple(arms), tuple(default), arms[0].loc)

    def parse_case(self) -> Case:
        tok = self.eat(CASE)
        self.eat(LPAREN)
        subject = self.parse_expr()
        self.eat(RPAREN)
        arms: list[Arm] = []
        default: list = []
        saw_default = False
        while not self.at(ENDCASE):
            if self.eat_if(DEFAULT):
                if saw_default:
                    raise self.error("duplicate default arm")
                saw_default = True
                self.eat(COLON)
                default = self.parse_stmt_or_block()
                continue
            label = self.eat(NUMBER, "case label")
            value, width, sized = parse_number(label, self.file)
            self.eat(COLON)
            body = self.parse_stmt_or_block()
            guard = Num(value, width, self.loc(label), sized)
            arms.append(Arm(guard, tuple(body), guard.loc))
        self.eat(ENDCASE)
        return Case(subject, tuple(arms), tuple(default), self.loc(tok))

    def parse_instance(self) -> InstanceDecl:
        mod_tok = self.eat(IDENT)
        inst_tok = self.eat(IDENT, "instance name")
        self.eat(LPAREN)
        port_map: list[tuple[str, Expr]] = []
        if not self.at(RPAREN):
            port_map.append(self.parse_port_binding())
            while self.eat_if(COMMA):
                port_map.append(self.parse_port_binding())
        self.eat(RPAREN)
        self.eat(SEMI)
        return InstanceDecl(inst_tok.text, mod_tok.text, tuple(port_map), self.loc(inst_tok))

    def parse_port_binding(self) -> tuple[str, Expr]:
        if not self.at(DOT):
            raise self.error("only named port maps (.port(expr)) are supported")
        self.eat(DOT)
        formal = self.eat(IDENT, "port name").text
        self.eat(LPAREN)
        actual = self.parse_expr()
        self.eat(RPAREN)
        return formal, actual

    # -- expressions ---------------------------------------------------------
    # Ternary arms, binary chains and prefix runs are each read in a loop;
    # the parser recurses only into a parenthesis or a select index, and at
    # most MAX_NESTING deep.

    def parse_expr(self) -> Expr:
        # Each open ternary: its condition, and its then arm once read.
        open_: list[tuple[Expr, Expr | None]] = []
        while True:
            expr = self.parse_binary()
            if self.eat_if(QUESTION):
                open_.append((expr, None))
                continue
            while open_ and open_[-1][1] is not None:
                cond, then = open_.pop()
                expr = Ternary(cond, then, expr, cond.loc)
            if not open_:
                return expr
            self.eat(COLON)
            open_[-1] = (open_[-1][0], expr)

    def parse_nested(self, opener: Token) -> Expr:
        if self.depth == MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels", opener)
        self.depth += 1
        expr = self.parse_expr()
        self.depth -= 1
        return expr

    def parse_binary(self) -> Expr:
        operands = [self.parse_unary()]
        pending: list[tuple[int, Token]] = []  # operators, precedence ascending
        while True:
            tok = self.tok
            # Only OP and LE tokens carry an operator's text. Any other token
            # ends the chain, and its precedence 0 reduces every pending one.
            prec = BINARY_PRECEDENCE.get(tok.text, 0)
            while pending and pending[-1][0] >= prec:
                op = pending.pop()[1]
                rhs = operands.pop()
                operands[-1] = Binary(op.text, operands[-1], rhs, self.loc(op))
            if not prec:
                return operands[0]
            pending.append((prec, self.advance()))
            operands.append(self.parse_unary())

    def parse_unary(self) -> Expr:
        prefixes = []
        while self.tok.kind is OP and self.tok.text in PREFIX_OPS:
            prefixes.append(self.advance())
        expr = self.parse_primary()
        for tok in reversed(prefixes):
            expr = Unary(tok.text, expr, self.loc(tok))
        return expr

    def parse_primary(self) -> Expr:
        tok = self.tok
        if tok.kind is NUMBER:
            self.advance()
            value, width, sized = parse_number(tok, self.file)
            return Num(value, width, self.loc(tok), sized)
        if tok.kind is LPAREN:
            self.advance()
            inner = self.parse_nested(tok)
            self.eat(RPAREN)
            return inner
        if tok.kind is IDENT:
            self.advance()
            if bracket := self.eat_if(LBRACKET):
                first = self.parse_nested(bracket)
                if self.eat_if(COLON):
                    lsb_tok = self.eat(NUMBER, "part-select lsb")
                    lsb, _, _ = parse_number(lsb_tok, self.file)
                    self.eat(RBRACKET)
                    if not isinstance(first, Num):
                        raise self.error("part-select bounds must be literals", tok)
                    if first.value < lsb:
                        raise self.error("part-select msb below lsb", tok)
                    return PartSelect(tok.text, first.value, lsb, self.loc(tok))
                self.eat(RBRACKET)
                return BitSelect(tok.text, first, self.loc(tok))
            return Ref(tok.text, self.loc(tok))
        raise self.error(f"unexpected {tok.text!r} in expression")


def _check_module(m: ModuleAst, file: str) -> None:
    """Intra-module legality: unique names, resolvable refs, style rules."""
    names: dict[str, SignalDecl] = {}
    for decl in m.all_signals():
        if decl.name in names:
            raise ParseError(
                f"duplicate signal {decl.name!r} in module {m.name!r}",
                file, decl.loc.line, decl.loc.col,
            )
        if decl.width < 1:
            raise ParseError(
                f"width of {decl.name!r} must be >= 1",
                file, decl.loc.line, decl.loc.col,
            )
        names[decl.name] = decl
    instance_names = set()
    for inst in m.instances:
        if inst.instance_name in names or inst.instance_name in instance_names:
            raise ParseError(
                f"instance name {inst.instance_name!r} collides with another declaration",
                file, inst.loc.line, inst.loc.col,
            )
        instance_names.add(inst.instance_name)

    def check_refs(expr: Expr, ctx: str) -> None:
        for name in expr_signals(expr):
            if name not in names:
                raise UnresolvedIdentifier(
                    f"unknown signal {name!r} in {ctx}", file,
                    expr.loc.line, expr.loc.col,
                )
            if name == CLOCK_NAME:
                raise ParseError(
                    f"{CLOCK_NAME!r} is the clock and may not appear as an operand",
                    file, expr.loc.line, expr.loc.col,
                )

    def check_dest(dest: str, loc: SourceLoc, style: AssignStyle | None, in_posedge: bool) -> None:
        decl = names.get(dest)
        if decl is None:
            raise UnresolvedIdentifier(
                f"assignment to undeclared signal {dest!r}", file, loc.line, loc.col
            )
        if decl.kind is SignalKind.INPUT:
            raise ParseError(f"cannot assign to input {dest!r}", file, loc.line, loc.col)
        if style is None:  # continuous assign
            if decl.is_reg:
                raise ParseError(
                    f"continuous assign target {dest!r} must be a wire", file, loc.line, loc.col
                )
            return
        if not decl.is_reg:
            raise ParseError(
                f"procedural assignment target {dest!r} must be declared reg",
                file, loc.line, loc.col,
            )
        if style is AssignStyle.NON_BLOCKING and not in_posedge:
            raise ParseError(
                "non-blocking assignment outside a clocked block", file, loc.line, loc.col
            )

    for item in m.items:
        if isinstance(item, ContinuousAssign):
            check_dest(item.dest, item.loc, None, False)
            check_refs(item.expr, f"assign to {item.dest!r}")
        else:
            in_posedge = item.trigger is AlwaysTrigger.POSEDGE_CLOCK
            for stmt in walk_stmts(item.body):
                if isinstance(stmt, Assign):
                    check_dest(stmt.dest, stmt.loc, stmt.style, in_posedge)
                    check_refs(stmt.expr, f"assignment to {stmt.dest!r}")
                elif isinstance(stmt, Case):
                    check_refs(stmt.subject, "case subject")
                else:
                    for arm in stmt.arms:
                        check_refs(arm.guard, "if condition")

    for inst in m.instances:
        seen_formals = set()
        for formal, actual in inst.port_map:
            if formal in seen_formals:
                raise ParseError(
                    f"port {formal!r} bound twice on instance {inst.instance_name!r}",
                    file, inst.loc.line, inst.loc.col,
                )
            seen_formals.add(formal)
            if formal == CLOCK_NAME:
                if not (isinstance(actual, Ref) and actual.name == CLOCK_NAME):
                    raise ParseError(
                        f"clock port of {inst.instance_name!r} must be bound to {CLOCK_NAME!r}",
                        file, inst.loc.line, inst.loc.col,
                    )
                continue
            check_refs(actual, f"port map of instance {inst.instance_name!r}")


def _drain(tokens: Iterator[Token]) -> None:
    """Scan the rest of the text, so that a scan error there is raised."""
    for _ in tokens:
        pass


def parse_modules(text: str, file: str = "<input>") -> list[ModuleAst]:
    """Parse one source text into its module definitions."""
    tokens = scan(text, file)
    try:
        return _Parser(tokens, file).parse_source()
    except Exception:
        _drain(tokens)
        raise


def parse_expression(text: str, file: str = "<expr>") -> Expr:
    """Parse a bare expression (rendered conditions round-trip through this)."""
    tokens = scan(text, file)
    try:
        p = _Parser(tokens, file)
        expr = p.parse_expr()
        if p.tok.kind is not EOF:
            raise p.error("trailing input after expression")
    except Exception:
        _drain(tokens)
        raise
    return expr
