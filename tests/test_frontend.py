from __future__ import annotations

import dataclasses
import random
import tracemalloc
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope import coverage, hdl_ast, meg
from leakscope.hdl_ast import (
    BINARY_PRECEDENCE,
    AlwaysBlock,
    AlwaysTrigger,
    Assign,
    Case,
    ContinuousAssign,
    If,
    ModuleAst,
    SignalKind,
    SourceLoc,
    Stmt,
    Ternary,
    render_expr,
    walk_stmts,
)
from leakscope import lexer
from leakscope.lexer import T, Token, tokenize
from leakscope.parser import MAX_NESTING, parse_expression, parse_modules
from oracles import (
    depth_by_tree_walk,
    oracle_parse_expression,
    oracle_parse_modules,
    oracle_tokenize,
)
from test_sim_differential import _random_module


# -- printing a module back to source, for the round-trip tests --------------

def format_module(m: ModuleAst) -> str:
    """Pretty-print a module back into parseable subset source."""
    lines: list[str] = []
    port_decls = []
    for p in m.ports:
        width = f" [{p.width - 1}:0]" if p.width > 1 else ""
        reg = " reg" if p.kind is SignalKind.OUTPUT and p.is_reg else ""
        port_decls.append(f"  {p.kind.value}{reg}{width} {p.name}")
    if port_decls:
        lines.append(f"module {m.name}(")
        lines.append(",\n".join(port_decls))
        lines.append(");")
    else:
        lines.append(f"module {m.name};")

    for d in m.decls:
        width = f" [{d.width - 1}:0]" if d.width > 1 else ""
        lines.append(f"  {d.kind.value}{width} {d.name};")

    def emit_stmt(stmt: Stmt, indent: int) -> None:
        pad = "  " * indent
        if isinstance(stmt, Assign):
            lines.append(f"{pad}{stmt.dest} {stmt.style.value} {render_expr(stmt.expr)};")
        elif isinstance(stmt, If):
            opener = "if"
            for arm in stmt.arms:
                lines.append(f"{pad}{opener} ({render_expr(arm.guard)}) begin")
                for s in arm.body:
                    emit_stmt(s, indent + 1)
                opener = "end else if"
            if stmt.default:
                lines.append(f"{pad}end else begin")
                for s in stmt.default:
                    emit_stmt(s, indent + 1)
            lines.append(f"{pad}end")
        elif isinstance(stmt, Case):
            lines.append(f"{pad}case ({render_expr(stmt.subject)})")
            for arm in stmt.arms:
                lines.append(f"{pad}  {render_expr(arm.guard)}: begin")
                for s in arm.body:
                    emit_stmt(s, indent + 2)
                lines.append(f"{pad}  end")
            if stmt.default:
                lines.append(f"{pad}  default: begin")
                for s in stmt.default:
                    emit_stmt(s, indent + 2)
                lines.append(f"{pad}  end")
            lines.append(f"{pad}endcase")

    for item in m.items:
        if isinstance(item, ContinuousAssign):
            lines.append(f"  assign {item.dest} = {render_expr(item.expr)};")
        else:
            trigger = "@(posedge clk)" if item.trigger is AlwaysTrigger.POSEDGE_CLOCK else "@(*)"
            lines.append(f"  always {trigger} begin")
            for s in item.body:
                emit_stmt(s, 2)
            lines.append("  end")

    for inst in m.instances:
        lines.append(f"  {inst.module_name} {inst.instance_name}(")
        bindings = [
            f"    .{formal}({render_expr(actual)})" for formal, actual in inst.port_map
        ]
        lines.append(",\n".join(bindings))
        lines.append("  );")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def strip_locs(obj):
    """Structural fingerprint of an AST with every SourceLoc removed:
    parse(format_module(m)) must fingerprint like m."""
    if isinstance(obj, SourceLoc):
        return None
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return tuple(strip_locs(x) for x in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return (
            type(obj).__name__,
            tuple(
                (name, strip_locs(getattr(obj, name)))
                for name in obj.__dataclass_fields__
            ),
        )
    return obj


EMPTY = "module m(input clk); endmodule"


def test_empty_module():
    mods = parse_modules(EMPTY)
    assert len(mods) == 1
    m = mods[0]
    assert m.name == "m"
    assert [p.name for p in m.ports] == ["clk"]
    assert m.items == [] and m.decls == [] and m.instances == []


def test_cacheset_parse_shape(cacheset):
    m = cacheset.hierarchy.modules["cacheset"]
    inputs = [p.name for p in m.ports if p.kind is SignalKind.INPUT]
    assert "addr" in inputs
    wires = [d.name for d in m.decls if d.kind is SignalKind.WIRE]
    assert "tag_addr" in wires
    regs = {d.name for d in m.all_signals() if d.is_reg}
    assert {"hit", "way", "fetch"} <= regs
    assert len(m.instances) == 1
    assert m.instances[0].module_name == "mem"


def test_multiway_hit_under_two_compare_branches(cacheset_multiway):
    m = cacheset_multiway.hierarchy.modules["cacheset_multiway"]
    compare_branches = []
    for item in m.items:
        if not isinstance(item, AlwaysBlock):
            continue
        for stmt in walk_stmts(item.body):
            for arm in stmt.arms if isinstance(stmt, If) else ():
                if "tag_addr" not in render_expr(arm.guard):
                    continue
                dests = {s.dest for s in walk_stmts(arm.body) if isinstance(s, Assign)}
                if {"hit", "way"} <= dests:
                    compare_branches.append(render_expr(arm.guard))
    assert len(compare_branches) == 2
    assert compare_branches[0] != compare_branches[1]


def test_every_stmt_has_valid_line(cacheset, serdiv, ct_alu, cacheset_multiway):
    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        for fname, text in dut.sources:
            line_count = len(text.splitlines())
            for m in parse_modules(text, fname):
                for item in m.items:
                    assert 1 <= item.loc.line <= line_count
                    if isinstance(item, AlwaysBlock):
                        for stmt in walk_stmts(item.body):
                            assert 1 <= stmt.loc.line <= line_count


def test_roundtrip_bundled_modules(cacheset, serdiv, ct_alu, cacheset_multiway):
    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        for m in dut.hierarchy.modules.values():
            text = format_module(m)
            reparsed = parse_modules(text, "roundtrip")
            assert len(reparsed) == 1
            assert strip_locs(reparsed[0]) == strip_locs(m)


# -- expression round-trip property -----------------------------------------

_names = st.sampled_from(["a", "b", "c", "sel"])


def _exprs():
    atoms = st.one_of(
        _names.map(lambda n: n),
        st.integers(min_value=0, max_value=255).map(str),
    )

    def extend(children):
        binop = st.sampled_from(
            ["==", "!=", "<", "<=", ">", ">=", "+", "-", "&", "|", "^", "&&", "||", "<<", ">>"]
        )
        return st.one_of(
            st.tuples(children, binop, children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["~", "!"]), children).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(children, children, children).map(
                lambda t: f"(({t[0]}) ? ({t[1]}) : ({t[2]}))"
            ),
        )

    return st.recursive(atoms, extend, max_leaves=8)


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_expression_render_parse_fixpoint(text):
    tree = parse_expression(text)
    rendered = render_expr(tree)
    again = parse_expression(rendered)
    assert render_expr(again) == rendered
    assert strip_locs(again) == strip_locs(tree)


# -- differential: scanner and climbing parser against the oracles ------------

def _outcome(fn, *args):
    """What a front-end call returns, or its error's type, text and place."""
    try:
        return fn(*args)
    except ls.ParseError as exc:
        return type(exc), str(exc), exc.line, exc.col


_SOURCE_PIECES = st.sampled_from([
    "module", "endmodule", "assign", "always", "if", "else", "begin", "end",
    "integer", "wire", "x", "_q9", "é", "aé²", "7", "4'b1010", "8'hFF", "'", "'d3",
    "²", "½", "<=", "<", "==", "=", "!=", "!", "~", "&&", "&", "||", "|", "^",
    "<<", ">>", ">", ">=", "+", "-", "*", "/", "(", ")", "[", "]", ";", ":",
    ",", ".", "@", "?", "#", " ", "\t", "\r", "\n", "\v", "\f", "\xa0",
    "//", "// note\n", "/*", "*/", "/* a\nb */",
])


@given(st.lists(_SOURCE_PIECES | st.text(max_size=3), max_size=30).map("".join))
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_oracle(text):
    assert _outcome(tokenize, text, "t.hdl") == _outcome(oracle_tokenize, text, "t.hdl")


@pytest.mark.parametrize("text", [
    "a // trailing comment", "a /* open", "x '", "'", "a'b", "é'x", "²'b1", "½",
    "a\vb", "a\fb", "a\xa0b", "/*\n*/ b", "a\r\n  b", "",
])
def test_tokenize_matches_oracle_on_edge_cases(text):
    assert _outcome(tokenize, text, "t.hdl") == _outcome(oracle_tokenize, text, "t.hdl")


_OPERANDS = st.sampled_from(["a", "b", "sel[2]", "c[3:1]", "4'd9", "17", "(a)"])


def _chains():
    """Unparenthesized binary chains over every operator, with runs of
    prefix operators, nested by parentheses, ternaries and select indices."""
    binop = st.sampled_from(sorted(BINARY_PRECEDENCE))
    prefix = st.text(alphabet="~!-", max_size=3)

    def extend(children):
        operand = st.tuples(prefix, children).map("".join)
        chain = st.tuples(operand, st.lists(st.tuples(binop, operand), max_size=5)).map(
            lambda t: " ".join([t[0], *(f"{op} {x}" for op, x in t[1])])
        )
        return st.one_of(
            chain,
            children.map(lambda x: f"({x})"),
            children.map(lambda x: f"sel[{x}]"),
            st.tuples(children, children, children).map(lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        )

    return st.recursive(_OPERANDS, extend, max_leaves=12)


@given(_exprs() | _chains())
@settings(max_examples=300, deadline=None)
def test_parse_expression_matches_oracle(text):
    assert _outcome(parse_expression, text) == _outcome(oracle_parse_expression, text)


_DEEP_NAMES = " + ".join(f"s{k % 97}[t{k % 89}]" for k in range(10_000))


@given(_exprs() | _chains())
@example(_DEEP_NAMES)
@example("~" * 10_000 + "z ? y : x[w]")
@settings(max_examples=300, deadline=None)
def test_expr_signals_lists_names_in_source_order(text):
    """Pre-order lists a select's base before its index's signals, and an
    operand's signals before the next operand's: exactly the order in which
    names first appear in the source."""
    names = [tok.text for tok in tokenize(text) if tok.kind is T.IDENT]
    assert hdl_ast.expr_signals(parse_expression(text)) == list(dict.fromkeys(names))


@given(st.lists(st.sampled_from(
    ["a", "7", "~", "!", "-", "+", "<=", "&&", "(", ")", "[", "]", ":", "?", "1:0", "*"]
), max_size=12).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_malformed_expression_errors_match_oracle(text):
    assert _outcome(parse_expression, text) == _outcome(oracle_parse_expression, text)


def test_modules_match_oracle_with_locations(cacheset, serdiv, ct_alu, cacheset_multiway):
    sources = [src for dut in (cacheset, serdiv, ct_alu, cacheset_multiway) for src in dut.sources]
    rng = random.Random(4242)
    for k in range(30):
        text = _random_module(rng, f"rnd{k}", with_instance=k % 2 == 1)
        sources.append((f"rnd{k}.hdl", text))
    for fname, text in sources:
        assert parse_modules(text, fname) == oracle_parse_modules(text, fname), fname


# -- streamed tokens -----------------------------------------------------------

# Each text has a parse error, or a module-check error in its first module,
# before a scan error. The parser reads tokens as the scan makes them, so it
# meets the first error first; the whole text scanned first meets the second.
_MODULE_ERROR_FIRST = [
    "module m(input a); assign ; endmodule\nmodule n(input b); # endmodule",
    "module m(input a) endmodule\nmodule n; integer i; endmodule",
    "module m(input a); wire a; endmodule\nmodule n; /* never closed",
    "module m(input a, output y); assign y = b; endmodule\nmodule n; $ endmodule",
    "module m(input a); wire w; wire w; endmodule\nmodule n; integer k; endmodule",
    "endmodule /* open",
]
_EXPRESSION_ERROR_FIRST = ["a + ) #", "a b /* open", "(a + b c integer", "a[1:b] ` c", "a ? b c \\"]


@pytest.mark.parametrize("text", _MODULE_ERROR_FIRST)
def test_scan_error_after_parse_error_wins_in_modules(text):
    want = _outcome(tokenize, text, "e.hdl")
    assert isinstance(want, tuple)  # the scan error
    assert _outcome(oracle_parse_modules, text, "e.hdl") == want
    assert _outcome(parse_modules, text, "e.hdl") == want
    assert _outcome(ls.parse_design, [("e.hdl", text)]) == want


@pytest.mark.parametrize("text", _EXPRESSION_ERROR_FIRST)
def test_scan_error_after_parse_error_wins_in_expressions(text):
    want = _outcome(tokenize, text, "<expr>")
    assert isinstance(want, tuple)
    assert _outcome(oracle_parse_expression, text) == want
    assert _outcome(parse_expression, text) == want


def test_token_kinds_are_bound_to_module_names():
    assert all(getattr(lexer, kind.name) is kind for kind in T)
    assert [type(tok) for tok in tokenize("a <= 1;")] == [Token] * 5


def test_parse_memory_is_bounded_by_its_result():
    """The scan is streamed, so parsing needs little beyond the tree it
    returns; a token list of the whole text would need about three times it."""
    rng = random.Random(2600)
    pieces: list[str] = []
    while sum(map(len, pieces)) < 300_000:
        pieces.append(_random_module(rng, f"big{len(pieces)}", with_instance=False))
    text = "\n".join(pieces)
    tracemalloc.start()
    try:
        modules = parse_modules(text, "big.hdl")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(modules) == text.count("endmodule")
    assert peak <= 1.25 * held, (peak, held)


# -- nesting bound -------------------------------------------------------------

@pytest.mark.parametrize("shape, opener_col", [
    ("({})", lambda n: n),
    ("~({})", lambda n: 2 * n),
    ("sel[{}]", lambda n: 4 * n),
    ("a + ({})", lambda n: 5 * n),
], ids=["parens", "prefixed-parens", "select-index", "operand"])
def test_nesting_bound_and_one_past_it(shape, opener_col):
    text = "a"
    for _ in range(MAX_NESTING):
        text = shape.format(text)
    tree = parse_expression(text)
    assert strip_locs(parse_expression(render_expr(tree))) == strip_locs(tree)
    with pytest.raises(ls.ParseError) as err:
        parse_expression(shape.format(text), "deep.hdl")
    # Reported at the token that opens the first level past the bound.
    col = opener_col(MAX_NESTING + 1)
    assert str(err.value) == (
        f"deep.hdl:1:{col}: expression nested deeper than {MAX_NESTING} levels"
    )


@pytest.mark.parametrize("shape", ["s ? a : {}", "s ? {} : a"], ids=["else-arm", "then-arm"])
def test_ternary_chains_do_not_count_toward_the_bound(shape):
    # A priority mux `s0 ? a : s1 ? b : ...` is a chain, not nesting: the
    # parser reads either arm in a loop, so a chain of any length parses.
    text = "a"
    for _ in range(3 * MAX_NESTING):
        text = shape.format(text)
    tree = parse_expression(text)
    assert tree == oracle_parse_expression(text)
    depth = 0
    while isinstance(tree, Ternary):
        depth += 1
        tree = tree.other if shape.endswith("{}") else tree.then
    assert depth == 3 * MAX_NESTING


# -- if chains ------------------------------------------------------------------

# Each chain spelled with `else if`, then with else blocks that are one `if`.
_ELSE_SPELLINGS = [
    ("if (a == 0) y = 1; else if (a == 1) y = 2;",
     "if (a == 0) y = 1; else begin if (a == 1) y = 2; end"),
    ("if (a == 0) y = 1; else if (a == 1) begin end else if (b) y = 3; else y = 4;",
     "if (a == 0) y = 1; else begin if (a == 1) begin end"
     " else begin if (b) y = 3; else y = 4; end end"),
    ("if (a == 0) y = 1; else if (a == 1) y = 2; else if (b) begin if (a) y = 5; end",
     "if (a == 0) y = 1; else begin if (a == 1) y = 2; else if (b) begin if (a) y = 5; end end"),
]


def _always_body(stmt: str) -> tuple[Stmt, ...]:
    src = ("module m(input clk, input [3:0] a, input b, output reg [3:0] y);\n"
           f"always @(*) {stmt}\nendmodule\n")
    return parse_modules(src, "chain.hdl")[0].items[0].body


@pytest.mark.parametrize("chain, block", _ELSE_SPELLINGS)
def test_else_if_and_else_block_of_one_if_parse_alike(chain, block):
    """Both spellings give one flat chain, an arm per `if`, each arm at its
    own `if` token; an else block of more than one statement stays the
    default."""
    (stmt,) = _always_body(chain)
    assert strip_locs(_always_body(block)) == strip_locs((stmt,))
    opener = len("always @(*) ") + 1
    cols = [opener + k for k in range(len(chain))
            if chain.startswith("if (", k) and (k == 0 or chain.endswith("else ", 0, k))]
    assert isinstance(stmt, If)
    assert [(arm.loc.line, arm.loc.col) for arm in stmt.arms] == [(2, c) for c in cols]
    (outer,) = _always_body(f"if (b) y = 0; else begin {chain} y = 7; end")
    assert len(outer.arms) == 1 and len(outer.default) == 2


# -- errors -------------------------------------------------------------------

def test_syntax_error_has_location():
    with pytest.raises(ls.ParseError) as err:
        parse_modules("module m(input clk);\n  wire [;\nendmodule", "bad.hdl")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "literal, message",
    [
        ("7A", "malformed literal '7A'"),
        ("7A'd1", "malformed literal \"7A'd1\""),
        ("²", "malformed literal '²'"),
        ("4'd²", "bad digits in literal \"4'd²\""),
    ],
    ids=["letter-in-decimal", "letter-in-size", "superscript", "superscript-digits"],
)
def test_malformed_number_is_a_parse_error(literal, message):
    src = f"module m(input clk, output [3:0] w);\n  assign w = {literal};\nendmodule"
    with pytest.raises(ls.ParseError) as err:
        parse_modules(src, "num.hdl")
    assert (err.value.line, err.value.col) == (2, 14)
    assert str(err.value) == f"num.hdl:2:14: {message}"


def test_unresolved_identifier():
    src = "module m(input clk, input a, output w);\n  assign w = b;\nendmodule"
    with pytest.raises(ls.UnresolvedIdentifier):
        parse_modules(src)


def test_clock_as_operand_rejected():
    src = "module m(input clk, output w);\n  assign w = clk;\nendmodule"
    with pytest.raises(ls.ParseError):
        parse_modules(src)


def test_rejected_constructs_error_cleanly():
    for text in (
        "module m #(parameter W = 4) (input clk); endmodule",
        "module m(input clk); integer i; endmodule",
        "module m(input clk); always @(negedge clk) begin end endmodule",
    ):
        with pytest.raises(ls.ParseError):
            parse_modules(text)


def test_nonblocking_outside_clocked_block_rejected():
    src = (
        "module m(input clk, input a);\n"
        "  reg r;\n"
        "  always @(*) begin\n"
        "    r <= a;\n"
        "  end\n"
        "endmodule"
    )
    with pytest.raises(ls.ParseError):
        parse_modules(src)


def test_recursive_instantiation():
    src = (
        "module a(input clk, input x);\n"
        "  b inner(.clk(clk), .x(x));\n"
        "endmodule\n"
        "module b(input clk, input x);\n"
        "  a inner(.clk(clk), .x(x));\n"
        "endmodule"
    )
    with pytest.raises(ls.RecursiveInstantiation):
        ls.parse_design([("r.hdl", src)], top="a")


def _instantiating(name: str, children: list[str]) -> str:
    ports = "".join(f"  {child} i{j}(.clk(clk), .x(x));\n" for j, child in enumerate(children))
    return f"module {name}(input clk, input x);\n{ports}endmodule\n"


def test_recursive_instantiation_names_the_cycle_from_its_first_module():
    # A shared module (b, c) is checked once; the cycle is reported from
    # the first module of it on the instantiation path.
    src = "".join(_instantiating(name, children) for name, children in (
        ("top", ["a", "b"]), ("a", ["b", "c"]), ("b", ["c"]), ("c", ["d"]), ("d", ["b"]),
    ))
    with pytest.raises(ls.RecursiveInstantiation) as info:
        ls.parse_design([("r.hdl", src)], top="top")
    assert str(info.value) == "recursive instantiation: b -> c -> d -> b"
    assert info.value.cycle == ["b", "c", "d", "b"]


def test_instances_are_in_depth_first_preorder():
    src = "".join(_instantiating(name, children) for name, children in (
        ("top", ["a", "b", "a"]), ("a", ["b", "c"]), ("b", ["c"]), ("c", []),
    ))
    h = ls.parse_design([("r.hdl", src)], top="top")
    assert [(i.path, i.parent, i.level, i.module_name) for i in h.instances] == [
        ("top", None, 1, "top"),
        ("top.i0", "top", 2, "a"),
        ("top.i0.i0", "top.i0", 3, "b"),
        ("top.i0.i0.i0", "top.i0.i0", 4, "c"),
        ("top.i0.i1", "top.i0", 3, "c"),
        ("top.i1", "top", 2, "b"),
        ("top.i1.i0", "top.i1", 3, "c"),
        ("top.i2", "top", 2, "a"),
        ("top.i2.i0", "top.i2", 3, "b"),
        ("top.i2.i0.i0", "top.i2.i0", 4, "c"),
        ("top.i2.i1", "top.i2", 3, "c"),
    ]


def test_port_mismatch():
    src = (
        "module child(input clk, input x);\n"
        "endmodule\n"
        "module top(input clk, input y);\n"
        "  child c(.clk(clk), .nope(y));\n"
        "endmodule"
    )
    with pytest.raises(ls.PortMismatch):
        ls.parse_design([("p.hdl", src)], top="top")


def test_unbound_port_rejected():
    src = (
        "module child(input clk, input x);\n"
        "endmodule\n"
        "module top(input clk, input y);\n"
        "  child c(.clk(clk));\n"
        "endmodule"
    )
    with pytest.raises(ls.PortMismatch):
        ls.parse_design([("p.hdl", src)], top="top")


# -- hierarchy / levelize ------------------------------------------------------

def test_levelize_single_module():
    h = ls.parse_design([("m.hdl", EMPTY)])
    assert ls.levelize(h) == [["m"]]


def test_levelize_two_levels(cacheset):
    assert ls.levelize(cacheset.hierarchy) == [["cacheset.mem_call"], ["cacheset"]]


def _random_tree_design(rng: random.Random, levels: int = 4) -> str:
    """A linear-ish random hierarchy of the given depth with fanout 1-2."""
    mods = []
    names_by_level = {levels: ["leaf0"]}
    mods.append("module leaf0(input clk, input x);\nendmodule")
    for level in range(levels - 1, 0, -1):
        children = names_by_level[level + 1]
        name = f"mod{level}"
        insts = []
        for i in range(rng.randint(1, 2)):
            child = rng.choice(children)
            insts.append(f"  {child} u{i}(.clk(clk), .x(x));")
        mods.append(
            f"module {name}(input clk, input x);\n" + "\n".join(insts) + "\nendmodule"
        )
        names_by_level[level] = [name]
    return "\n".join(mods)


def test_levelize_matches_depth_oracle():
    rng = random.Random(7)
    for _ in range(20):
        src = _random_tree_design(rng)
        h = ls.parse_design([("t.hdl", src)], top="mod1")
        oracle = depth_by_tree_walk(h)
        groups = ls.levelize(h)
        seen = [path for group in groups for path in group]
        assert sorted(seen) == sorted(oracle)  # covers every path exactly once
        depths = [oracle[path] for path in seen]
        assert depths == sorted(depths, reverse=True)
        for group in groups:
            assert group == sorted(group)
            assert len({oracle[p] for p in group}) == 1
        # leaves-to-root topological order: every child before its parent
        position = {path: i for i, path in enumerate(seen)}
        for inst in h.instances:
            if inst.parent is not None:
                assert position[inst.path] < position[inst.parent]


def test_ast_json_dump_stable_fields(cacheset):
    import json

    doc = json.loads(ls.ast_to_json(cacheset.hierarchy))
    assert doc["top"] == "cacheset"
    first = doc["modules"][0]["signals"][0]
    assert set(first) == {"name", "kind", "width", "loc"}
    assert set(first["loc"]) == {"file", "line", "col"}


# One source with every kind of expression, statement and module item.
_ALL_RECORDS = """\
module leaf(input clk, input [3:0] a, output [3:0] y);
  assign y = a;
endmodule
module top(input clk, input [3:0] a, input [3:0] b, output [3:0] y, output reg [3:0] r);
  wire [3:0] w;
  reg [3:0] c;
  leaf u0(.clk(clk), .a(a), .y(w));
  assign y = b[0] ? w[3:2] : -a;
  always @(*) begin
    case (a)
      4'd1: begin
        c = b;
      end
      default: begin
        c = a + b;
      end
    endcase
  end
  always @(posedge clk) begin
    if (c == 4'd2) begin
      r <= c;
    end else begin
      r <= 0;
    end
  end
endmodule
"""


def _records(obj, found: dict) -> None:
    """Collect one instance of every dataclass type reachable from obj."""
    if isinstance(obj, (list, tuple, frozenset)):
        for x in obj:
            _records(x, found)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _records(k, found)
            _records(v, found)
    elif dataclasses.is_dataclass(obj):
        found.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            _records(getattr(obj, f.name), found)


def test_front_end_records_are_slotted_and_frozen():
    frozen = {
        cls
        for module in (hdl_ast, meg, coverage)
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        and cls.__dataclass_params__.frozen
    }
    named = {
        hdl_ast.SourceLoc, hdl_ast.Num, hdl_ast.Ref, hdl_ast.BitSelect, hdl_ast.PartSelect,
        hdl_ast.Unary, hdl_ast.Binary, hdl_ast.Ternary, hdl_ast.Assign, hdl_ast.Arm,
        hdl_ast.If, hdl_ast.Case, meg.MegNode, meg.ConditionTerm, meg.MegEdge, meg.MicroEventPath,
        coverage.ConditionStep, coverage.PathCondition,
    }
    assert named <= frozen
    found: dict = {}
    modules = parse_modules(_ALL_RECORDS, "records.hdl")
    _records(modules, found)
    by_name = {m.name: m for m in modules}
    for m in modules:
        g = ls.build_meg(m, by_name)
        paths = ls.enumerate_meps(g).paths
        _records([g, paths, [ls.path_condition(p, g) for p in paths]], found)
    assert frozen <= found.keys()
    for cls in frozen:
        assert "__slots__" in vars(cls), cls.__name__
        obj = found[cls]
        assert not hasattr(obj, "__dict__"), cls.__name__
        with pytest.raises(AttributeError):  # FrozenInstanceError is one
            setattr(obj, dataclasses.fields(cls)[0].name, None)

    tok = tokenize("assign y = a;")[0]
    assert tok._fields == ("kind", "text", "line", "col")
    assert not hasattr(tok, "__dict__")
    with pytest.raises(AttributeError):
        tok.text = "x"
