from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.hdl_ast import (
    AlwaysBlock,
    Assign,
    If,
    SignalKind,
    format_module,
    render_expr,
    strip_locs,
    walk_stmts,
)
from leakscope.parser import parse_expression, parse_modules
from oracles import depth_by_tree_walk

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
            if isinstance(stmt, If) and "tag_addr" in render_expr(stmt.cond):
                dests = {
                    s.dest for s in walk_stmts(stmt.then) if isinstance(s, Assign)
                }
                if {"hit", "way"} <= dests:
                    compare_branches.append(render_expr(stmt.cond))
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
