"""Differential test: compiled engine vs the naive reference interpreter
on randomly generated designs. Any divergence in any signal at any cycle
is a bug in one of the two execution routes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.stimulus import Stimulus, StimulusStep
from reference_sim import reference_simulate

_OPS = ["==", "!=", "<", "<=", ">", ">=", "+", "-", "&", "|", "^", "&&", "||", "<<", ">>"]


def _rand_expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.5:
            name = rng.choice(names)
            if rng.random() < 0.2:
                return f"{name}[{rng.randrange(4)}]"
            if rng.random() < 0.15:
                hi = rng.randrange(1, 4)
                return f"{name}[{hi}:0]"
            return name
        if roll < 0.85:
            return f"4'd{rng.randrange(16)}"
        return str(rng.randrange(8))
    roll = rng.random()
    if roll < 0.15:
        return f"{rng.choice(['~', '!', '-'])}({_rand_expr(rng, names, depth - 1)})"
    if roll < 0.25:
        c = _rand_expr(rng, names, depth - 1)
        a = _rand_expr(rng, names, depth - 1)
        b = _rand_expr(rng, names, depth - 1)
        return f"(({c}) ? ({a}) : ({b}))"
    op = rng.choice(_OPS)
    return f"({_rand_expr(rng, names, depth - 1)} {op} {_rand_expr(rng, names, depth - 1)})"


def _rand_stmts(rng: random.Random, reads: list[str], targets: list[str],
                style: str, depth: int) -> list[str]:
    out = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.5 or depth <= 0:
            dest = rng.choice(targets)
            out.append(f"{dest} {style} {_rand_expr(rng, reads, 2)};")
        elif roll < 0.8:
            out += _rand_if(rng, reads, targets, style, depth, rng.randint(1, 6))
        else:
            subject = _rand_expr(rng, reads, 1)
            block = [f"case ({subject})"]
            for value in rng.sample(range(4), rng.randint(1, 3)):
                block.append(f"  {value}: begin")
                block += ["    " + s for s in _rand_stmts(rng, reads, targets, style, depth - 1)]
                block.append("  end")
            if rng.random() < 0.7:
                block.append("  default: begin")
                block += ["    " + s for s in _rand_stmts(rng, reads, targets, style, depth - 1)]
                block.append("  end")
            block.append("endcase")
            out += block
    return out


def _rand_if(rng: random.Random, reads: list[str], targets: list[str],
             style: str, depth: int, arms: int) -> list[str]:
    """An if chain of `arms` arms, some of them empty, with or without a
    final else; each `else if` is sometimes spelled `else begin if … end`."""
    def body() -> list[str]:
        if rng.random() < 0.2:
            return []
        return ["  " + s for s in _rand_stmts(rng, reads, targets, style, depth - 1)]

    lines = [f"if ({_rand_expr(rng, reads, 2)}) begin", *body()]
    if arms > 1:
        rest = _rand_if(rng, reads, targets, style, depth, arms - 1)
        if rng.random() < 0.3:
            return [*lines, "end else begin", *("  " + s for s in rest), "end"]
        return [*lines, f"end else {rest[0]}", *rest[1:]]
    if rng.random() < 0.5:
        lines += ["end else begin", *body()]
    return [*lines, "end"]


def _random_module(rng: random.Random, name: str, with_instance: bool) -> str:
    lines = [
        f"module {name}(",
        "  input clk,",
        "  input rst,",
        "  input [3:0] a,",
        "  input [3:0] b,",
        "  output [3:0] out",
        ");",
        "  wire [3:0] w0;",
        "  wire [3:0] w1;",
        "  reg [3:0] r0;",
        "  reg [3:0] r1;",
        "  reg [3:0] cr;",
    ]
    if with_instance:
        lines.append("  wire [3:0] z;")
    # wires read only earlier-declared state: acyclic by construction
    lines.append(f"  assign w0 = {_rand_expr(rng, ['a', 'b', 'r0', 'r1'], 3)};")
    lines.append(f"  assign w1 = {_rand_expr(rng, ['a', 'b', 'r0', 'r1', 'w0'], 3)};")
    comb_reads = ["a", "b", "r0", "r1", "w0", "w1"]
    lines.append("  always @(*) begin")
    lines += ["    " + s for s in _rand_stmts(rng, comb_reads, ["cr"], "=", 2)]
    lines.append("  end")
    if with_instance:
        lines.append("  leafmod u0(.clk(clk), .rst(rst), .a(w0), .b(r0), .out(z));")
    seq_reads = comb_reads + ["cr"] + (["z"] if with_instance else [])
    lines.append("  always @(posedge clk) begin")
    lines.append("    if (rst == 1) begin")
    lines.append(f"      r0 <= {rng.randrange(16)};")
    lines.append(f"      r1 <= {rng.randrange(16)};")
    lines.append("      cr = cr;")  # keep cr unconstrained at reset
    lines.append("    end else begin")
    lines += ["      " + s for s in _rand_stmts(rng, seq_reads, ["r0", "r1"], "<=", 2)]
    lines.append("    end")
    lines.append("  end")
    lines.append(f"  assign out = {_rand_expr(rng, seq_reads, 2)};")
    lines.append("endmodule")
    return "\n".join(lines)


def _random_stim(rng: random.Random) -> Stimulus:
    steps = tuple(
        StimulusStep(
            tag="drive",
            data={"a": rng.randrange(16), "b": rng.randrange(16)},
            hold=rng.randint(1, 2),
        )
        for _ in range(rng.randint(1, 4))
    )
    return Stimulus(steps=steps)


def _compare(h, stim):
    bundle = ls.simulate(h, stim, max_cycles=60, quiescence_window=4)
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    for path in bundle.instances():
        got = bundle.trace(path).signal_values
        assert set(got) == set(want[path])
        for name, series in got.items():
            assert series == want[path][name], (path, name)


def test_differential_single_module():
    rng = random.Random(20262)
    checked = 0
    for trial in range(40):
        src = _random_module(rng, "rnd", with_instance=False)
        try:
            h = ls.parse_design([(f"rnd{trial}.hdl", src)])
            stim = _random_stim(rng)
            _compare(h, stim)
            checked += 1
        except ls.CombinationalLoop:
            # cr-to-cr self-dependence through @(*) can oscillate; both
            # engines reject it, nothing to compare
            continue
    assert checked >= 25


def test_differential_with_instance():
    rng = random.Random(777)
    checked = 0
    for trial in range(25):
        leaf = _random_module(rng, "leafmod", with_instance=False)
        top = _random_module(rng, "rndtop", with_instance=True)
        try:
            h = ls.parse_design([(f"d{trial}.hdl", leaf + "\n" + top)], top="rndtop")
            stim = _random_stim(rng)
            _compare(h, stim)
            checked += 1
        except ls.CombinationalLoop:
            continue
    assert checked >= 15


def _copies_parent(rng: random.Random, name: str, copies: int) -> str:
    """A parent of `copies` leafmod instances, each bound to different
    parent expressions in a shuffled port order. Copy k reads only parent
    inputs, the parent's register and the outputs of copies before it, so
    the design stays free of combinational loops."""
    lines = [
        f"module {name}(",
        "  input clk,",
        "  input rst,",
        "  input [3:0] a,",
        "  input [3:0] b,",
        "  output [3:0] out",
        ");",
        "  reg [3:0] r0;",
    ]
    lines += [f"  wire [3:0] z{k};" for k in range(copies)]
    reads = ["a", "b", "r0"]
    for k in range(copies):
        ports = [
            ".clk(clk)",
            ".rst(rst)",
            f".a({_rand_expr(rng, reads, 2)})",
            f".b({_rand_expr(rng, reads, 2)})",
            f".out(z{k})",
        ]
        rng.shuffle(ports)
        lines.append(f"  leafmod u{k}({', '.join(ports)});")
        reads.append(f"z{k}")
    lines.append("  always @(posedge clk) begin")
    lines.append(f"    if (rst == 1) r0 <= {rng.randrange(16)};")
    lines.append(f"    else r0 <= {_rand_expr(rng, reads, 2)};")
    lines.append("  end")
    lines.append(f"  assign out = {_rand_expr(rng, reads, 2)};")
    lines.append("endmodule")
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_differential_repeated_instances(seed, copies):
    """Every copy of a module runs the module's code relocated to its own
    signals; the copies see different inputs, so a copy bound to another's
    signals diverges from the reference."""
    rng = random.Random(seed)
    leaf = _random_module(rng, "leafmod", with_instance=False)
    parent = _copies_parent(rng, "rndtop", copies)
    h = ls.parse_design([("copies.hdl", leaf + "\n" + parent)], top="rndtop")
    assert [i.module_name for i in h.instances].count("leafmod") == copies
    _compare(h, _random_stim(rng))


def test_loop_in_second_copy_names_that_copy():
    """A loop that only the second copy's binding closes is reported with
    that copy's path and signals, not the first copy's."""
    src = """
module osc(input clk, input en, input [3:0] d, output [3:0] q);
  wire x;
  wire z;
  assign x = en & !z;
  assign z = x;
  assign q = d + 4'd1;
endmodule
module top(input clk, input rst, input [3:0] a, output [3:0] out);
  wire [3:0] q0;
  osc u0(.clk(clk), .en(1'd0), .d(a + 4'd2), .q(q0));
  osc u1(.q(out), .d(q0 ^ a), .en(a[0]), .clk(clk));
endmodule
"""
    h = ls.parse_design([("loop.hdl", src)], top="top")
    even = Stimulus(steps=(StimulusStep(tag="drive", data={"a": 2}, hold=1),))
    _compare(h, even)
    odd = Stimulus(steps=(StimulusStep(tag="drive", data={"a": 3}, hold=1),))
    with pytest.raises(ls.CombinationalLoop) as caught:
        ls.simulate(h, odd)
    assert (caught.value.instance, caught.value.signals) == ("top.u1", ["x", "z"])


_LEAVES = st.sampled_from(["a", "b", "c", "a[2]", "b[3:1]", "b[a[1:0]]", "4'd5", "2'd3", "3", "9"])
_CHAIN_OPS = st.sampled_from(
    ["+", "-", "&", "|", "^", "==", "!=", "<", ">=", "&&", "||", "<<", ">>"]
)


@st.composite
def _deep_expressions(draw):
    """A long left-leaning operator chain, a deep right-leaning nest of
    parentheses or a long run of prefix operators, or a prefix run over
    one of the other two: at most ~300 levels, which the recursive
    reference still evaluates, and past the depth at which codegen binds
    a subexpression to a temporary."""
    shape = draw(st.sampled_from(["chain", "nest", "prefix"]))
    if shape == "chain":
        n = draw(st.integers(2, 300))
        text = draw(_LEAVES)
        for op, leaf in draw(st.lists(st.tuples(_CHAIN_OPS, _LEAVES), min_size=n - 1, max_size=n - 1)):
            text = f"{text} {op} {leaf}"
    elif shape == "nest":
        pairs = draw(st.lists(st.tuples(_LEAVES, _CHAIN_OPS), min_size=1, max_size=95))
        text = "".join(f"({leaf} {op} " for leaf, op in pairs) + draw(_LEAVES) + ")" * len(pairs)
    else:
        text = draw(_LEAVES)
    prefixes = draw(st.text(alphabet="~!-", max_size=300 if shape == "prefix" else 30))
    return f"{prefixes}({text})" if prefixes else text


@settings(max_examples=60, deadline=None)
@given(_deep_expressions(), _deep_expressions(), st.randoms(use_true_random=False))
def test_deep_expressions_simulate_like_reference(expr, other, rng):
    """Deep expressions in every place codegen puts one: a continuous
    assign, an if condition, a non-blocking assign, a case subject and a
    port map."""
    src = f"""
module leaf(input clk, input [7:0] d, output [7:0] q);
  assign q = d;
endmodule
module deep(input clk, input rst, input [3:0] a, input [3:0] b, input c,
            output [7:0] y, output reg [7:0] r, output reg [7:0] z, output [7:0] q);
  assign y = {expr};
  always @(posedge clk)
    if ({other}) r <= {expr};
    else r <= r + 1;
  always @(*)
    case ({other})
      0: z = 1;
      1: z = {expr};
      default: z = r;
    endcase
  leaf u(.clk(clk), .d({other}), .q(q));
endmodule
"""
    h = ls.parse_design([("deep.hdl", src)], top="deep")
    _compare(h, _random_stim(rng))
