"""Seeded generators of the HDL sources the elaborate-synth workload feeds
to leakscope, plus the two fixed designs that today's codegen rejects.

A synthetic design is three-level: a top module instantiates mid modules,
and each mid module instantiates leaf modules. Leaf bodies follow the
random-module style of tests/test_sim_differential.py: wires read only
earlier wires and state, the combinational block assigns a default before
its branches and never reads its own targets, so every design is free of
combinational loops by construction.
"""

from __future__ import annotations

import random

OPS = ["==", "!=", "<", "<=", ">", ">=", "+", "-", "&", "|", "^", "&&", "||", "<<", ">>"]

# Sizes of one synthetic design (about 15k lines, 111 modules, 421 instances).
LEAF_TYPES = 90
MID_TYPES = 20
LEAVES_PER_MID = 20
MIDS_IN_TOP = 20
LEAF_ORDER = "wwrcwrwcrw"  # w wire, c combinational reg, r register
LEAF_WINDOW = 3
LEAF_COMB_STMTS = 2
LEAF_SEQ_STMTS = 3

# Known-fault designs: sizes chosen past CPython's compile limits (200
# nested parentheses, 100 indentation levels).
SUM_TERMS = 101
ELIF_ARMS = 99


def _expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.6:
            name = rng.choice(names)
            pick = rng.random()
            if pick < 0.15:
                return f"{name}[{rng.randrange(8)}]"
            if pick < 0.25:
                return f"{name}[{rng.randrange(1, 8)}:0]"
            return name
        return f"8'd{rng.randrange(256)}"
    roll = rng.random()
    if roll < 0.12:
        return f"{rng.choice(['~', '!', '-'])}({_expr(rng, names, depth - 1)})"
    if roll < 0.22:
        c = _expr(rng, names, depth - 1)
        a = _expr(rng, names, depth - 1)
        b = _expr(rng, names, depth - 1)
        return f"(({c}) ? ({a}) : ({b}))"
    op = rng.choice(OPS)
    return f"({_expr(rng, names, depth - 1)} {op} {_expr(rng, names, depth - 1)})"


def _stmts(rng: random.Random, reads: list[str], targets: list[str],
           style: str, depth: int, count: int) -> list[str]:
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45 or depth <= 0:
            out.append(f"{rng.choice(targets)} {style} {_expr(rng, reads, 2)};")
        elif roll < 0.8:
            out.append(f"if ({_expr(rng, reads, 1)}) begin")
            out += ["  " + s for s in _stmts(rng, reads, targets, style, depth - 1, 2)]
            if rng.random() < 0.5:
                out.append("end else begin")
                out += ["  " + s for s in _stmts(rng, reads, targets, style, depth - 1, 1)]
            out.append("end")
        else:
            out.append(f"case ({_expr(rng, reads, 1)})")
            for value in sorted(rng.sample(range(8), rng.randint(1, 3))):
                out.append(f"  {value}: begin")
                out += ["    " + s for s in _stmts(rng, reads, targets, style, depth - 1, 1)]
                out.append("  end")
            if rng.random() < 0.6:
                out.append("  default: begin")
                out += ["    " + s for s in _stmts(rng, reads, targets, style, depth - 1, 1)]
                out.append("  end")
            out.append("endcase")
    return out


def _header(name: str, out_reg: bool = False) -> list[str]:
    return [
        f"module {name}(",
        "  input clk,",
        "  input rst,",
        "  input [7:0] a,",
        "  input [7:0] b,",
        f"  output {'reg ' if out_reg else ''}[7:0] out",
        ");",
    ]


def leaf_module(rng: random.Random, name: str) -> str:
    """One leaf: wires, combinational regs and registers in a fixed order,
    each reading only the few signals just before it, so the module's
    micro-event graph stays a DAG (plus register self-edges) with a
    bounded number of input-to-output paths."""
    kinds = list(LEAF_ORDER)
    names = []
    counts = {"w": 0, "c": 0, "r": 0}
    for kind in kinds:
        names.append(f"{kind}{counts[kind]}")
        counts[kind] += 1
    regs = [n for n in names if n[0] == "r"]
    lines = _header(name)
    lines += [f"  wire [7:0] {n};" for n in names if n[0] == "w"]
    lines += [f"  reg [7:0] {n};" for n in names if n[0] != "w"]
    order = ["a", "b"] + names
    seq: list[str] = []
    for i, sig in enumerate(names, start=2):
        window = order[max(0, i - LEAF_WINDOW):i]
        if sig[0] == "w":
            lines.append(f"  assign {sig} = {_expr(rng, window, 2)};")
        elif sig[0] == "c":
            lines.append("  always @(*) begin")
            lines.append(f"    {sig} = {_expr(rng, window, 2)};")
            lines += ["    " + s for s in _stmts(rng, window, [sig], "=", 2, LEAF_COMB_STMTS)]
            lines.append("  end")
        else:
            seq += _stmts(rng, window + [sig], [sig], "<=", 2, LEAF_SEQ_STMTS)
    lines.append("  always @(posedge clk) begin")
    lines.append("    if (rst == 1) begin")
    lines += [f"      {r} <= 8'd{rng.randrange(256)};" for r in regs]
    lines.append("    end else begin")
    lines += ["      " + s for s in seq]
    lines.append("    end")
    lines.append("  end")
    lines.append(f"  assign out = {_expr(rng, order[-LEAF_WINDOW:], 2)};")
    lines.append("endmodule")
    return "\n".join(lines)


def _parent_module(rng: random.Random, name: str, children: list[str]) -> str:
    """A module instantiating `children`: each child reads the parent's
    inputs (one through a parent register), and the outputs are folded
    into a register and the parent's output."""
    n = len(children)
    lines = _header(name)
    lines += [f"  wire [7:0] z{i};" for i in range(n)]
    lines.append("  reg [7:0] acc;")
    lines.append("  reg [7:0] mix;")
    for i, child in enumerate(children):
        b_actual = "mix" if i % 4 == 0 else f"(b ^ 8'd{rng.randrange(256)})"
        lines.append(
            f"  {child} u{i}(.clk(clk), .rst(rst), .a(a), .b({b_actual}), .out(z{i}));"
        )
    lines.append("  always @(posedge clk) begin")
    lines.append("    if (rst == 1) begin")
    lines.append("      acc <= 0;")
    lines.append("      mix <= 0;")
    lines.append("    end else begin")
    lines.append(f"      acc <= acc + (z{rng.randrange(n)} ^ z{rng.randrange(n)});")
    lines.append(f"      mix <= {_expr(rng, ['a', 'b', 'acc'], 2)};")
    lines.append("    end")
    lines.append("  end")
    folded = " ^ ".join(f"z{i}" for i in range(n))
    lines.append(f"  assign out = acc ^ {folded};")
    lines.append("endmodule")
    return "\n".join(lines)


def synth_design(seed: int, index: int) -> tuple[list[tuple[str, str]], str]:
    """Sources and top name of one synthetic design."""
    rng = random.Random(f"synth:{seed}:{index}")
    leaves = [f"leaf{i}" for i in range(LEAF_TYPES)]
    mids = [f"mid{i}" for i in range(MID_TYPES)]
    chunks = [leaf_module(rng, name) for name in leaves]
    slots = [leaves[k % LEAF_TYPES] for k in range(MID_TYPES * LEAVES_PER_MID)]
    rng.shuffle(slots)
    for j, name in enumerate(mids):
        chunks.append(_parent_module(rng, name, slots[j * LEAVES_PER_MID:(j + 1) * LEAVES_PER_MID]))
    top_children = [mids[k % MID_TYPES] for k in range(MIDS_IN_TOP)]
    chunks.append(_parent_module(rng, "synth_top", top_children))
    return [(f"synth_{seed}_{index}.hdl", "\n\n".join(chunks) + "\n")], "synth_top"


def wide_sum_design() -> tuple[list[tuple[str, str]], str]:
    """`assign y = a + a + ...` with SUM_TERMS terms."""
    terms = " + ".join(["a"] * SUM_TERMS)
    src = "\n".join([
        "module wide_sum(",
        "  input clk,",
        "  input rst,",
        "  input [7:0] a,",
        "  output [7:0] y",
        ");",
        f"  assign y = {terms};",
        "endmodule",
    ])
    return [("wide_sum.hdl", src + "\n")], "wide_sum"


def elif_chain_design() -> tuple[list[tuple[str, str]], str]:
    """An `always @(*)` block with an ELIF_ARMS-arm `else if` chain."""
    lines = [
        "module elif_chain(",
        "  input clk,",
        "  input rst,",
        "  input [7:0] a,",
        "  output reg [7:0] y",
        ");",
        "  always @(*) begin",
        "    if (a == 0) y = 1;",
    ]
    for k in range(1, ELIF_ARMS):
        lines.append(f"    else if (a == {k}) y = {(k + 1) & 0xFF};")
    lines.append("    else y = 0;")
    lines.append("  end")
    lines.append("endmodule")
    return [("elif_chain.hdl", "\n".join(lines) + "\n")], "elif_chain"


def expected_wide_sum(a: int) -> int:
    return (SUM_TERMS * a) & 0xFF


def expected_elif_chain(a: int) -> int:
    return (a + 1) & 0xFF if a < ELIF_ARMS else 0
