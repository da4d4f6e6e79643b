"""What the front end and the code generator produce, pinned by digest.

Per design, four SHA-256 digests, one per layer: `codegen` over the
source of every generated function (`_module_code` per module,
`_port_code` per instance), `meg` over every MEG edge with its clauses,
lines and locs, `paths` over every enumerated path condition, and `sva`
over the emitted cover properties of every module, joined as
`coverage --emit-sva` joins them. A refactor of the AST, the parser, the
MEG builder, codegen or SVA emission must leave all of it
byte-identical. Regenerate an entry of tests/golden/codegen_digests.json
only for an intended change to its layer, and state the reason where the
change is recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import leakscope as ls
from leakscope.coverage import emit_sva_file, path_condition
from leakscope.meg import build_meg, enumerate_meps
from leakscope.simulator import _module_code, _port_code

_GOLDEN = Path(__file__).parent / "golden" / "codegen_digests.json"
_DUTS = ["cacheset", "cacheset_multiway", "serdiv", "ct_alu"]
_PORTS = "input clk, input rst, input [3:0] a, input [3:0] b, output reg [3:0] y, output reg [3:0] r"

# `else if` chains with and without a final else, an empty arm, an arm
# holding its own if, and a clocked chain.
_CHAIN = f"""
module chain({_PORTS});
  always @(*) begin
    if (a == 0) y = 1;
    else if (a == 1) begin end
    else if (a < b) y = a + b;
    else if (a[0]) begin y = 2; if (b == 3) y = 3; end
    else y = b;
  end
  always @(posedge clk)
    if (rst) r <= 0;
    else if (a == b) r <= r + 1;
    else if (b[1:0] == 2) r <= a;
endmodule
"""

# Arms with and without bodies, a case nested in an arm, a case with no
# default, one with only a default, and an if chain inside a case arm.
_CASE = f"""
module cases({_PORTS});
  always @(*) begin
    case (a)
      0: y = 1;
      1: begin end
      2: case (b) 0: y = 2; default: y = 3; endcase
      default: y = b;
    endcase
    case (b + a) 3: y = 4; endcase
    case (a) default: y = 5; endcase
  end
  always @(posedge clk)
    case (a[1:0])
      1: r <= b;
      2: if (b == 0) r <= 1; else if (b == 1) r <= 2;
    endcase
endmodule
"""

# `else begin if ... end` with and without an else of its own, an else
# block of two statements, a chain guard deep enough to be bound to a
# temporary, and an instance whose port map reads a chain's output.
_DEEP_GUARD = "(a + " * 70 + "b" + ")" * 70
_NESTED = f"""
module leaf(input clk, input [3:0] d, output [3:0] q);
  assign q = d ^ 4'd5;
endmodule
module nested({_PORTS});
  wire [3:0] q;
  leaf u(.clk(clk), .d(y + a), .q(q));
  always @(*) begin
    y = 0;
    if (a == 0) y = 1;
    else begin
      if (a == 1) y = 2;
      else begin if (b == 2) y = 3; end
    end
    if (b == 1) y = 4;
    else begin
      if (a == 5) y = 5;
      y = y + 1;
    end
    if (a == 9) case (b) 1: if (q == 2) y = 6; else y = 7; endcase
    else if ({_DEEP_GUARD} == 3) y = 8;
    else if (q[2]) begin if (b == 7) begin end else y = 9; end
  end
  always @(posedge clk) begin
    r <= q;
    if (a == 1) r <= 1;
    else begin if (b == 1) r <= 2; else r <= 3; end
  end
endmodule
"""
_LOCAL = {"chain": _CHAIN, "cases": _CASE, "nested": _NESTED}


def _design(name: str) -> ls.DesignHierarchy:
    if name in _LOCAL:
        return ls.parse_design([(f"{name}.hdl", _LOCAL[name])], top=name)
    return ls.load_dut(name).hierarchy


def codegen_digests(h: ls.DesignHierarchy) -> dict[str, str]:
    """Per layer, the SHA-256 of its parts: generated sources, module by
    module in name order, then port maps by instance; MEG edges and path
    conditions and SVA files, module by module in name order."""
    parts: dict[str, list[str]] = {"codegen": [], "meg": [], "paths": [], "sva": []}
    for name in sorted(h.modules):
        m = h.modules[name]
        parts["codegen"].append(repr(_module_code(m)))
        g = build_meg(m, h.modules)
        for key in sorted(g.edges):
            edge = g.edges[key]
            parts["meg"].append(repr((key, edge.clauses, sorted(edge.lines), edge.locs)))
        conditions = [path_condition(p, g) for p in enumerate_meps(g)]
        parts["paths"] += map(repr, conditions)
        parts["sva"].append(emit_sva_file(conditions, name))
    modules = {inst.path: h.modules[inst.module_name] for inst in h.instances}
    for inst in h.instances:
        if inst.decl is not None:
            code = _port_code(modules[inst.parent], modules[inst.path], inst.decl)
            parts["codegen"].append(repr(code))
    return {
        layer: hashlib.sha256("\n".join(texts).encode()).hexdigest()
        for layer, texts in parts.items()
    }


@pytest.mark.parametrize("name", _DUTS + list(_LOCAL))
def test_codegen_matches_golden_digest(name):
    assert codegen_digests(_design(name)) == json.loads(_GOLDEN.read_text())[name]
