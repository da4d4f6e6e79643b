from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.meg import NodeKind, render_condition
from oracles import oracle_edges, oracle_enumerate_meps, oracle_simple_paths, validate_dot


def _meg(dut, name):
    return ls.build_meg(dut.hierarchy.modules[name], dut.hierarchy.modules)


def test_unconditional_shift_edge(cacheset):
    g = _meg(cacheset, "cacheset")
    edge = g.edges[("addr", "tag_addr")]
    assert edge.unconditional
    # the continuous assign sits on one line of the source
    assert len(edge.lines) == 1


def test_compare_annotates_way_and_hit(cacheset):
    g = _meg(cacheset, "cacheset")
    for dst in ("way", "hit"):
        edge = g.edges[("tag_addr", dst)]
        assert not edge.unconditional
        rendered = render_condition(edge)
        assert "tag_addr == tag" in rendered


def test_multiway_disjunction_collapses(cacheset_multiway):
    g = _meg(cacheset_multiway, "cacheset_multiway")
    edge = g.edges[("tag_addr", "hit")]
    assert len(edge.clauses) == 2
    texts = [" && ".join(t.expr for t in clause) for clause in edge.clauses]
    assert any("tag0" in t for t in texts)
    assert any("tag1" in t for t in texts)


def test_multiway_nested_conjunction(cacheset_multiway):
    g = _meg(cacheset_multiway, "cacheset_multiway")
    edge = g.edges[("hit", "fetch")]
    clause_with_nesting = [
        clause for clause in edge.clauses
        if any("hit == 0 && full != 1" in t.expr for t in clause)
        and any("valid0 == 1" in t.expr for t in clause)
    ]
    assert clause_with_nesting, "nested branch guards must conjoin on the edge"


def test_trivial_module_two_nodes_one_edge():
    h = ls.parse_design(
        [("t.hdl", "module t(input clk, input x, output y);\n  assign y = x;\nendmodule")]
    )
    g = ls.build_meg(h.modules["t"], h.modules)
    # clk is a node too, but carries no edges
    assert set(g.edges) == {("x", "y")}
    assert {n.id for n in g.nodes.values()} == {"clk", "x", "y"}


def test_node_partition(cacheset, serdiv, ct_alu, cacheset_multiway):
    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        for name, m in dut.hierarchy.modules.items():
            g = ls.build_meg(m, dut.hierarchy.modules)
            by_kind = {kind: 0 for kind in NodeKind}
            for node in g.nodes.values():
                by_kind[node.kind] += 1
            assert sum(by_kind.values()) == len(g.nodes)
            assert by_kind[NodeKind.INSTANCE] == len(m.instances)
            # ports dominate: every port keeps Input/Output kind
            for port in m.ports:
                kind = g.nodes[port.name].kind
                assert kind in (NodeKind.INPUT, NodeKind.OUTPUT)


def test_ports_dominate_but_clockedness_survives(cacheset):
    g = _meg(cacheset, "cacheset")
    way = g.nodes["way"]
    assert way.kind is NodeKind.OUTPUT
    assert way.clocked


_LEAF = "module leaf(input a, output y);\n  assign y = a;\nendmodule\n"


@pytest.mark.parametrize("top, want", [
    # A wire from one instance's output to another's input.
    ("module top(input clk, input rst, input i, output o);\n  wire w;\n"
     "  leaf u1(.a(i), .y(w));\n  leaf u2(.a(w), .y(o));\nendmodule\n",
     {("i", "u1"), ("u1", "w"), ("w", "u2"), ("u2", "o")}),
    # A wire nothing drives, bound to an input.
    ("module top(input clk, input rst, output o);\n  wire w;\n"
     "  leaf u1(.a(w), .y(o));\nendmodule\n",
     {("w", "u1"), ("u1", "o")}),
], ids=["instance-to-instance", "undriven-input"])
def test_port_edges_follow_declared_directions(top, want):
    h = ls.parse_design([("t.hdl", _LEAF + top)], top="top")
    g = ls.build_meg(h.modules["top"], h.modules)
    assert set(g.edges) == want
    assert {(e.src, e.dst, e.lines) for e in g.edges.values()} == oracle_edges(h, "top")


def test_edge_oracle_soundness_completeness(cacheset, serdiv, ct_alu, cacheset_multiway):
    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        h = dut.hierarchy
        for name in h.modules:
            g = ls.build_meg(h.modules[name], h.modules)
            got = {(e.src, e.dst, e.lines) for e in g.edges.values()}
            want = oracle_edges(h, name)
            assert got == want, f"edge sets differ for {name}"


def test_disjunction_collapsing_preserves_reachability(cacheset_multiway):
    # The collapsed graph's reachability must equal the multigraph's; since
    # collapsing only merges parallel edges, adjacency equality is the check.
    g = _meg(cacheset_multiway, "cacheset_multiway")
    adjacency = {(e.src, e.dst) for e in g.edges.values()}
    assert len(adjacency) == len(g.edges)


def test_self_edges_recorded_but_not_in_paths(serdiv):
    g = _meg(serdiv, "divider")
    self_edges = [e for (s, d), e in g.edges.items() if s == d]
    assert self_edges, "counter updates should self-depend"
    for path in ls.enumerate_meps(g).paths:
        ids = path.node_ids
        assert len(set(ids)) == len(ids)


def test_meps_cachet_golden(cacheset):
    g = _meg(cacheset, "cacheset")
    seqs = {p.node_ids for p in ls.enumerate_meps(g).paths}
    assert ("addr", "tag_addr", "way") in seqs
    assert (
        "addr", "tag_addr", "hit", "fetch", "mem_call", "complete", "way"
    ) in seqs


def test_meps_endpoint_kinds(cacheset, serdiv):
    for dut in (cacheset, serdiv):
        for name, m in dut.hierarchy.modules.items():
            g = ls.build_meg(m, dut.hierarchy.modules)
            for path in ls.enumerate_meps(g).paths:
                assert g.nodes[path.edges[0].src].kind is NodeKind.INPUT
                assert g.nodes[path.edges[-1].dst].kind is NodeKind.OUTPUT
                for a, b in zip(path.edges, path.edges[1:]):
                    assert a.dst == b.src


def test_no_connectivity_means_no_paths():
    h = ls.parse_design(
        [("t.hdl", "module t(input clk, input x, output y);\nendmodule")]
    )
    g = ls.build_meg(h.modules["t"], h.modules)
    assert ls.enumerate_meps(g).paths == []


def _random_dag(rng: random.Random):
    n = rng.randint(2, 10)
    nodes = [f"n{i}" for i in range(n)]
    inputs = set(rng.sample(nodes, rng.randint(1, max(1, n // 3))))
    remaining = [x for x in nodes if x not in inputs]
    outputs = set(rng.sample(remaining, rng.randint(1, max(1, len(remaining) // 2)))) if remaining else set()
    edges = set()
    for i in range(n):
        for j in range(n):
            if i < j and rng.random() < 0.35:
                edges.add((nodes[i], nodes[j]))
    return nodes, inputs, outputs, edges


def _meg_from_parts(nodes, inputs, outputs, edges) -> ls.Meg:
    from leakscope.hdl_ast import SourceLoc
    from leakscope.meg import Meg, MegEdge, MegNode

    loc = SourceLoc("synthetic", 1, 1)
    g = Meg(module_name="synthetic")
    for name in nodes:
        if name in inputs:
            kind = NodeKind.INPUT
        elif name in outputs:
            kind = NodeKind.OUTPUT
        else:
            kind = NodeKind.COMBINATIONAL
        g.nodes[name] = MegNode(name, kind, loc, False)
    for src, dst in sorted(edges):
        g.edges[(src, dst)] = MegEdge(src, dst, (), frozenset({1}), (loc,))
    return g


def test_enumeration_matches_bruteforce_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        nodes, inputs, outputs, edges = _random_dag(rng)
        g = _meg_from_parts(nodes, inputs, outputs, edges)
        result = ls.enumerate_meps(g, max_paths=100_000, max_len=64)
        assert not result.truncated
        got = {p.node_ids for p in result.paths}
        want = oracle_simple_paths(inputs, outputs, set(nodes), edges)
        assert got == want


def test_enumeration_truncation_flag():
    # Dense bipartite-ish DAG with many paths; tiny cap must trip the flag.
    nodes = [f"n{i}" for i in range(10)]
    inputs, outputs = {nodes[0]}, {nodes[-1]}
    edges = {(nodes[i], nodes[j]) for i in range(10) for j in range(i + 1, 10)}
    g = _meg_from_parts(nodes, inputs, outputs, edges)
    result = ls.enumerate_meps(g, max_paths=5, max_len=64)
    assert result.truncated and len(result.paths) == 5


_NODES = [f"n{i}" for i in range(7)]


@given(
    st.sets(st.sampled_from(_NODES), min_size=1),
    st.sets(st.sampled_from(_NODES)),
    st.sets(st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES))),
    st.integers(1, 20),
    st.integers(0, 7),
)
@settings(max_examples=300, deadline=None)
def test_enumeration_walk_equals_recursive_oracle(inputs, outputs, edges, max_paths, max_len):
    # Any digraph, cycles and self-edges included: the same paths in the
    # same order, cut at the same path with the same flag.
    g = _meg_from_parts(_NODES, inputs, outputs - inputs, edges)
    got = ls.enumerate_meps(g, max_paths, max_len)
    want = oracle_enumerate_meps(g, max_paths, max_len)
    assert (got.paths, got.truncated) == (want.paths, want.truncated)


def test_enumeration_deterministic(cacheset):
    g = _meg(cacheset, "cacheset")
    a = [p.id for p in ls.enumerate_meps(g).paths]
    b = [p.id for p in ls.enumerate_meps(g).paths]
    assert a == b


def test_dot_export_valid_and_styled(cacheset):
    g = _meg(cacheset, "cacheset")
    dot = ls.export_dot(g)
    assert validate_dot(dot) == []
    dashed = [ln for ln in dot.splitlines() if "style=dashed" in ln]
    assert len(dashed) == 1 and "mem_call" in dashed[0]
    doubled = [ln for ln in dot.splitlines() if "doublecircle" in ln]
    assert len(doubled) == 1 and "way" in doubled[0]


def test_dot_two_node_graph():
    h = ls.parse_design(
        [("t.hdl", "module t(input clk, input x, output y);\n  assign y = x;\nendmodule")]
    )
    dot = ls.export_dot(ls.build_meg(h.modules["t"], h.modules))
    assert validate_dot(dot) == []
    assert sum(1 for ln in dot.splitlines() if "->" in ln) == 1


def test_dot_valid_for_all_bundled(cacheset, serdiv, ct_alu, cacheset_multiway):
    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        for m in dut.hierarchy.modules.values():
            assert validate_dot(ls.export_dot(ls.build_meg(m, dut.hierarchy.modules))) == []


def test_json_export_shape(cacheset):
    doc = ls.export_json(_meg(cacheset, "cacheset"))
    assert doc["module"] == "cacheset"
    node = doc["nodes"][0]
    assert set(node) == {"id", "kind", "loc"}
    edge = next(e for e in doc["edges"] if e["from"] == "tag_addr" and e["to"] == "hit")
    assert edge["lines"] and edge["clauses"]
    assert {"expr", "line"} == set(edge["clauses"][0][0])


def test_find_mep_rejects_missing_edge(cacheset):
    g = _meg(cacheset, "cacheset")
    with pytest.raises(ls.PathNotInGraph):
        ls.find_mep(g, ("addr", "way"))


def test_bitselect_index_signals_are_operands():
    src = (
        "module t(input clk, input [7:0] v, input [2:0] i, output y);\n"
        "  assign y = v[i];\n"
        "endmodule"
    )
    h = ls.parse_design([("t.hdl", src)])
    g = ls.build_meg(h.modules["t"], h.modules)
    # the whole parent vector and the dynamic index both feed the target
    assert ("v", "y") in g.edges
    assert ("i", "y") in g.edges
