from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.cli import main
from leakscope.parser import MAX_NESTING, MAX_STMT_NESTING
from leakscope.simulator import _module_code
from oracles import validate_dot
from reference_sim import reference_simulate


@pytest.fixture()
def cacheset_files(tmp_path, cacheset):
    paths = []
    for name, text in cacheset.sources:
        p = tmp_path / name
        p.write_text(text)
        paths.append(str(p))
    return paths


def test_usage_error_exit_1(capsys):
    assert main(["graph", "--bogus-flag"]) == 1


def test_unknown_subcommand_exit_1():
    assert main(["frobnicate"]) == 1


def test_parse_and_dump(tmp_path, cacheset_files, capsys):
    out = tmp_path / "ast.json"
    assert main(["parse", *cacheset_files, "--top", "cacheset", "--dump-ast", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["top"] == "cacheset"
    captured = capsys.readouterr()
    assert "level 2: cacheset.mem_call" in captured.out


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.hdl"
    bad.write_text("module m(input clk)\nendmodule")  # missing semicolon
    assert main(["parse", str(bad)]) == 2


_LEAF2 = """module leaf(input clk, input a, output y, output z);
  assign y = a;
  assign z = !a;
endmodule
"""
_TOP = "module t(input clk, input rst, input a, output reg r, output y);\n  wire w, u, q;\n"


@pytest.mark.parametrize("body, second, first", [
    ("  assign w = a;\n  assign w = !a;\n", "8:3", 7),
    ("  always @(*) r = a;\n  always @(*) begin if (a) r = 0; end\n", "8:28", 7),
    ("  assign w = a;\n  leaf l(.clk(clk), .a(a), .y(w), .z(u));\n", "8:31", 7),
    ("  leaf l0(.clk(clk), .a(a), .y(w), .z(u));\n  leaf l1(.z(q), .y(w), .a(a), .clk(clk));\n",
     "8:21", 7),
    ("  leaf l(.clk(clk), .a(a), .y(w), .z(w));\n", "7:38", 7),
], ids=["two-assigns", "two-comb-blocks", "assign-and-output", "two-instances", "one-instance"])
def test_second_combinational_driver_exit_2(tmp_path, body, second, first):
    """A signal with two combinational drivers is an error at the second
    one, naming the first one's line, in every command that links."""
    src, stim = tmp_path / "drv.hdl", tmp_path / "stim.json"
    src.write_text(_LEAF2 + _TOP + body + "  assign y = w;\nendmodule\n")
    stim.write_text('[{"tag": "a", "data": {"a": 1}, "hold": 1}]')
    for argv in (["parse", str(src)], ["sim", str(src), "--stim", str(stim)]):
        rc, err = _run_quietly(argv)
        assert rc == 2, argv
        assert f"drv.hdl:{second}: " in err and f"the first is on line {first}" in err, err
        assert "Traceback" not in err


def test_comb_and_clocked_writes_to_one_reg_parse():
    """Clocked writes happen outside settling, so a reg driven by one
    always @(*) block and one clocked block has one combinational driver."""
    src = _TOP + "  always @(*) r = a;\n  always @(posedge clk) r = r;\n  assign y = r;\nendmodule\n"
    ls.parse_design([("one.hdl", src)], top="t")


def test_graph_dot_golden(tmp_path, capsys):
    out = tmp_path / "g.dot"
    rc = main(["graph", "--dut", "cacheset", "--module", "cacheset", "--dot", str(out)])
    assert rc == 0
    text = out.read_text()
    assert validate_dot(text) == []
    dashed = [ln for ln in text.splitlines() if "style=dashed" in ln]
    assert len(dashed) == 1 and "mem_call" in dashed[0]


def test_graph_meps_listing(capsys):
    assert main(["graph", "--dut", "cacheset", "--module", "cacheset", "--meps"]) == 0
    out = capsys.readouterr().out
    assert "addr -> tag_addr -> way" in out


def test_sim_emits_vcd(tmp_path, cacheset, capsys):
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "req=1", "data": {"addr": 40, "lock": 0}, "hold": 4}]')
    vcd = tmp_path / "run.vcd"
    rc = main(["sim", "--dut", "cacheset", "--stim", str(stim), "--vcd", str(vcd)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cacheset: execution time 3 cycles" in out
    bundle = ls.load_vcd(vcd.read_text())
    assert bundle.cycles > 0


@pytest.mark.parametrize(
    "addr, hold, message",
    [
        ("null", "1", "data value 'addr' must be a JSON integer, not null"),
        ('"0x10"', "1", "data value 'addr' must be a JSON integer, not \"0x10\""),
        ("[1]", "1", "data value 'addr' must be a JSON integer, not [1]"),
        ("1e400", "1", "data value 'addr' must be a JSON integer, not Infinity"),
        ("1.5", "1", "data value 'addr' must be a JSON integer, not 1.5"),
        ("true", "1", "data value 'addr' must be a JSON integer, not true"),
        ("40", '"2"', "'hold' must be a JSON integer, not \"2\""),
    ],
    ids=["null", "hex-string", "list", "overflow", "fraction", "bool", "string-hold"],
)
def test_sim_rejects_non_integer_stimulus_values(tmp_path, capsys, addr, hold, message):
    stim = tmp_path / "stim.json"
    stim.write_text(
        '[{"tag": "req=1", "data": {"addr": 40, "lock": 0}, "hold": 1},'
        f' {{"tag": "req=1", "data": {{"addr": {addr}, "lock": 0}}, "hold": {hold}}}]'
    )
    rc = main(["sim", "--dut", "cacheset", "--stim", str(stim)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"StimulusError: step 1: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-cycles", "-5"], "max cycles must be at least 1, got -5"),
        (["--max-cycles", "0"], "max cycles must be at least 1, got 0"),
        (["--quiescence", "-1"], "quiescence window must not be negative, got -1"),
    ],
    ids=["negative-max-cycles", "zero-max-cycles", "negative-quiescence"],
)
def test_sim_bad_limit_exit_2(tmp_path, capsys, flags, message):
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "req=1", "data": {"addr": 40, "lock": 0}, "hold": 4}]')
    rc = main(["sim", "--dut", "cacheset", "--stim", str(stim), *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"SimulationLimitError: {message}" in captured.err
    assert "Traceback" not in captured.err and "simulated" not in captured.out


def test_sim_smallest_limits_run(tmp_path, capsys):
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "req=1", "data": {"addr": 40, "lock": 0}, "hold": 4}]')
    assert main(["sim", "--dut", "cacheset", "--stim", str(stim), "--max-cycles", "1"]) == 0
    assert "simulated 1 cycles (max cycles reached)" in capsys.readouterr().out
    assert main(["sim", "--dut", "cacheset", "--stim", str(stim), "--quiescence", "0"]) == 0
    assert "max cycles reached" not in capsys.readouterr().out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# Steps near the stimulus format, so that runs get past the format checks.
_STEP = st.fixed_dictionaries(
    {"tag": st.sampled_from(["start=1;op=1", "start=0", "start=2", "op=1;;start=1", "clk=1", "x"])},
    optional={
        "data": st.dictionaries(st.sampled_from(["a", "b", "rst", "nope"]),
                                st.integers(-1, 300) | _JSON, max_size=3),
        "hold": st.integers(-2, 10**12) | _JSON,
    },
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_JSON, st.lists(_STEP, max_size=5)).map(json.dumps) | st.text(max_size=20),
    st.none() | st.integers(-3, 10**5),
    st.none() | st.integers(-3, 10**9),
)
@example("[" * 100_000 + "]" * 100_000, None, None)
def test_sim_any_stimulus_and_limits_end_in_a_result_or_exit_2(text, max_cycles, quiescence):
    """Whatever the stimulus file and the numeric flags hold, `sim` either
    runs (0) or reports the problem (2), never with a traceback. Max cycles
    stay at or below 10**5, so no run records more rows than that."""
    with tempfile.TemporaryDirectory() as tmp:
        stim = Path(tmp) / "stim.json"
        stim.write_text(text)
        argv = ["sim", "--dut", "ct_alu", "--stim", str(stim)]
        if max_cycles is not None:
            argv += ["--max-cycles", str(max_cycles)]
        if quiescence is not None:
            argv += ["--quiescence", str(quiescence)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_analyze_stim_pair_and_fail_on_finding(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('[{"tag": "start=1", "data": {"dividend": 9, "divisor": 0}, "hold": 2}]')
    b.write_text('[{"tag": "start=1", "data": {"dividend": 9, "divisor": 3}, "hold": 2}]')
    out = tmp_path / "findings.json"
    rc = main([
        "analyze", "--dut", "serdiv", "--stim-a", str(a), "--stim-b", str(b),
        "--out", str(out), "--fail-on-finding",
    ])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["findings"]
    rc_same = main(["analyze", "--dut", "serdiv", "--stim-a", str(a), "--stim-b", str(a)])
    assert rc_same == 0


@pytest.mark.parametrize("min_delta", ["0", "-7"])
def test_analyze_min_delta_below_one_exit_2(tmp_path, capsys, min_delta):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('[{"tag": "start=1", "data": {"dividend": 9, "divisor": 0}, "hold": 2}]')
    b.write_text('[{"tag": "start=1", "data": {"dividend": 9, "divisor": 3}, "hold": 2}]')
    rc = main([
        "analyze", "--dut", "serdiv", "--stim-a", str(a), "--stim-b", str(b),
        "--min-delta", min_delta,
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"min delta must be at least 1, got {min_delta}" in captured.err
    assert "Traceback" not in captured.err and "finding" not in captured.out


def test_diagnose_identical_vcds_exit_2(tmp_path, cacheset, capsys):
    bundle = ls.simulate(cacheset.hierarchy, cacheset.stimuli["hit"])
    vcd = tmp_path / "run.vcd"
    vcd.write_text(ls.write_vcd(bundle))
    rc = main(["diagnose", str(vcd), str(vcd), "--dut", "cacheset", "--module", "cacheset"])
    assert rc == 2
    assert "NoDivergence" in capsys.readouterr().err


def test_diagnose_hit_miss(tmp_path, cacheset, capsys):
    hit = ls.simulate(cacheset.hierarchy, cacheset.stimuli["hit"])
    miss = ls.simulate(cacheset.hierarchy, cacheset.stimuli["miss_free"])
    av, bv = tmp_path / "a.vcd", tmp_path / "b.vcd"
    av.write_text(ls.write_vcd(hit))
    bv.write_text(ls.write_vcd(miss))
    out = tmp_path / "diag.json"
    rc = main([
        "diagnose", str(av), str(bv), "--dut", "cacheset", "--module", "cacheset",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    record = doc["diagnoses"][0]
    culprits = {c["signal"] for c in record["culprits"]}
    assert "hit" in culprits
    # The runs are named by the VCD paths as given: every `sim --vcd` dump
    # carries the same seed id.
    assert (record["runA"], record["runB"]) == (str(av), str(bv))
    want = ls.diagnose(
        ls.load_vcd_file(av).trace("cacheset"), ls.load_vcd_file(bv).trace("cacheset"),
        ls.build_megs(cacheset.hierarchy.modules)["cacheset"],
    )
    assert record["frontier"] == [list(layer) for layer in want.frontier_trace]


_VCD_HEADER = (
    "$timescale 1ns $end\n"
    "$scope module cacheset $end\n"
    "$var wire 1 ! clk $end\n"
    "$var wire 8 \" addr $end\n"
    "$upscope $end\n"
    "$enddefinitions $end\n"
)


@pytest.mark.parametrize(
    "text, line, message",
    [
        (_VCD_HEADER + "#0\n1!\nb12 \"\n", 9, "bad vector value in 'b12 \"'"),
        (_VCD_HEADER.replace("wire 8", "wire -3") + "#0\n1!\n", 4, "width out of range"),
        (_VCD_HEADER.replace("wire 8", "wire 1000000000000") + "#0\n1!\nb1 \"\n", 4,
         "width out of range"),
        ("$comment leakscope start_cycle=abc $end\n" + _VCD_HEADER + "#0\n1!\n", 1,
         "bad start cycle 'start_cycle=abc'"),
        (_VCD_HEADER + "#0\n1!\n#1\n0!\n1?\n", 11, "value change for undeclared id '?'"),
    ],
    ids=["bad-vector-digit", "negative-width", "huge-width", "bad-start-cycle", "undeclared-id"],
)
def test_malformed_vcd_exit_2_with_its_line(tmp_path, capsys, text, line, message):
    bad, good = tmp_path / "bad.vcd", tmp_path / "good.vcd"
    bad.write_text(text)
    good.write_text(_VCD_HEADER + "#0\n1!\nb0 \"\n")
    for args in (["diagnose", str(bad), str(good)], ["diagnose", str(good), str(bad)]):
        assert main([*args, "--dut", "cacheset"]) == 2
        err = capsys.readouterr().err
        assert f"VcdParseError: VCD line {line}: {message}" in err and "Traceback" not in err


def test_non_utf8_inputs_exit_2(tmp_path, capsys):
    vcd = tmp_path / "bad.vcd"
    vcd.write_bytes(_VCD_HEADER.encode() + b"#0\n1!\nb0 \xff\n")
    assert main(["diagnose", str(vcd), str(vcd), "--dut", "cacheset"]) == 2
    err = capsys.readouterr().err
    assert "VcdParseError: VCD line 9: not UTF-8 text" in err and "Traceback" not in err
    stim = tmp_path / "stim.json"
    stim.write_bytes(b'[{"tag": "req=1\xff"}]')
    assert main(["sim", "--dut", "cacheset", "--stim", str(stim)]) == 2
    err = capsys.readouterr().err
    assert "StimulusError" in err and "not UTF-8 text" in err and "Traceback" not in err
    (tmp_path / "summary.txt").write_bytes(b"== campaign: x ==\nseeds \xff\n")
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'summary.txt'}:2:7: not UTF-8 text" in err and "Traceback" not in err


def test_non_utf8_sources_and_profiles_exit_2(tmp_path, capsys, ct_alu):
    """HDL sources and `--profile` files that are not UTF-8 exit 2 naming the
    file and the first bad byte, in every command that reads them."""
    hdl = tmp_path / "bad.hdl"
    hdl.write_bytes(ct_alu.sources[0][1].encode() + b"\n// caf\xe9\n")
    line = ct_alu.sources[0][1].count("\n") + 2
    stim = tmp_path / "stim.json"
    stim.write_text(json.dumps([{"tag": "start=1", "data": {}}]))
    profile = tmp_path / "profile.json"
    profile.write_bytes(b'{"top": "ct_alu\xff"}')
    runs = [
        (["parse", str(hdl)], f"{hdl}:{line}:7: not UTF-8 text"),
        (["graph", str(hdl)], f"{hdl}:{line}:7: not UTF-8 text"),
        (["sim", str(hdl), "--stim", str(stim)], f"{hdl}:{line}:7: not UTF-8 text"),
        (["diagnose", "a.vcd", "b.vcd", "--design", str(hdl)], f"{hdl}:{line}:7: not UTF-8 text"),
        (["fuzz", "--dut", "ct_alu", "--profile", str(profile)], f"{profile}:1:16: not UTF-8 text"),
    ]
    for argv, message in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


_CT_ALU_DIR = Path(ls.__file__).parent / "dut" / "ct_alu"
_JUNK = st.binary(max_size=40) | st.text(max_size=40).map(str.encode)


@settings(max_examples=150, deadline=None)
@given(_JUNK, st.integers(0, 10**6), st.sampled_from(["parse", "graph"]))
def test_any_source_bytes_end_in_a_result_or_exit_2(junk, at, command):
    """Bytes spliced into a real source, UTF-8 or not, parse (0) or are
    reported (2), never with a traceback."""
    text = (_CT_ALU_DIR / "ct_alu.hdl").read_bytes()
    at %= len(text) + 1
    with tempfile.TemporaryDirectory() as tmp:
        hdl = Path(tmp) / "spliced.hdl"
        hdl.write_bytes(text[:at] + junk + text[at:])
        rc, err = _run_quietly([command, str(hdl)])
    assert rc in (0, 2) and "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(_JUNK, st.integers(0, 10**6), st.integers(0, 6))
def test_any_profile_bytes_end_in_a_result_or_exit_2(junk, at, cut):
    """A bundled profile with bytes spliced in, or cut out, runs a campaign
    (0) or is reported (2), never with a traceback."""
    text = (_CT_ALU_DIR / "profile.json").read_bytes()
    at %= len(text) + 1
    with tempfile.TemporaryDirectory() as tmp:
        profile = Path(tmp) / "profile.json"
        profile.write_bytes(text[:at] + junk + text[at + cut:])
        rc, err = _run_quietly([
            "fuzz", "--dut", "ct_alu", "--profile", str(profile), "--rounds", "1",
            "--mutants", "2", "--out", str(Path(tmp) / "campaign"),
        ])
    assert rc in (0, 2) and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"top": "ct_alu", "tags": [', "invalid DUT profile: JSONDecodeError"),
        ('{"top": "ct_alu"}', "invalid DUT profile: KeyError: 'tags'"),
        ('{"top": "ct_alu", "tags": 3, "data_inputs": []}', "invalid DUT profile: TypeError"),
        ('{"top": "ct_alu", "tags": [1], "data_inputs": []}', "invalid DUT profile: top, tags and data_inputs must be strings"),
        ("[" * 100_000, "invalid DUT profile"),
    ],
    ids=["truncated", "missing-key", "not-a-list", "not-strings", "deep"],
)
def test_malformed_profile_exit_2(tmp_path, capsys, text, message):
    profile = tmp_path / "profile.json"
    profile.write_text(text)
    assert main(["fuzz", "--dut", "ct_alu", "--profile", str(profile)]) == 2
    err = capsys.readouterr().err
    assert f"{profile}: {message}" in err and "Traceback" not in err


def test_coverage_emit_and_match(tmp_path, capsys):
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "req=1", "data": {"addr": 40, "lock": 0}, "hold": 4}]')
    sva = tmp_path / "props.sv"
    out = tmp_path / "cov.json"
    rc = main([
        "coverage", "--dut", "cacheset", "--stim", str(stim),
        "--emit-sva", str(sva), "--out", str(out),
    ])
    assert rc == 0
    assert ls.sva_lint(sva.read_text()) == []
    doc = json.loads(out.read_text())
    assert doc["perModule"]["cacheset"]["coveredPaths"] >= 1


_TWIN_SRC = """
module ma(input clk, input rst, input x, input y, output reg z);
  always @(posedge clk) begin
    if (x == 0) begin
      z <= 1;
    end
  end
endmodule

module mb(input clk, input rst, input x, input y, output reg z);
  always @(posedge clk) begin
    z <= y;
  end
endmodule

module top(input clk, input rst, input a, output o1, output o2);
  ma u1(.clk(clk), .rst(rst), .x(~a), .y(a), .z(o1));
  mb u2(.clk(clk), .rst(rst), .x(1'b0), .y(a), .z(o2));
endmodule
"""


def test_coverage_credits_only_instances_of_the_module(tmp_path, capsys):
    # ma and mb declare the same signal names. Only top.u1 instantiates ma,
    # and its x is ~a = 1 throughout, so ma's path x -> z stays uncovered
    # even though top.u2 (an mb) holds x == 0.
    src = tmp_path / "twin.hdl"
    src.write_text(_TWIN_SRC)
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "a=0", "data": {}, "hold": 3}]')
    out = tmp_path / "cov.json"
    rc = main(["coverage", str(src), "--top", "top", "--stim", str(stim), "--out", str(out)])
    assert rc == 0
    per_module = json.loads(out.read_text())["perModule"]
    assert per_module["ma"] == {"coveredPaths": 0, "totalPaths": 1, "truncated": False}
    assert per_module["mb"]["coveredPaths"] == per_module["mb"]["totalPaths"] == 1


_GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "campaign_digests.json"
# The human-readable artifacts of the same campaigns (summary, CSV and one
# DOT file per module), kept apart: every BENCH_*.json must equal its
# campaign_digests.json entry.
_REPORT_DIGESTS = Path(__file__).parent / "golden" / "report_digests.json"


@pytest.mark.parametrize("dut", sorted(json.loads(_GOLDEN_DIGESTS.read_text())))
def test_campaign_artifacts_match_golden_digests(tmp_path, dut):
    # The behaviour contract: a seed-42 campaign writes these exact bytes.
    want = json.loads(_GOLDEN_DIGESTS.read_text())[dut]
    reports = json.loads(_REPORT_DIGESTS.read_text())[dut]
    outdir = tmp_path / dut
    assert main(["fuzz", "--dut", dut, "--seed", "42", "--out", str(outdir)]) == 0

    def digests(names):
        return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in names}

    assert digests(want) == want
    assert {p.name for p in outdir.glob("*.dot")} <= set(reports)
    assert digests(reports) == reports


def test_fuzz_fail_on_finding_exit_3(tmp_path):
    outdir = tmp_path / "campaign"
    rc = main([
        "fuzz", "--dut", "serdiv", "--budget", "60s", "--seed", "42",
        "--mutants", "40", "--out", str(outdir), "--fail-on-finding",
    ])
    assert rc == 3
    assert (outdir / "findings.json").exists()
    assert (outdir / "summary.txt").exists()
    assert (outdir / "coverage.csv").exists()
    assert (outdir / "divider.dot").exists()


def test_fuzz_negative_control_exit_0(tmp_path):
    rc = main([
        "fuzz", "--dut", "ct_alu", "--budget", "60s", "--seed", "7",
        "--mutants", "20", "--fail-on-finding",
    ])
    assert rc == 0


def test_report_from_campaign_dir(tmp_path, capsys):
    outdir = tmp_path / "campaign"
    main(["fuzz", "--dut", "serdiv", "--seed", "42", "--mutants", "20", "--out", str(outdir)])
    capsys.readouterr()
    rc = main(["report", str(outdir)])
    assert rc == 0
    assert "timing findings" in capsys.readouterr().out
    rc = main(["report", str(outdir), "--format", "csv"])
    assert rc == 0
    assert "module,total_paths" in capsys.readouterr().out


def test_fuzz_config_file_and_env(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mutantsPerSeed": 15, "maxRounds": 3}')
    rc = main(["fuzz", "--dut", "ct_alu", "--seed", "1", "--config", str(cfg)])
    assert rc == 0


def test_diagnose_all_levels(tmp_path, cacheset, capsys):
    hit = ls.simulate(cacheset.hierarchy, cacheset.stimuli["hit"])
    miss = ls.simulate(cacheset.hierarchy, cacheset.stimuli["miss_free"])
    av, bv = tmp_path / "a.vcd", tmp_path / "b.vcd"
    av.write_text(ls.write_vcd(hit))
    bv.write_text(ls.write_vcd(miss))
    rc = main(["diagnose", str(av), str(bv), "--dut", "cacheset", "--all-levels"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cacheset.mem_call: divergence" in out
    assert "cacheset: divergence" in out


def test_coverage_csv_flag(tmp_path):
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "req=1", "data": {"addr": 40, "lock": 0}, "hold": 4}]')
    csv_out = tmp_path / "cov.csv"
    rc = main(["coverage", "--dut", "cacheset", "--stim", str(stim), "--csv", str(csv_out)])
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("module,total_paths")
    assert any(ln.startswith("cacheset,") for ln in lines)


def test_fuzz_config_values_take_effect(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mutantsPerSeed": 15, "maxRounds": 3}')
    outdir = tmp_path / "campaign"
    rc = main(["fuzz", "--dut", "ct_alu", "--seed", "1", "--config", str(cfg), "--out", str(outdir)])
    assert rc == 0
    doc = json.loads((outdir / "campaign.json").read_text())
    assert doc["config"]["mutantsPerSeed"] == 15
    assert doc["config"]["maxRounds"] == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"mutantsPerSeed": 15, "maxRou', "invalid JSON"),
        ('[{"maxRounds": 1}]', "must be a JSON object"),
        ('{"maxRound": 1}', "unknown config key(s) maxRound"),
        ('{"maxRounds": 1, "jobs": 2}', "unknown config key(s) jobs"),
        ('{"mutantsPerSeed": "many"}', "mutantsPerSeed must be a positive integer"),
        ('{"timeBudget": "soon"}', "invalid duration 'soon'"),
    ],
    ids=["truncated", "not-object", "misspelled-key", "stale-jobs-key", "wrong-type", "bad-budget"],
)
def test_fuzz_bad_config_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["fuzz", "--dut", "ct_alu", "--seed", "1", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mutants", "0"], "--mutants must be a positive integer"),
        (["--mutants", "-5"], "--mutants must be a positive integer"),
        (["--rounds", "0"], "--rounds must be a positive integer"),
        (["--rounds", "-3"], "--rounds must be a positive integer"),
        (["--seed-dir", "no/such/seed-dir"], "no/such/seed-dir: not a directory"),
    ],
    ids=["zero-mutants", "negative-mutants", "zero-rounds", "negative-rounds", "missing-seed-dir"],
)
def test_fuzz_bad_flag_exit_2(capsys, flags, message):
    rc = main(["fuzz", "--dut", "ct_alu", "--seed", "1", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert "campaign done" not in captured.out


def test_fuzz_empty_seed_dir_runs(tmp_path, capsys):
    assert main(["fuzz", "--dut", "ct_alu", "--mutants", "20", "--seed-dir", str(tmp_path)]) == 0
    assert "campaign done" in capsys.readouterr().out


@pytest.mark.parametrize("max_paths", ["0", "-3"])
@pytest.mark.parametrize("command", ["graph", "coverage"])
def test_max_paths_below_one_exit_2(capsys, command, max_paths):
    stim = Path(ls.__file__).parent / "dut" / "serdiv" / "stim_div0.json"
    flags = ["--meps"] if command == "graph" else ["--stim", str(stim)]
    rc = main([command, "--dut", "serdiv", "--max-paths", max_paths, *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"max paths must be at least 1, got {max_paths}" in captured.err
    assert "Traceback" not in captured.err and "paths" not in captured.out


@pytest.mark.parametrize("command", ["graph", "coverage"])
def test_max_len_below_zero_exit_2(capsys, command):
    stim = Path(ls.__file__).parent / "dut" / "serdiv" / "stim_div0.json"
    flags = ["--meps"] if command == "graph" else ["--stim", str(stim)]
    rc = main([command, "--dut", "serdiv", "--max-len", "-4", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert "max length must be at least 0, got -4" in captured.err
    assert "Traceback" not in captured.err and "paths" not in captured.out


def test_max_len_zero_finds_no_paths(capsys):
    assert main(["graph", "--dut", "serdiv", "--max-len", "0", "--meps"]) == 0
    out = capsys.readouterr().out
    assert "0 micro-event paths" in out and "->" not in out


def test_fuzz_non_utf8_config_exit_2_with_its_place(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{\n  "maxRounds": 1,\n  "timeBudget": "1\xffs"\n}\n')
    rc = main(["fuzz", "--dut", "ct_alu", "--seed", "1", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3:19: not UTF-8 text" in err and "Traceback" not in err


def test_fuzz_jobs_flag_is_gone():
    assert main(["fuzz", "--dut", "ct_alu", "--jobs", "2"]) == 1


def test_parse_ten_thousand_nested_parens_exit_2(tmp_path, capsys):
    src = tmp_path / "deep.hdl"
    src.write_text(
        "module deep(input clk, input [7:0] a, output [7:0] y);\n"
        f"  assign y = {'(' * 10_000}a{')' * 10_000};\nendmodule\n"
    )
    assert main(["parse", str(src)]) == 2
    err = capsys.readouterr().err
    assert f"deep.hdl:2:{14 + MAX_NESTING}: expression nested deeper than {MAX_NESTING} levels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, expected", [
    ("(" * 75 + "a ^ 8'd3" + ")" * 75, lambda a: a ^ 3),
    ("(a + " * 75 + "8'd1" + ")" * 75, lambda a: (75 * a + 1) & 0xFF),
], ids=["parens", "right-nested-sum"])
def test_seventy_five_nested_parens_simulate_like_reference(tmp_path, capsys, expr, expected):
    src = tmp_path / "deep.hdl"
    src.write_text(
        "module deep(input clk, input rst, input [7:0] a, output [7:0] y);\n"
        f"  assign y = {expr};\nendmodule\n"
    )
    stim_path = tmp_path / "stim.json"
    stim_path.write_text('[{"tag": "a", "data": {"a": 3}, "hold": 1},'
                         ' {"tag": "a", "data": {"a": 250}, "hold": 1}]')
    assert main(["parse", str(src)]) == 0
    assert main(["sim", str(src), "--stim", str(stim_path)]) == 0
    h = ls.parse_design([(str(src), src.read_text())])
    stim = ls.load_stimulus(str(stim_path))
    bundle = ls.simulate(h, stim)
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    assert bundle.trace("deep").signal_values == want["deep"]
    assert {expected(3), expected(250)} <= set(want["deep"]["y"])


_ELSE_CHAIN = "".join(f"a == {k} ? 8'd{k + 1} : " for k in range(150)) + "8'd0"
_THEN_CHAIN = "".join(f"a != {k} ? " for k in range(150)) + "8'd255" + "".join(
    f" : 8'd{k + 1}" for k in reversed(range(150))
)


@pytest.mark.parametrize("expr, expected", [
    (_ELSE_CHAIN, lambda a: a + 1 if a < 150 else 0),
    (_THEN_CHAIN, lambda a: a + 1 if a < 150 else 255),
], ids=["else-arms", "then-arms"])
def test_ternary_chain_of_150_arms_simulates_like_reference(tmp_path, capsys, expr, expected):
    src = tmp_path / "mux.hdl"
    src.write_text(
        "module mux(input clk, input rst, input [7:0] a, output [7:0] y);\n"
        f"  assign y = {expr};\nendmodule\n"
    )
    stim_path = tmp_path / "stim.json"
    stim_path.write_text('[{"tag": "a", "data": {"a": 3}, "hold": 1},'
                         ' {"tag": "a", "data": {"a": 149}, "hold": 1},'
                         ' {"tag": "a", "data": {"a": 250}, "hold": 1}]')
    assert main(["parse", str(src)]) == 0
    assert main(["sim", str(src), "--stim", str(stim_path)]) == 0
    h = ls.parse_design([(str(src), src.read_text())])
    stim = ls.load_stimulus(str(stim_path))
    bundle = ls.simulate(h, stim)
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    assert bundle.trace("mux").signal_values == want["mux"]
    assert {expected(3), expected(149), expected(250)} <= set(want["mux"]["y"])


def test_sim_else_if_chain_of_99_arms(tmp_path, capsys):
    lines = ["module chain(input clk, input rst, input [7:0] a, output reg [7:0] y);",
             "  always @(*) begin", "    if (a == 0) y = 1;"]
    lines += [f"    else if (a == {k}) y = {k + 1};" for k in range(1, 99)]
    lines += ["    else y = 0;", "  end", "endmodule"]
    src = tmp_path / "chain.hdl"
    src.write_text("\n".join(lines) + "\n")
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "a", "data": {"a": 98}, "hold": 1}]')
    vcd = tmp_path / "chain.vcd"
    assert main(["sim", str(src), "--stim", str(stim), "--vcd", str(vcd)]) == 0
    h = ls.parse_design([(str(src), src.read_text())])
    bundle = ls.load_vcd(vcd.read_text(), expect=h)
    want = reference_simulate(h, ls.load_stimulus(str(stim)), cycles=bundle.cycles)
    assert bundle.trace("chain").signal_values == want["chain"]
    assert want["chain"]["y"][-1] == 99


_DEEP = {
    "chain-101": (" + ".join(["a"] * 101), lambda a: 101 * a & 0xFF),
    "chain-1000": (" + ".join(["a"] * 1000), lambda a: 1000 * a & 0xFF),
    "chain-10000": (" + ".join(["a"] * 10_000), lambda a: 10_000 * a & 0xFF),
    "not-10000": ("~" * 10_000 + "a", lambda a: a),
    "not-9999": ("~" * 9_999 + "a", lambda a: a ^ 0xFF),
    "nest-100": ("(a + " * 100 + "a" + ")" * 100, lambda a: 101 * a & 0xFF),
    "select-1000": ("a[" + " + ".join(["a"] * 1000) + "]", lambda a: a >> (1000 * a & 0xFF) & 1),
}


@pytest.mark.parametrize("expr, expected", list(_DEEP.values()), ids=list(_DEEP))
def test_deep_expressions_run_through_every_command(tmp_path, expr, expected):
    """Expressions of any depth get through parse, graph, sim and coverage,
    and simulate to the value Python's arithmetic gives."""
    src = tmp_path / "deep.hdl"
    src.write_text(
        "module deep(input clk, input rst, input [7:0] a, output [7:0] y);\n"
        f"  assign y = {expr};\nendmodule\n"
    )
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "a", "data": {"a": 3}, "hold": 1},'
                    ' {"tag": "a", "data": {"a": 250}, "hold": 1}]')
    vcd, sva = tmp_path / "deep.vcd", tmp_path / "deep.sva"
    for argv in (
        ["parse", str(src)],
        ["graph", str(src), "--meps"],
        ["sim", str(src), "--stim", str(stim), "--vcd", str(vcd)],
        ["coverage", str(src), "--stim", str(stim), "--emit-sva", str(sva)],
    ):
        rc, err = _run_quietly(argv)
        assert (rc, err) == (0, ""), argv
    y = ls.load_vcd(vcd.read_text()).trace("deep").signal_values["y"]
    assert {expected(3), expected(250)} <= set(y)
    assert ls.sva_lint(sva.read_text()) == []


def test_two_thousand_level_hierarchy_runs_through_every_command(tmp_path):
    """A chain of 2,000 nested instances, each registering its input and
    passing it down, gets through parse, graph, sim and coverage: walking
    the hierarchy needs no Python recursion."""
    levels = 2000
    modules = []
    for k in range(levels):
        child = f"  m{k + 1} u(.clk(clk), .rst(rst), .a(a));\n" if k + 1 < levels else ""
        modules.append(
            f"module m{k}(input clk, input rst, input [3:0] a);\n"
            f"  reg [3:0] r;\n  always @(posedge clk) r <= a;\n{child}endmodule\n"
        )
    src = tmp_path / "chain.hdl"
    src.write_text("".join(modules))
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "a", "data": {"a": 3}, "hold": 1}]')
    vcd, sva = tmp_path / "chain.vcd", tmp_path / "chain.sva"
    for argv in (
        ["parse", str(src)],
        ["graph", str(src)],
        ["sim", str(src), "--stim", str(stim), "--vcd", str(vcd)],
        ["coverage", str(src), "--emit-sva", str(sva)],
    ):
        rc, err = _run_quietly(argv)
        assert (rc, err) == (0, ""), argv
    text = vcd.read_text()
    assert text.count("$scope module u $end") == levels - 1
    assert text.count("$upscope $end") == levels
    deepest = "m0" + ".u" * (levels - 1)
    assert 3 in ls.load_vcd(text).trace(deepest).signal_values["r"]
    assert ls.sva_lint(sva.read_text()) == []


def test_graph_meps_lists_a_path_through_two_instances(tmp_path, capsys):
    """A wire from one instance's output to another's input carries the
    path on, in the direction the child module declares."""
    src = tmp_path / "wire.hdl"
    src.write_text(
        "module leaf(input a, output y);\n  assign y = a;\nendmodule\n"
        "module top(input clk, input rst, input i, output o);\n  wire w;\n"
        "  leaf u1(.a(i), .y(w));\n  leaf u2(.a(w), .y(o));\nendmodule\n"
    )
    assert main(["graph", str(src), "--top", "top", "--module", "top", "--meps"]) == 0
    out = capsys.readouterr().out
    assert "  1 micro-event paths\n    i -> u1 -> w -> u2 -> o\n" in out


def test_thousand_wire_path_runs_through_graph_and_coverage(tmp_path):
    """`assign w0 = w1; … assign w1000 = a;` has one 1,002-edge path, which
    `graph --meps` and `coverage --emit-sva` walk without Python recursion
    once --max-len admits it."""
    lines = ["module chain(input clk, input rst, input a, output y);"]
    lines += [f"  wire w{k};" for k in range(1001)]
    lines += [f"  assign w{k} = w{k + 1};" for k in range(1000)]
    lines += ["  assign w1000 = a;", "  assign y = w0;", "endmodule", ""]
    src = tmp_path / "chain.hdl"
    src.write_text("\n".join(lines))
    sva = tmp_path / "chain.sva"
    for argv in (
        ["graph", str(src), "--meps", "--max-len", "2000"],
        ["coverage", str(src), "--max-len", "2000", "--emit-sva", str(sva)],
    ):
        rc, err = _run_quietly(argv)
        assert (rc, err) == (0, ""), argv
    text = sva.read_text()
    assert text.count("cover property") == 1 and text.count(" -> ") == 1002
    assert ls.sva_lint(text) == []


def _nested_statements(kind: str, levels: int) -> str:
    """An always @(*) block with `levels` nested bodies inside its own,
    through if bodies, else blocks or case arms; the innermost statement
    sets y = 7 when a = 200. The k-th nested body, from 0, opens on line
    4 + k and is statement level k + 2."""
    opener = {
        "if": "if (a != {k}) begin",
        "else": "if (a == {k}) y = 1; else begin",
        "case": "case (a) 200: begin",
    }[kind]
    closer = "end endcase" if kind == "case" else "end"
    lines = ["module deep(input clk, input rst, input [7:0] a, output reg [7:0] y);",
             "  always @(*) begin", "    y = 0;"]
    lines += [opener.format(k=k % 200) for k in range(levels)]
    lines += ["y = 8'd7;", *[closer] * levels, "  end", "endmodule"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["if", "else", "case"])
def test_statement_nesting_bound(tmp_path, kind):
    """Statements nest at most MAX_STMT_NESTING levels deep, the always
    block's body being level one, which keeps the generated code inside
    CPython's indentation limit: at the bound parse and sim exit 0, and one
    level past it or far past it both exit 2 naming the body that opens the
    level past the bound."""
    src = tmp_path / "deep.hdl"
    stim = tmp_path / "stim.json"
    stim.write_text('[{"tag": "a", "data": {"a": 200}, "hold": 1}]')
    src.write_text(_nested_statements(kind, MAX_STMT_NESTING - 1))
    vcd = tmp_path / "deep.vcd"
    assert _run_quietly(["parse", str(src)]) == (0, "")
    assert _run_quietly(["sim", str(src), "--stim", str(stim), "--vcd", str(vcd)]) == (0, "")
    assert ls.load_vcd(vcd.read_text()).trace("deep").signal_values["y"][-1] == 7
    for levels in (MAX_STMT_NESTING, 1000):
        src.write_text(_nested_statements(kind, levels))
        for argv in (["parse", str(src)], ["sim", str(src), "--stim", str(stim)]):
            rc, err = _run_quietly(argv)
            assert rc == 2, argv
            assert f"deep.hdl:{3 + MAX_STMT_NESTING}:" in err, err
            assert f"statements nested deeper than {MAX_STMT_NESTING} levels" in err
            assert "Traceback" not in err


def _arm_value(k: int) -> int:
    return (7 * k + 1) & 0xFFF


def _wide_arms(kind: str, arms: int) -> str:
    """An always @(*) block that sets y = _arm_value(k) on arm k of an
    `else if` chain or a case over a, and y = 0 past the last arm. Arm k
    is on line 3 + k of a chain and 4 + k of a case."""
    if kind == "chain":
        body = ["    if (a == 0) y = 1;"]
        body += [f"    else if (a == {k}) y = {_arm_value(k)};" for k in range(1, arms)]
        body += ["    else y = 0;"]
    else:
        body = ["    case (a)", *(f"      {k}: y = {_arm_value(k)};" for k in range(arms)),
                "      default: y = 0;", "    endcase"]
    return "\n".join([
        "module wide(input clk, input rst, input [11:0] a, output reg [11:0] y);",
        "  always @(*) begin", *body, "  end", "endmodule", "",
    ])


@pytest.mark.parametrize("kind", ["chain", "case"])
def test_two_thousand_arms_parse_and_simulate(tmp_path, kind):
    """An `else if` chain is one flat list of arms, like a case: 2,000 arms
    of either go through `parse --dump-ast` and `sim`, the dump lists every
    arm at its own line, and y takes the value of the arm a selects."""
    src, stim = tmp_path / "wide.hdl", tmp_path / "stim.json"
    src.write_text(_wide_arms(kind, 2000))
    inputs = [0, 1, 999, 1999, 2000, 4095]
    stim.write_text(json.dumps([{"tag": "a", "data": {"a": a}, "hold": 1} for a in inputs]))
    ast, vcd = tmp_path / "ast.json", tmp_path / "wide.vcd"
    for argv in (["parse", str(src), "--dump-ast", str(ast)],
                 ["sim", str(src), "--stim", str(stim), "--vcd", str(vcd)]):
        assert _run_quietly(argv) == (0, ""), argv
    (item,) = json.loads(ast.read_text())["modules"][0]["items"]
    (stmt,) = item["body"]
    first = 3 if kind == "chain" else 4
    assert [arm["loc"]["line"] for arm in stmt["arms"]] == list(range(first, first + 2000))
    assert [s["expr"] for s in stmt["default"]] == ["0"]
    trace = ls.load_vcd(vcd.read_text()).trace("wide").signal_values
    assert set(inputs) <= set(trace["a"])
    for a, y in zip(trace["a"], trace["y"]):
        assert y == (_arm_value(a) if a < 2000 else 0), a


def test_thousand_arm_chain_graph(tmp_path, capsys, monkeypatch):
    """`graph` walks a 1,000-arm chain's arms in one loop: y reads a under
    every arm and the default, so a -> y is the only edge. Without --dot
    or --json it builds neither export."""
    def unasked(g):
        raise AssertionError("export built without its flag")

    monkeypatch.setattr("leakscope.cli.export_dot", unasked)
    monkeypatch.setattr("leakscope.cli.export_json", unasked)
    src = tmp_path / "wide.hdl"
    src.write_text(_wide_arms("chain", 1000))
    assert main(["graph", str(src)]) == 0
    assert capsys.readouterr().out == "wide: 4 nodes, 1 edges\n"


def _chain_past_cpython_parser_stack() -> str:
    """96 nested ifs around a 2,500-arm `else if` chain whose last condition
    compiles to ~118 nested brackets; the always block is on line 2."""
    deep = "(a + " * 58 + "a" + ")" * 58
    lines = ["module wide(input clk, input rst, input [11:0] a, output reg [11:0] y);",
             "  always @(*) begin", *["if (a != 4095) begin"] * 96, "if (a == 0) y = 1;"]
    lines += [f"else if (a == {k}) y = {_arm_value(k)};" for k in range(1, 2499)]
    lines += [f"else if ({deep} == 5) y = 5;", *["end"] * 96, "  end", "endmodule", ""]
    return "\n".join(lines)


@pytest.mark.parametrize("source", [
    lambda: _wide_arms("case", 3000), _chain_past_cpython_parser_stack,
    lambda: _wide_arms("case", 6000),
], ids=["case-3000", "chain-2500-deep", "case-6000"])
def test_code_past_cpython_compile_limits_exit_2(tmp_path, source):
    """An always block whose generated function this CPython cannot
    compile, past its compiler's recursion limit (a long case) or its
    parser's stack ("too complex"), is an analysis error naming the block,
    not a traceback; parse, which compiles nothing, still succeeds. The
    limits differ between CPython versions, so the test compiles the
    generated source itself: where that succeeds, the design simulates."""
    text = source()
    (code,) = _module_code(ls.parse_design([("wide.hdl", text)]).modules["wide"])
    try:
        compile(code, "<string>", "exec")
        compiles = True
    except (RecursionError, MemoryError):
        compiles = False
    src, stim, vcd = tmp_path / "wide.hdl", tmp_path / "stim.json", tmp_path / "wide.vcd"
    src.write_text(text)
    stim.write_text('[{"tag": "a", "data": {"a": 5}, "hold": 1}]')
    assert _run_quietly(["parse", str(src)]) == (0, "")
    rc, err = _run_quietly(["sim", str(src), "--stim", str(stim), "--vcd", str(vcd)])
    assert "Traceback" not in err
    if compiles:
        assert (rc, err) == (0, "")
        trace = ls.load_vcd(vcd.read_text()).trace("wide").signal_values
        assert trace["y"][trace["a"].index(5)] == _arm_value(5)
    else:
        assert rc == 2
        assert "wide.hdl:2:3: generated code too large for CPython to compile" in err


def test_coverage_out_bytes_unchanged(tmp_path):
    # `coverage --out` and a campaign's coverage.json share one serializer;
    # these are the bytes the command wrote before they did.
    stim = Path(ls.__file__).parent / "dut" / "serdiv" / "stim_div0.json"
    out = tmp_path / "cov.json"
    assert main(["coverage", "--dut", "serdiv", "--stim", str(stim), "--out", str(out)]) == 0
    assert out.read_text() == (
        '{\n'
        '  "overallPercent": 55.2239,\n'
        '  "perModule": {\n'
        '    "divider": {\n'
        '      "coveredPaths": 19,\n'
        '      "totalPaths": 49,\n'
        '      "truncated": false\n'
        '    },\n'
        '    "serdiv": {\n'
        '      "coveredPaths": 18,\n'
        '      "totalPaths": 18,\n'
        '      "truncated": false\n'
        '    }\n'
        '  },\n'
        '  "schemaVersion": 1\n'
        '}\n'
    )
