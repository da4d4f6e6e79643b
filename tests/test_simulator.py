from __future__ import annotations

import copy
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import leakscope as ls
from leakscope.simulator import InitPolicy, compile_design
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import oracle_stop
from reference_sim import reference_simulate


def _stim(tag, data, hold=2):
    return Stimulus(steps=(StimulusStep(tag=tag, data=data, hold=hold),))


def test_cacheset_golden_latencies(cacheset_runs):
    times = {
        name: ls.measure(bundle, "cacheset").cycles
        for name, bundle in cacheset_runs.items()
    }
    assert times == {"hit": 3, "miss_free": 19, "miss_replace": 23}


def test_determinism(serdiv):
    stim = _stim("start=1", {"dividend": 44, "divisor": 3})
    a = ls.simulate(serdiv.hierarchy, stim)
    b = ls.simulate(serdiv.hierarchy, stim)
    assert a.equal_traces(b)


def test_determinism_random_init(serdiv):
    stim = _stim("start=1", {"dividend": 44, "divisor": 3})
    a = ls.simulate(serdiv.hierarchy, stim, init=InitPolicy.random(9))
    b = ls.simulate(serdiv.hierarchy, stim, init=InitPolicy.random(9))
    assert a.equal_traces(b)
    c = ls.simulate(serdiv.hierarchy, stim, init=InitPolicy.random(10))
    assert not a.equal_traces(c)


def test_zero_step_stimulus_quiesces(cacheset):
    bundle = ls.simulate(cacheset.hierarchy, Stimulus(steps=()))
    assert not bundle.max_cycles_reached
    for path in bundle.instances():
        assert ls.measure(bundle, path).cycles == 0
        # every signal constant after the stimulus start
        trace = bundle.trace(path)
        for series in trace.signal_values.values():
            tail = series[bundle.start_cycle:]
            assert all(v == tail[0] for v in tail)


def test_width_safety(cacheset_runs, serdiv_runs):
    for runs in (cacheset_runs, serdiv_runs):
        for bundle in runs.values():
            for path in bundle.instances():
                trace = bundle.trace(path)
                widths = dict(
                    zip(bundle.signal_names(path), bundle.signal_widths(path))
                )
                for name, series in trace.signal_values.items():
                    limit = 1 << widths[name]
                    assert all(0 <= v < limit for v in series), name


def test_nonblocking_atomicity():
    # Two registers swap every cycle after load; with non-blocking commits
    # both reads see previous-cycle values, so the swap is lossless.
    src = (
        "module swap(input clk, input rst, input load, input [7:0] a, input [7:0] b,\n"
        "            output reg [7:0] x, output reg [7:0] y);\n"
        "  always @(posedge clk) begin\n"
        "    if (rst == 1) begin\n"
        "      x <= 0;\n"
        "      y <= 0;\n"
        "    end else begin\n"
        "      if (load == 1) begin\n"
        "        x <= a;\n"
        "        y <= b;\n"
        "      end else begin\n"
        "        x <= y;\n"
        "        y <= x;\n"
        "      end\n"
        "    end\n"
        "  end\n"
        "endmodule"
    )
    h = ls.parse_design([("swap.hdl", src)])
    stim = Stimulus(
        steps=(
            StimulusStep(tag="load=1", data={"a": 11, "b": 22}, hold=1),
            StimulusStep(tag="load=0", data={}, hold=6),
        )
    )
    bundle = ls.simulate(h, stim)
    trace = bundle.trace("swap")
    xs, ys = trace.signal_values["x"], trace.signal_values["y"]
    loaded = next(c for c in range(bundle.cycles) if xs[c] == 11)
    for c in range(loaded + 1, loaded + 5):
        assert {xs[c], ys[c]} == {11, 22}
        assert xs[c] == ys[c - 1] and ys[c] == xs[c - 1]


def test_blocking_order_within_clocked_block():
    # Blocking chain inside a posedge block: later reads observe earlier
    # writes of the same pass.
    src = (
        "module chain(input clk, input rst, input [7:0] a, output reg [7:0] out);\n"
        "  reg [7:0] t;\n"
        "  always @(posedge clk) begin\n"
        "    if (rst == 1) begin\n"
        "      t = 0;\n"
        "      out <= 0;\n"
        "    end else begin\n"
        "      t = a + 1;\n"
        "      out <= t + 1;\n"
        "    end\n"
        "  end\n"
        "endmodule"
    )
    h = ls.parse_design([("chain.hdl", src)])
    bundle = ls.simulate(h, _stim("run", {"a": 5}, hold=4))
    assert bundle.trace("chain").signal_values["out"][-1] == 7


def test_combinational_settling_chain():
    src = (
        "module comb(input clk, input [7:0] a, output [7:0] d);\n"
        "  wire [7:0] b;\n"
        "  wire [7:0] c;\n"
        "  assign d = c + 1;\n"  # declared before its driver settles anyway
        "  assign c = b + 1;\n"
        "  assign b = a + 1;\n"
        "endmodule"
    )
    h = ls.parse_design([("comb.hdl", src)])
    bundle = ls.simulate(h, _stim("x", {"a": 1}, hold=2))
    assert bundle.trace("comb").signal_values["d"][-1] == 4


def test_combinational_loop_detected():
    src = (
        "module loop(input clk, input a, output x);\n"
        "  wire y;\n"
        "  assign x = y ^ a;\n"
        "  assign y = x ^ 1;\n"
        "endmodule"
    )
    h = ls.parse_design([("loop.hdl", src)])
    with pytest.raises(ls.CombinationalLoop):
        ls.simulate(h, _stim("x", {"a": 1}))


def test_empty_always_blocks_simulate():
    """An always block with an empty body generates a function that does
    nothing, clocked or not."""
    src = (
        "module e(input clk, input a, output reg y);\n"
        "  always @(posedge clk) begin end\n"
        "  always @(*) begin end\n"
        "  always @(*) y = a;\n"
        "endmodule"
    )
    h = ls.parse_design([("empty.hdl", src)])
    assert ls.simulate(h, _stim("x", {"a": 1})).trace("e").signal_values["y"][-1] == 1


def test_chain_settling_on_the_last_pass_is_no_loop():
    """An acyclic chain of SETTLE_LIMIT assigns, each reading the next one
    down, takes one pass per link plus one that changes nothing: the
    design settles on the last pass the limit allows and is no loop."""
    from leakscope.simulator import SETTLE_LIMIT

    n = SETTLE_LIMIT
    src = "\n".join([
        "module rev(input clk, input a, output y);",
        *(f"  wire w{k};" for k in range(n)),
        *(f"  assign w{k} = w{k + 1};" for k in range(n - 1)),
        f"  assign w{n - 1} = a;",
        "  assign y = w0;",
        "endmodule",
    ])
    h = ls.parse_design([("rev.hdl", src)])
    assert ls.simulate(h, _stim("x", {"a": 1})).trace("rev").signal_values["y"][-1] == 1


_CNT_SRC = (
    "module cnt(input clk, input rst, output reg [3:0] n);\n"
    "  always @(posedge clk) begin\n"
    "    if (rst == 1) begin\n"
    "      n <= 0;\n"
    "    end else begin\n"
    "      n <= n + 1;\n"
    "    end\n"
    "  end\n"
    "endmodule"
)


def test_max_cycles_flagged():
    # A free-running counter never quiesces; the run must end at max_cycles
    # with the flag set rather than erroring.
    h = ls.parse_design([("cnt.hdl", _CNT_SRC)])
    bundle = ls.simulate(h, Stimulus(steps=()), max_cycles=50)
    assert bundle.max_cycles_reached and bundle.cycles == 50


def test_case_statement_semantics(ct_alu):
    h = ct_alu.hierarchy
    expect = {0: (9 + 3) & 255, 1: (9 - 3) & 255, 2: 9 & 3, 3: 9 ^ 3}
    for op, want in expect.items():
        bundle = ls.simulate(h, _stim(f"start=1;op={op}", {"a": 9, "b": 3}, hold=3))
        assert bundle.trace("ct_alu").signal_values["result"][-1] == want


def test_stimulus_validation_errors(cacheset):
    h = cacheset.hierarchy
    with pytest.raises(ls.StimulusError):
        ls.simulate(h, _stim("req=1", {"nope": 1}))
    with pytest.raises(ls.StimulusError):
        ls.simulate(h, _stim("req=1", {"addr": 256}))
    with pytest.raises(ls.StimulusError):
        ls.simulate(h, _stim("req=1", {"clk": 1}))
    with pytest.raises(ls.StimulusError):
        ls.simulate(h, Stimulus(steps=(StimulusStep(tag="req=1", data={}, hold=0),)))


def test_tag_wins_over_data(serdiv):
    stim = Stimulus(
        steps=(StimulusStep(tag="start=1", data={"start": 0, "dividend": 4, "divisor": 2}, hold=3),)
    )
    bundle = ls.simulate(serdiv.hierarchy, stim)
    assert bundle.trace("serdiv.div").signal_values["quotient"][-1] == 2


def test_quiescence_appending_invariance(serdiv):
    stim = _stim("start=1", {"dividend": 9, "divisor": 2}, hold=2)
    short = ls.simulate(serdiv.hierarchy, stim, quiescence_window=8)
    long = ls.simulate(serdiv.hierarchy, stim, quiescence_window=20)
    assert long.cycles > short.cycles
    for path in short.instances():
        assert ls.measure(short, path).cycles == ls.measure(long, path).cycles


def test_serdiv_latency_tracks_quotient(serdiv):
    h = serdiv.hierarchy
    rng = random.Random(5)
    for _ in range(20):
        dividend = rng.randrange(256)
        divisor = rng.randrange(1, 16)
        bundle = ls.simulate(h, _stim("start=1", {"dividend": dividend, "divisor": divisor}))
        t = ls.measure(bundle, "serdiv.div").cycles
        assert t == dividend // divisor + 4
        assert bundle.trace("serdiv.div").signal_values["quotient"][-1] == dividend // divisor


def test_comb_block_with_rewrites_settles():
    # An @(*) block may overwrite the same target several times; only the
    # final value of a pass matters, so this must settle, not oscillate.
    src = (
        "module rewrite(input clk, input [3:0] a, output [3:0] y);\n"
        "  reg [3:0] t;\n"
        "  always @(*) begin\n"
        "    t = a + 1;\n"
        "    t = t + 1;\n"
        "    if (a > 7) begin\n"
        "      t = 0;\n"
        "    end\n"
        "  end\n"
        "  assign y = t;\n"
        "endmodule"
    )
    h = ls.parse_design([("rw.hdl", src)])
    low = ls.simulate(h, _stim("x", {"a": 3}, hold=2))
    assert low.trace("rewrite").signal_values["y"][-1] == 5
    high = ls.simulate(h, _stim("x", {"a": 9}, hold=2))
    assert high.trace("rewrite").signal_values["y"][-1] == 0


_SHIFT_SRC = (
    "module shl(input clk, input rst, input [7:0] a, input [3:0] b,\n"
    "           output [7:0] y, output [7:0] z, output [7:0] v);\n"
    "  reg [3:0] n;\n"
    "  assign y = a << ~(3);\n"
    "  assign z = a << 26'd16000000;\n"
    "  assign v = a << b;\n"
    "  always @(posedge clk) begin\n"
    "    if (rst == 1) begin\n"
    "      n <= 0;\n"
    "    end else begin\n"
    "      n <= n + 1;\n"
    "    end\n"
    "  end\n"
    "endmodule"
)


def test_huge_left_shift_is_clamped():
    # A shift amount far beyond the operand width clears it without first
    # building a shift-amount-sized integer.
    h = ls.parse_design([("shl.hdl", _SHIFT_SRC)])
    started = time.monotonic()
    bundle = ls.simulate(h, _stim("drive", {"a": 0xA5, "b": 3}), max_cycles=100)
    assert time.monotonic() - started < 1.0
    assert bundle.cycles == 100
    signals = bundle.trace("shl").signal_values
    assert set(signals["y"]) == {0} and set(signals["z"]) == {0}


def test_left_shift_agrees_with_reference():
    h = ls.parse_design([("shl.hdl", _SHIFT_SRC.replace("  assign y = a << ~(3);\n", ""))])
    for a, b in ((0xA5, 3), (0xFF, 7), (0x81, 8), (0x3C, 15)):
        stim = _stim("drive", {"a": a, "b": b})
        bundle = ls.simulate(h, stim, max_cycles=12)
        want = reference_simulate(h, stim, cycles=bundle.cycles)
        for name, series in bundle.trace("shl").signal_values.items():
            assert series == want["shl"][name], (a, b, name)


def _stop_rule_cases(name, duts):
    """(hierarchy, stimuli, quiesces) for one design of the stop-rule test:
    long holds put quiet stretches before, between and after input writes."""
    if name == "cnt":
        return ls.parse_design([("cnt.hdl", _CNT_SRC)]), [Stimulus(steps=())], False
    dut = duts[name]
    if name == "serdiv":
        stims = [
            Stimulus(steps=(
                StimulusStep(tag="start=1", data={"dividend": 200, "divisor": 7}, hold=1),
                StimulusStep(tag="start=0", data={"dividend": 200, "divisor": 7}, hold=hold),
                StimulusStep(tag="start=1", data={"dividend": 99, "divisor": 4}, hold=1),
                StimulusStep(tag="start=0", data={"dividend": 99, "divisor": 4}, hold=5),
            ))
            for hold in (1, 2, 7, 40, 300)
        ]
    elif name == "cacheset":
        stims = list(dut.stimuli.values()) + [
            Stimulus(steps=(
                StimulusStep(tag="req=1", data={"addr": 40, "lock": 0}, hold=1),
                StimulusStep(tag="req=0", data={"addr": 40, "lock": 0}, hold=hold),
                StimulusStep(tag="req=1", data={"addr": 7, "lock": 1}, hold=3),
            ))
            for hold in (1, 60)
        ]
    else:
        stims = list(dut.stimuli.values()) + [
            Stimulus(steps=(
                StimulusStep(tag="start=1;op=1", data={"a": 9, "b": 3}, hold=1),
                StimulusStep(tag="start=0", data={"a": 9, "b": 3}, hold=hold),
                StimulusStep(tag="start=1;op=3", data={"a": 12, "b": 5}, hold=2),
            ))
            for hold in (1, 30)
        ]
    return dut.hierarchy, stims, True


def _random_init_values(h, seed):
    """The register values InitPolicy.random(seed) draws, for the reference."""
    rng = random.Random(seed)
    return {
        (path, name): rng.randrange(1 << width)
        for path, name, _, width in compile_design(h).reg_indices
    }


@pytest.mark.parametrize("name", ["serdiv", "cacheset", "ct_alu", "cnt"])
def test_stop_rule_agrees_with_reference(name, serdiv, cacheset, ct_alu):
    """`cycles`, `max_cycles_reached` and every row agree with the reference
    simulator and the documented stop rule, for max_cycles before, inside
    and right after quiet stretches and on scheduled cycles."""
    duts = {"serdiv": serdiv, "cacheset": cacheset, "ct_alu": ct_alu}
    h, stims, quiesces = _stop_rule_cases(name, duts)
    reset_cycles = 2
    for stim in stims:
        stimulus_end = reset_cycles + 1 + stim.total_hold()
        scheduled = [reset_cycles]  # the reset drop, then every step's first cycle
        cursor = reset_cycles + 1
        for step in stim.steps:
            scheduled.append(cursor)
            cursor += step.hold
        horizon = stimulus_end + 8 + 64
        for init in (InitPolicy.zero(), InitPolicy.random(11)):
            values = _random_init_values(h, init.seed) if init.kind == "random" else None
            want = reference_simulate(h, stim, cycles=horizon, init_values=values)
            columns = [series for signals in want.values() for series in signals.values()]
            rows = list(zip(*columns))
            toggles = [c for c in range(1, horizon) if rows[c] != rows[c - 1]]
            for window in (0, 8):
                natural, cut = oracle_stop(
                    rows, stimulus_end, max_cycles=horizon, quiescence_window=window
                )
                if window:  # with no window a run ends with its stimulus
                    assert cut is not quiesces
                points = {1, 2, natural - 1, natural, natural + 1}
                for c in scheduled + toggles:
                    points.update((c, c + 1, c + 2, c + window // 2 + 1))
                for max_cycles in sorted(p for p in points if 1 <= p <= horizon):
                    bundle = ls.simulate(
                        h, stim, max_cycles=max_cycles, init=init, quiescence_window=window
                    )
                    expected = oracle_stop(
                        rows, stimulus_end, max_cycles=max_cycles, quiescence_window=window
                    )
                    key = (stim.tags(), init.kind, window, max_cycles)
                    assert (bundle.cycles, bundle.max_cycles_reached) == expected, key
                    for path in bundle.instances():
                        for sig, series in bundle.trace(path).signal_values.items():
                            assert series == want[path][sig][: bundle.cycles], (key, path, sig)


def _two_divides(hold):
    """Two serdiv divides; each settles early in its start=0 hold."""
    return Stimulus(steps=(
        StimulusStep(tag="start=1", data={"dividend": 200, "divisor": 7}, hold=1),
        StimulusStep(tag="start=0", data={"dividend": 200, "divisor": 7}, hold=hold),
        StimulusStep(tag="start=1", data={"dividend": 99, "divisor": 4}, hold=1),
        StimulusStep(tag="start=0", data={"dividend": 99, "divisor": 4}, hold=40),
    ))


def test_quiet_stretch_ends_agree_with_reference(serdiv):
    """A settled run skips its quiet stretch in one step. The stretch ends
    at the next input write, at the quiescence stop, or at max_cycles inside
    it; each end gives the reference's rows, max_cycles flag and stop cycle."""
    h = serdiv.hierarchy
    stim = _two_divides(300)
    stimulus_end = 3 + stim.total_hold()
    second_write = 3 + 1 + 300
    horizon = stimulus_end + 150
    want = reference_simulate(h, stim, cycles=horizon)
    rows = list(zip(*[series for signals in want.values() for series in signals.values()]))
    settled = next(c for c in range(4, second_write) if rows[c] == rows[c - 1])
    for window in (0, 5, 100):
        natural, _ = oracle_stop(rows, stimulus_end, max_cycles=horizon, quiescence_window=window)
        assert natural > stimulus_end + window - 1
        inside_first = (settled + 1, settled + 2, (settled + second_write) // 2, second_write - 1)
        at_write = (second_write, second_write + 1)
        at_stop = (natural - 1, natural, natural + 1, horizon)
        for max_cycles in (*inside_first, *at_write, *at_stop):
            bundle = ls.simulate(h, stim, max_cycles=max_cycles, quiescence_window=window)
            expected = oracle_stop(
                rows, stimulus_end, max_cycles=max_cycles, quiescence_window=window
            )
            key = (window, max_cycles)
            assert (bundle.cycles, bundle.max_cycles_reached) == expected, key
            for path in bundle.instances():
                for sig, series in bundle.trace(path).signal_values.items():
                    assert series == want[path][sig][: bundle.cycles], (key, path, sig)
        # Up to the next input write the stretch is one run.
        run = ls.simulate(h, stim, quiescence_window=window)
        assert not [start for start in run._starts if settled <= start < second_write]
        assert run.cycles == natural and not run.max_cycles_reached


def test_quiet_stretch_costs_no_evaluation(serdiv, monkeypatch):
    """Cycles of a quiet stretch settle nothing: a hold 100 times longer
    evaluates exactly as many cycles."""
    import leakscope.simulator as simulator

    settles = []
    real = simulator._settle
    monkeypatch.setattr(simulator, "_settle", lambda *args: (settles.append(1), real(*args)))
    counts = []
    for hold in (300, 30_000):
        settles.clear()
        bundle = ls.simulate(serdiv.hierarchy, _two_divides(hold), max_cycles=40_000)
        assert bundle.cycles > hold and not bundle.max_cycles_reached
        counts.append(len(settles))
    assert counts[0] == counts[1] < 100


def test_stored_runs_stay_unchanged_by_every_consumer(serdiv):
    """A quiet stretch is one stored run; no consumer may write through the
    runs, and the digest depends on the values alone, not on the producer."""
    from leakscope.simulator import TraceBundle

    h = serdiv.hierarchy
    runs = []
    for dividend in (200, 3):
        data = {"dividend": dividend, "divisor": 7}
        stim = Stimulus(steps=(
            StimulusStep(tag="start=1", data=data, hold=1),
            StimulusStep(tag="start=0", data=data, hold=200),
        ))
        runs.append(ls.simulate(h, stim, seed_id=f"d{dividend}"))
    a, b = runs
    assert a._starts[-1] < a.cycles - 100
    before = [copy.deepcopy((run._starts, run._rows, run.cycles)) for run in runs]

    findings = ls.analyze([(a, b)], h)
    assert findings
    megs = ls.build_megs(h.modules)
    for f in findings:
        module = h.instance(f.instance_path).module_name
        ls.diagnose(a.trace(f.instance_path), b.trace(f.instance_path), megs[module])
    for run in runs:
        ls.write_vcd(run)
        for inst in h.instances:
            g = megs[inst.module_name]
            conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
            trace = run.trace(inst.path)
            for i in range(len(trace.names)):
                trace.toggles(i)
            ls.match_coverage(run, conditions, g, inst.path)
            ls.match_coverage(run, conditions, g, inst.path)
            ls.replay_sva(ls.emit_sva_file(conditions, inst.module_name), run, inst.path)
        rebuilt = TraceBundle.from_signal_values(
            {path: run.trace(path).signal_values for path in run.instances()},
            {path: dict(zip(run.signal_names(path), run.signal_widths(path)))
             for path in run.instances()},
            run.start_cycle,
        )
        assert run.rows_digest() == rebuilt.rows_digest()

    for run, stored in zip(runs, before):
        assert (run._starts, run._rows, run.cycles) == stored


_LONG_HOLD_CHILD = """
import json, sys
import leakscope as ls
from leakscope.cli import main

hold, max_cycles, stim_dir = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
h = ls.load_dut("serdiv").hierarchy
megs = ls.build_megs(h.modules)
runs = []
for dividend in (200, 3):
    data = {"dividend": dividend, "divisor": 7}
    path = f"{stim_dir}/d{dividend}.json"
    with open(path, "w") as f:
        json.dump([{"tag": "start=1", "data": data, "hold": 1},
                   {"tag": "start=0", "data": data, "hold": hold}], f)
    assert main(["sim", "--dut", "serdiv", "--stim", path, "--max-cycles", str(max_cycles)]) == 0
    stim = ls.load_stimulus(path)
    runs.append(ls.simulate(h, stim, max_cycles=max_cycles, seed_id=f"d{dividend}"))
a, b = runs
assert a.cycles > hold and b.cycles > hold and not a.max_cycles_reached
findings = ls.analyze([(a, b)], h)
assert findings
for f in findings:
    module = h.instance(f.instance_path).module_name
    diag = ls.diagnose(a.trace(f.instance_path), b.trace(f.instance_path), megs[module])
    assert diag.divergence_cycle == a.start_cycle and "dividend" in diag.instigators
"""


_COVERAGE_HOLD_CHILD = """
import sys
import leakscope as ls
from leakscope.fuzz import CoverageProbes
from leakscope.stimulus import Stimulus, StimulusStep

h = ls.load_dut("serdiv").hierarchy
megs = ls.build_megs(h.modules)
data = {"dividend": 200, "divisor": 7}

def coverage(hold):
    stim = Stimulus(steps=(StimulusStep("start=1", data, 1), StimulusStep("start=0", data, hold)))
    bundle = ls.simulate(h, stim, max_cycles=2 * hold)
    assert bundle.cycles > hold and not bundle.max_cycles_reached
    seen = {}
    for inst in h.instances:
        g = megs[inst.module_name]
        conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
        paths = ls.match_coverage(bundle, conditions, g, inst.path).covered
        items = CoverageProbes(inst.module_name, g).covered_items(bundle.trace(inst.path))
        seen[inst.path] = paths, items
    return seen

# A hold only repeats the row it settles to, so a short one covers the same.
want = coverage(100)
assert all(paths and items for paths, items in want.values())
assert coverage(int(sys.argv[1])) == want
print("covered")
"""


def _run_bounded(script: str, *args: str) -> tuple[str, float]:
    """Run a child Python script under address-space and CPU limits, which
    stop a regression before it can take the machine's memory, and return
    its output and peak RSS in MB. Fails if the child exits nonzero."""
    src = str(Path(ls.__file__).resolve().parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (120, 120))

    child = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
    )
    output = child.stdout.read()
    child.stdout.close()
    # The usage of this one child, as RUSAGE_CHILDREN would report it if
    # it were the only child the test process ever had.
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, output
    return output, usage.ru_maxrss / 1024


def test_long_hold_runs_in_bounded_memory(tmp_path):
    """A 10**8-cycle hold goes through `leakscope sim`, simulate, analyze
    and diagnose in a child process whose peak RSS stays under a fixed
    ceiling: a trace costs memory per run, not per cycle."""
    hold = 10**8
    output, peak_mb = _run_bounded(_LONG_HOLD_CHILD, str(hold), str(2 * hold), str(tmp_path))
    assert output.count(f"simulated {hold + 12} cycles,") == 2, output
    assert peak_mb < 150, peak_mb


def test_long_hold_coverage_runs_in_bounded_memory():
    """`match_coverage` and the code-coverage probes on every serdiv
    instance of a 10**7-cycle hold stay under a fixed peak RSS: masks and
    toggles are built from the trace's runs. Each mask still holds one
    bit per cycle, so the hold is a tenth of the simulator's."""
    output, peak_mb = _run_bounded(_COVERAGE_HOLD_CHILD, str(10**7))
    assert output.strip() == "covered", output
    assert peak_mb < 150, peak_mb


def _record_compiles(monkeypatch) -> list[str]:
    import leakscope.simulator as simulator

    emitted: list[str] = []
    real = simulator._compile_fn

    def record(src):
        emitted.append(src)
        return real(src)

    monkeypatch.setattr(simulator, "_compile_fn", record)
    return emitted


def test_codegen_depends_only_on_the_design(ct_alu, monkeypatch):
    # Case temporaries are named by nesting depth, not by a process-wide
    # counter, so one design always compiles to the same code.
    emitted = _record_compiles(monkeypatch)
    runs = []
    for _ in range(2):
        emitted.clear()
        compile_design(ls.parse_design(ct_alu.sources, top=ct_alu.profile.top))
        runs.append(list(emitted))
    assert runs[0] == runs[1]
    assert any(re.search(r"^ +s\d+ = ", code, re.M) for code in runs[0])


_NESTED_COPIES = """
module leaf(input clk, input [7:0] a, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) r <= a + 8'd1;
  assign y = r ^ a;
endmodule
module pair(input clk, input [7:0] a, output [7:0] y);
  wire [7:0] m;
  leaf l0(.clk(clk), .a(a), .y(m));
  leaf l1(.clk(clk), .a(m), .y(y));
endmodule
module top(input clk, input rst, input [7:0] a, output [7:0] y);
  wire [7:0] m;
  pair p0(.clk(clk), .a(a), .y(m));
  pair p1(.clk(clk), .a(m ^ a), .y(y));
endmodule
"""


def test_each_module_and_port_map_compiles_once(monkeypatch):
    """Four leaf instances compile the leaf's two items once; the port maps
    of `pair`, instantiated twice, compile once per distinct source text."""
    emitted = _record_compiles(monkeypatch)
    h = ls.parse_design([("nested.hdl", _NESTED_COPIES)], top="top")
    design = compile_design(h)
    assert [i.module_name for i in h.instances].count("leaf") == 4
    # leaf: assign + always; ports: a and y of l0, l1 (in pair), p0, p1 (in
    # top), where p1's .y(y) copies child signal 2 into parent signal 3 just
    # as l0's .y(m) does, so the two share one compile.
    assert len(emitted) == len(set(emitted)) == 2 + 4 * 2 - 1
    assert len(design.comb_fns) == 4 + 6 * 2 and len(design.seq_fns) == 4
    # The first four comb functions are the leaves' `assign y = r ^ a`, in
    # instance order: each is bound to its own leaf's three signals.
    for fn, path in zip(design.comb_fns, ["top.p0.l0", "top.p0.l1", "top.p1.l0", "top.p1.l1"]):
        index = design.layouts[path].index
        bound = {c for c in fn.__code__.co_consts if type(c) is int}
        assert bound == {index["y"], index["r"], index["a"]}, path
    stim = Stimulus(steps=(StimulusStep(tag="drive", data={"a": 5}, hold=3),))
    bundle = ls.simulate(design, stim)
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    for path in bundle.instances():
        assert bundle.trace(path).signal_values == want[path], path


_SHARED_DECLS = """
module leaf(input clk, input [7:0] a, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) r <= r + a;
  assign y = r;
endmodule
module top(input clk, input rst, input [7:0] a, output [7:0] y);
  wire [7:0] w0;
  wire [7:0] w1;
  wire [7:0] w2;
  leaf u0(.clk(clk), .a(a ^ 8'd5), .y(w0));
  leaf u1(.clk(clk), .a(a ^ 8'd5), .y(w1));
  leaf u2(.clk(clk), .a(a ^ 8'd5), .y(w2));
  assign y = w0 + w1 + w2;
endmodule
"""


def test_identical_port_map_text_compiles_once(monkeypatch):
    """Three declarations bind `a` to the same expression: its port-map
    function has one source text and is compiled once for all three."""
    emitted = _record_compiles(monkeypatch)
    h = ls.parse_design([("shared.hdl", _SHARED_DECLS)], top="top")
    design = compile_design(h)
    # leaf: always + assign; top: assign; ports: one shared a, three y
    assert len(emitted) == len(set(emitted)) == 2 + 1 + 1 + 3
    assert sum("^ 5" in src for src in emitted) == 1
    assert len(design.comb_fns) == 3 + 1 + 3 * 2
    stim = Stimulus(steps=tuple(
        StimulusStep(tag="drive", data={"a": a}, hold=2) for a in (3, 200, 77)
    ))
    bundle = ls.simulate(design, stim)
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    for path in bundle.instances():
        assert bundle.trace(path).signal_values == want[path], path


def _else_if_chain(arms: int) -> str:
    lines = [
        "module chain(input clk, input rst, input [7:0] a, output reg [7:0] y);",
        "  always @(*) begin",
        "    if (a == 0) y = 1;",
    ]
    lines += [f"    else if (a == {k}) y = {(k + 1) & 0xFF};" for k in range(1, arms)]
    lines += ["    else y = 0;", "  end", "endmodule"]
    return "\n".join(lines) + "\n"


def test_else_if_chain_compiles_flat_and_matches_reference(monkeypatch):
    """A 99-arm else-if chain is one if/elif/else at one indentation level,
    where nested `else: if` would pass Python's 100-level indentation cap."""
    emitted = _record_compiles(monkeypatch)
    h = ls.parse_design([("chain.hdl", _else_if_chain(99))], top="chain")
    design = compile_design(h)
    (block,) = emitted
    assert block.count("elif ") == 98 and block.count("else:") == 1
    inputs = (0, 1, 57, 98, 99, 255)
    stim = Stimulus(steps=tuple(
        StimulusStep(tag="drive", data={"a": a}, hold=1) for a in inputs
    ))
    bundle = ls.simulate(design, stim)
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    assert bundle.trace("chain").signal_values == want["chain"]
    assert {(a + 1) & 0xFF if a < 99 else 0 for a in inputs} <= set(want["chain"]["y"])
