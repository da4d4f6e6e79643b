from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.simulator import TraceBundle
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import oracle_load_vcd, oracle_trace, oracle_write_vcd


def _long_hold_serdiv_runs(serdiv):
    """serdiv runs that settle early in a long start=0 hold."""
    runs = []
    for dividend, divisor, hold in ((200, 7, 300), (13, 0, 120), (255, 1, 40), (0, 3, 1)):
        data = {"dividend": dividend, "divisor": divisor}
        stim = Stimulus(steps=(
            StimulusStep(tag="start=1", data=data, hold=1),
            StimulusStep(tag="start=0", data=data, hold=hold),
        ))
        runs.append(ls.simulate(serdiv.hierarchy, stim, seed_id=f"d{dividend}"))
    return runs


def _assembled_bundle():
    """A bundle built from per-signal arrays: uneven lengths, repeated rows,
    two instances."""
    return TraceBundle.from_signal_values(
        {
            "top": {"clk": [1] * 9, "go": [0, 1, 1, 1, 0, 0, 0, 0, 0], "n": [0, 0, 3, 3, 3, 9]},
            "top.sub": {"q": [1, 1, 1, 0, 0, 0, 0]},
        },
        {"top": {"n": 4}, "top.sub": {"q": 1}},
        start_cycle=1,
        seed_id="asm",
    )


def test_roundtrip_all_bundled_runs(cacheset_runs, serdiv_runs, ct_alu):
    bundles = list(cacheset_runs.values()) + list(serdiv_runs.values())
    bundles.append(ls.simulate(ct_alu.hierarchy, ct_alu.stimuli["add"]))
    for bundle in bundles:
        text = ls.write_vcd(bundle)
        back = ls.load_vcd(text)
        assert bundle.equal_traces(back)
        assert back.start_cycle == bundle.start_cycle
        assert back.seed_id == bundle.seed_id


def test_roundtrip_preserves_measurements(cacheset_runs):
    for bundle in cacheset_runs.values():
        back = ls.load_vcd(ls.write_vcd(bundle))
        for path in bundle.instances():
            assert ls.measure(back, path).cycles == ls.measure(bundle, path).cycles


_HEADER = """$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 4 " data $end
$upscope $end
$enddefinitions $end
"""


def test_xz_maps_to_zero_with_warning():
    body = "#0\n$dumpvars\n0!\nbxx1z \"\n$end\n#2\n1!\n#3\n0!\n#4\nb1x10 \"\n1!\n"
    bundle = ls.load_vcd(_HEADER + body)
    data = bundle.trace("top").signal_values["data"]
    assert data == [0b0010, 0b1010]
    assert any("x/z" in w for w in bundle.warnings)


def test_empty_body_zero_cycles():
    bundle = ls.load_vcd(_HEADER)
    assert bundle.cycles == 0
    assert bundle.instances() == ["top"]


def test_clock_not_found():
    text = (
        "$scope module top $end\n$var wire 1 ! data $end\n$upscope $end\n"
        "$enddefinitions $end\n#0\n1!\n"
    )
    with pytest.raises(ls.ClockNotFound):
        ls.load_vcd(text)


def test_parse_error_reports_line():
    bad = _HEADER + "#0\nq! garbage\n"
    with pytest.raises(ls.VcdParseError):
        ls.load_vcd(bad)


def test_unknown_scope_with_map():
    body = "#0\n$dumpvars\n1!\nb0 \"\n$end\n"
    with pytest.raises(ls.UnknownScope):
        ls.load_vcd(_HEADER + body, hierarchy_map={"other": "top"})


def test_scope_renaming():
    body = "#0\n$dumpvars\n1!\nb101 \"\n$end\n"
    bundle = ls.load_vcd(_HEADER + body, hierarchy_map={"top": "dut"})
    assert bundle.instances() == ["dut"]
    assert bundle.trace("dut").signal_values["data"] == [0b101]


def test_absent_signals_flagged_not_invented(cacheset):
    h = cacheset.hierarchy
    text = (
        "$timescale 1ns $end\n"
        "$scope module cacheset $end\n"
        "$var wire 1 ! clk $end\n"
        "$var wire 8 \" addr $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\n1!\nb0 \"\n#1\n0!\n#2\n1!\n"
    )
    bundle = ls.load_vcd(text, expect=h)
    assert "addr" in bundle.trace("cacheset").signal_values
    assert "way" not in bundle.trace("cacheset").signal_values
    assert any("way: absent from VCD" in w for w in bundle.warnings)


def test_vector_values_masked_to_width():
    body = "#0\n$dumpvars\n1!\nb111111 \"\n$end\n"
    bundle = ls.load_vcd(_HEADER + body)
    assert bundle.trace("top").signal_values["data"] == [0b1111]


def test_writer_matches_per_cycle_oracle(cacheset_runs, serdiv_runs, serdiv, ct_alu, cacheset_multiway):
    bundles = list(cacheset_runs.values()) + list(serdiv_runs.values())
    for dut in (ct_alu, cacheset_multiway):
        bundles += [ls.simulate(dut.hierarchy, stim) for stim in dut.stimuli.values()]
    bundles += _long_hold_serdiv_runs(serdiv)
    bundles.append(_assembled_bundle())
    for bundle in bundles:
        text = ls.write_vcd(bundle)
        assert text == oracle_write_vcd(bundle), bundle.seed_id
        back = ls.load_vcd(text)
        assert bundle.equal_traces(back), bundle.seed_id
        assert ls.write_vcd(back) == text


def test_value_changes_agree_with_per_signal_series(serdiv):
    # Signals in a mixed order across instances; each yielded cycle sets
    # exactly the values that differ from the previous cycle, and the
    # yielded cycles are the run starts.
    for bundle in [*_long_hold_serdiv_runs(serdiv), _assembled_bundle()]:
        signals = [(p, n) for p in reversed(bundle.instances()) for n in bundle.signal_names(p)]
        series = [bundle.trace(p).signal_values[n] for p, n in signals]
        expected = [
            [(k, s[c]) for k, s in enumerate(series) if c == 0 or s[c] != s[c - 1]]
            for c in range(bundle.cycles)
        ]
        got = dict(bundle.value_changes(signals))
        assert [list(got.get(c, ())) for c in range(bundle.cycles)] == expected, bundle.seed_id
        assert list(got) == bundle._starts


def test_quiet_stretch_is_one_run(serdiv):
    bundle = _long_hold_serdiv_runs(serdiv)[0]
    assert bundle._starts[-1] < bundle.cycles - 1
    assert len(bundle._starts) < bundle.cycles // 4
    back = ls.load_vcd(ls.write_vcd(bundle))
    assert (back._starts, back.cycles) == (bundle._starts, bundle.cycles)
    assembled = _assembled_bundle()
    assert (assembled._starts, assembled.cycles) == ([0, 1, 2, 3, 4, 5, 6], 9)
    assert assembled.trace("top").signal_values["n"] == [0, 0, 3, 3, 3, 9, 0, 0, 0]


def test_changes_between_posedges_are_sampled():
    # A change at a falling edge shows at the next posedge; a change that
    # reverts before it does not.
    body = (
        "#0\n$dumpvars\n1!\nb0 \"\n$end\n#1\n0!\nb11 \"\n#2\n1!\n"
        "#3\n0!\nb1 \"\n#4\nb11 \"\n#5\n1!\n#6\n0!\n#7\n1!\n"
        "#8\n0!\n1\"\n#9\n1!\n#10\n0!\nx\"\n#11\n1!\n"
    )
    bundle = ls.load_vcd(_HEADER + body)
    assert bundle.trace("top").signal_values["data"] == [0, 3, 3, 3, 1, 0]
    assert any("x/z" in w for w in bundle.warnings)


# ---------------------------------------------------------------------------
# The loader and trace() against their line-by-line oracles
# ---------------------------------------------------------------------------

def _outcome(load, text, **kwargs):
    """What loading `text` gives: the error's class, line and message, or
    the runs (their starts and rows), the cycle count, and the bundle's
    layout and metadata."""
    try:
        bundle = load(text, **kwargs)
    except ls.LeakscopeError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)
    return (
        bundle._starts,
        bundle._rows,
        bundle.cycles,
        bundle._layouts,
        bundle.warnings,
        bundle.start_cycle,
        bundle.seed_id,
    )


def _assert_loaders_agree(text, **kwargs):
    got = _outcome(ls.load_vcd, text, **kwargs)
    assert got == _outcome(oracle_load_vcd, text, **kwargs)
    return got


_DUTS = {name: ls.load_dut(name) for name in ("serdiv", "ct_alu", "cacheset")}


@st.composite
def _long_hold_runs(draw):
    """A bundled design and a run of it whose steps hold their inputs for
    up to hundreds of cycles."""
    dut = _DUTS[draw(st.sampled_from(sorted(_DUTS)))]
    h = dut.hierarchy
    widths = {p.name: p.width for p in h.modules[h.top].ports}
    step = st.builds(
        StimulusStep,
        tag=st.sampled_from(dut.profile.tags),
        data=st.fixed_dictionaries(
            {name: st.integers(0, (1 << widths[name]) - 1) for name in dut.profile.data_inputs}
        ),
        hold=st.integers(1, 600),
    )
    stim = Stimulus(steps=tuple(draw(st.lists(step, max_size=4))))
    return dut, ls.simulate(h, stim, seed_id=draw(st.sampled_from(["a", "run7"])))


@settings(max_examples=40, deadline=None)
@given(_long_hold_runs(), st.booleans())
def test_long_hold_runs_agree_with_oracles(run, mapped):
    dut, bundle = run
    for path in bundle.instances():
        assert bundle.trace(path).signal_values == oracle_trace(bundle, path)
    text = ls.write_vcd(bundle)
    assert text == oracle_write_vcd(bundle)
    renamed = {path: "dut" + path[len(dut.hierarchy.top):] for path in bundle.instances()}
    kwargs = {"expect": dut.hierarchy}
    if mapped:
        kwargs["hierarchy_map"] = renamed
    starts, rows, cycles, *_ = _assert_loaders_agree(text, **kwargs)
    assert (starts, rows, cycles) == (bundle._starts, bundle._rows, bundle.cycles)
    back = ls.load_vcd(text, **kwargs)
    for path in back.instances():
        assert back.trace(path).signal_values == oracle_trace(back, path)


_CODES = ["!", '"', "#", "%", "a"]


@st.composite
def _vcd_texts(draw):
    """VCD text from the supported subset: timestamps repeated, out of
    order or negative, x/z bits, vectors wider than their var, ids shared by
    two vars, the clock changing twice in one timestamp. About one text in
    three has one flaw: a bad width or start cycle, no $enddefinitions, no
    clock, or a body line outside the subset."""
    flaw = draw(st.sampled_from([None] * 8 + ["width", "start", "defs", "clock", "line"]))
    width = st.integers(1, 6).map(str)
    if flaw == "width":
        width = st.sampled_from(["1", "3", "-3", "0", "x", "10" * 9])
    lines = ["$timescale 1ns $end"]
    if draw(st.booleans()):
        start = draw(st.sampled_from(["abc", "", "1.5"] if flaw == "start" else ["0", "3", "-2"]))
        lines.append(f"$comment leakscope start_cycle={start} seed_id=s{start} $end")
    clk_name = "clock" if flaw == "clock" else "clk"
    clk_width = draw(width) if flaw == "width" else "1"
    lines += ["$scope module top $end", f"$var wire {clk_width} ! {clk_name} $end"]
    declared = ["!"]
    for name in draw(st.lists(st.sampled_from(["a", "b", "c", "clk"]), max_size=3)):
        declared.append(draw(st.sampled_from(_CODES[1:])))
        lines.append(f"$var {draw(st.sampled_from(['wire', 'reg']))} {draw(width)} "
                     f"{declared[-1]} {name} $end")
    if draw(st.booleans()):
        declared.append(draw(st.sampled_from(_CODES)))
        lines += ["$scope module sub $end", f"$var wire {draw(width)} {declared[-1]} q $end",
                  "$upscope $end"]
    lines.append("$upscope $end")
    if flaw != "defs":
        lines.append("$enddefinitions $end")
    values = st.text("01" * 4 + "xzXZ", min_size=1, max_size=9)
    value_line = st.one_of(
        st.tuples(st.sampled_from("0011xz"), st.sampled_from(declared)).map("".join),
        st.tuples(values, st.sampled_from(declared)).map(lambda vc: f"b{vc[0]} {vc[1]}"),
    )
    odd = ["$dumpvars", "$end", "", "  ", "x!"]
    if flaw == "line":
        odd += ["b12 !", "b101", "q! garbage", "#abc", "#", "1?", "r1.5 !"]
    # Timestamps step forward mostly; the clock mostly toggles once in each.
    clock, time = 0, 0
    for step, toggles, changes in draw(st.lists(st.tuples(
        st.sampled_from([1, 1, 1, 2, 0, -1]),
        st.sampled_from([1, 1, 1, 0, 2]),
        st.lists(st.one_of(value_line, value_line, st.sampled_from(odd)), max_size=3),
    ), max_size=40)):
        time += step
        group = [f"#{time}", *changes]
        for _ in range(toggles):
            clock ^= 1
            group.insert(draw(st.integers(1, len(group))), f"{clock}!")
        lines += [draw(st.sampled_from(["", "", "", " ", "\t"])) + line for line in group]
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=300, deadline=None)
@given(_vcd_texts(), st.sampled_from([None, {"top": "dut", "top.sub": "dut.sub"}, {"top": "dut"}]))
def test_generated_texts_agree_with_oracle(text, hierarchy_map):
    _assert_loaders_agree(text, hierarchy_map=hierarchy_map)


_TEXTS = {
    "xz-values": "#0\n$dumpvars\n0!\nbxx1z \"\n$end\n#2\n1!\n#3\n0!\nz\"\n#4\nb1x10 \"\n1!\n",
    "xz-repeated": "#0\n0!\nbx1 \"\n#1\n1!\n#2\n0!\nbx1 \"\n#3\n1!\n#4\n0!\nbx1 \"\n",
    "changes-between-posedges": (
        "#0\n$dumpvars\n1!\nb0 \"\n$end\n#1\n0!\nb11 \"\n#2\n1!\n"
        "#3\n0!\nb1 \"\n#4\nb11 \"\n#5\n1!\n#6\n0!\n#7\n1!\n"
    ),
    "repeated-timestamps": "#0\n0!\n#2\n1!\n#2\nb101 \"\n#3\n0!\n#5\n1!\n#3\nb1 \"\n#5\n0!\n1!\n",
    "out-of-order-timestamps": "#4\n1!\nb1 \"\n#1\n0!\n#0\nb11 \"\n#2\n1!\n#3\n0!\n#-1\n1!\n",
    "clock-toggles-in-one-timestamp": "#0\n0!\n#1\n1!\n0!\nb1 \"\n#2\n1!\n0!\n1!\n#3\n0!\n",
    "before-first-timestamp": "1!\nb111 \"\n#0\n0!\n#1\n1!\n#2\n0!\n#3\nb0 \"\n",
    "indented": "#0\n  0!\n\t#1\n 1!\n  b1 \"\n   #2\n0!\n#3\n1!\n",
    "undeclared-id": "#0\n0!\n#1\n1!\n1?\n",
    "bad-vector-digit": "#0\n0!\n#1\nb12 \"\n",
    "bad-timestamp": "#0\n0!\nb1 \"\n#1x\n1!\n",
    # More digits than int() converts, where a quiet stretch would start.
    "overlong-timestamp": "#0\n0!\n#1\n1!\n#" + "2" * 5000 + "\n1!\n#3\n0!\n",
}


@pytest.mark.parametrize("body", list(_TEXTS.values()), ids=list(_TEXTS))
@pytest.mark.parametrize("hierarchy_map", [None, {"top": "dut"}], ids=["unmapped", "mapped"])
def test_hand_written_texts_agree_with_oracle(body, hierarchy_map):
    _assert_loaders_agree(_HEADER + body, hierarchy_map=hierarchy_map)


# Every line break str.splitlines() knows.
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_TEXTS)), st.sampled_from(["crlf", "mixed"]), st.booleans(), st.data())
def test_line_breaks_agree_with_oracle(body, breaks, final_break, data):
    """Each hand-written text with CRLF or with any mix of line breaks,
    with and without a break after its last line: results, messages and
    line numbers equal the oracle's."""
    lines = (_HEADER + _TEXTS[body]).split("\n")[:-1]
    if breaks == "crlf":
        ends = ["\r\n"] * len(lines)
    else:
        ends = data.draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    if not final_break:
        ends[-1] = ""
    _assert_loaders_agree("".join(map(str.__add__, lines, ends)))


def test_hand_written_texts_load_as_documented():
    def data(body):
        return ls.load_vcd(_HEADER + _TEXTS[body]).trace("top").signal_values["data"]

    # Blocks of one time act as one, taken in time order then text order.
    assert data("repeated-timestamps") == [0b101, 1]
    assert data("out-of-order-timestamps") == [0, 3, 1]
    # One posedge per timestamp however often the clock toggles in it.
    assert data("clock-toggles-in-one-timestamp") == [1, 1]
    assert data("before-first-timestamp") == [0b111, 0b111]
    assert data("indented") == [1, 1]
    # Every x/z change counts, also in a block text seen before.
    assert ls.load_vcd(_HEADER + _TEXTS["xz-repeated"]).warnings == (
        "top.data: 3 x/z value(s) mapped to 0",
    )
    for body, line in (
        ("undeclared-id", 11), ("bad-vector-digit", 10), ("bad-timestamp", 10),
        ("overlong-timestamp", 11),
    ):
        with pytest.raises(ls.VcdParseError) as info:
            ls.load_vcd(_HEADER + _TEXTS[body])
        assert info.value.line == line, body
    # A clock samples only as a 1-bit signal.
    wide_clock = _HEADER.replace("wire 1 ! clk", "wire 2 ! clk") + "#0\nb10 !\n#1\n1!\n"
    assert _assert_loaders_agree(wide_clock)[:2] == ("VcdParseError", 3)
    # A missing $enddefinitions names the last line, however lines end.
    no_defs = "$scope module top $end\n$var wire 1 ! clk $end\n$upscope $end\n#1\n1!\n\n"
    for ending in ("\n", "\r\n", "\r"):
        text = no_defs.replace("\n", ending)
        assert _assert_loaders_agree(text)[:2] == ("VcdParseError", 6), ending
        assert _assert_loaders_agree(text[:-len(ending)])[:2] == ("VcdParseError", 5), ending



def _assert_maximal_runs(bundle):
    """One start per stored row, in increasing order from cycle 0 and
    inside the bundle, and no run repeats the row before it."""
    starts, rows = bundle._starts, bundle._rows
    assert len(starts) == len(rows)
    assert starts == sorted(set(starts))
    assert starts[:1] == ([0] if bundle.cycles else [])
    assert not starts or starts[-1] < bundle.cycles
    assert all(row != previous for row, previous in zip(rows[1:], rows))


def _vcd_text(cycles):
    """A dump of _HEADER's clock and data: each cycle is a posedge, then
    the cycle's data writes over two later timestamps, so a value written
    and written back between two posedges is sampled as unchanged."""
    body = []
    for k, writes in enumerate(cycles):
        body += [f"#{3 * k}", "1!", f"#{3 * k + 1}", "0!"]
        body += [f'b{value:b} "' for value in writes[:1]]
        body += [f"#{3 * k + 2}"] + [f'b{value:b} "' for value in writes[1:]]
    return _HEADER + "\n".join(body) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    _long_hold_runs(),
    st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=20),
    st.dictionaries(st.sampled_from("abc"), st.lists(st.integers(0, 2), max_size=12)),
)
def test_every_producer_emits_maximal_runs(run, vcd_cycles, columns):
    """simulate, load_vcd (of our own dumps and of dumps whose changes
    revert between posedges) and from_signal_values (of uneven, repetitive
    columns) store no run that repeats the row before it."""
    _, bundle = run
    _assert_maximal_runs(bundle)
    _assert_maximal_runs(ls.load_vcd(ls.write_vcd(bundle)))
    text = _vcd_text(vcd_cycles)
    _assert_maximal_runs(ls.load_vcd(text))
    _assert_loaders_agree(text)
    per_instance = {path: bundle.trace(path).signal_values for path in bundle.instances()}
    _assert_maximal_runs(TraceBundle.from_signal_values(per_instance, {}, bundle.start_cycle))
    _assert_maximal_runs(TraceBundle.from_signal_values({"u": columns}, {}, 0))


# ---------------------------------------------------------------------------
# Quiet stretches: recognised in place, and nothing else is
# ---------------------------------------------------------------------------

_BAD_LINES = ["q! garbage", "b12 !", "#abc", "#", "1?", "b101", "r1.5 !", "$comment x $end"]


@st.composite
def _perturbed_dumps(draw):
    """write_vcd of a long-hold run with one edit inside or at the edge of
    a quiet stretch (a cycle that starts no run): lines dropped, duplicated
    or swapped, a timestamp digit changed, a timestamp that goes back into
    the stretch or repeats its time, an indented or CRLF line, or an
    inserted value change, x/z value or bad line."""
    _, bundle = draw(_long_hold_runs())
    starts = set(bundle._starts)
    lines = ls.write_vcd(bundle).split("\n")
    quiet = [
        k for k, line in enumerate(lines)
        if line.startswith("#") and int(line[1:]) % 2 == 0 and int(line[1:]) // 2 not in starts
    ]
    assume(quiet)
    codes = [line.split()[3] for line in lines if line.startswith("$var")]
    k = min(draw(st.sampled_from(quiet)) + draw(st.integers(-1, 4)), len(lines) - 2)
    time = next(int(line[1:]) for line in reversed(lines[:k + 1]) if line.startswith("#"))
    edit = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "digit", "back", "indent", "crlf", "value", "xz", "bad"]
    ))
    if edit == "drop":
        del lines[k]
    elif edit == "duplicate":
        lines.insert(k, lines[k])
    elif edit == "swap":
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif edit == "digit":
        k = next((j for j in range(k, len(lines)) if lines[j].startswith("#")), quiet[-1])
        at = draw(st.integers(1, len(lines[k]) - 1))
        digit = draw(st.sampled_from("0123456789".replace(lines[k][at], "")))
        lines[k] = lines[k][:at] + digit + lines[k][at + 1:]
    elif edit == "back":
        # A timestamp at or before the current time, then a clock value
        # (codes[0] is the clock of every bundled design) or a value change.
        back = draw(st.one_of(st.integers(0, 3), st.integers(0, 60)))
        change = draw(st.sampled_from([f"1{codes[0]}", f"0{codes[0]}", f"b{back:b} {codes[-1]}"]))
        lines[k + 1:k + 1] = [f"#{time - back}", change]
    elif edit in ("indent", "crlf"):
        lines[k] = " " + lines[k] if edit == "indent" else lines[k] + "\r"
    else:
        code = draw(st.sampled_from(codes))
        inserted = {
            "value": [f"1{code}", f"0{code}", f"b{draw(st.integers(0, 255)):b} {code}"],
            "xz": [f"x{code}", f"z{code}", f"b1x0z {code}"],
            "bad": _BAD_LINES,
        }[edit]
        lines.insert(k + 1, draw(st.sampled_from(inserted)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_perturbed_dumps())
def test_perturbed_dumps_agree_with_oracle(text):
    _assert_loaders_agree(text)


_LONG_VCD_CHILD = """
import json, sys
from leakscope.cli import main

hold, out = int(sys.argv[1]), sys.argv[2]
for dividend in (200, 3):
    data = {"dividend": dividend, "divisor": 7}
    with open(f"{out}/d{dividend}.json", "w") as f:
        json.dump([{"tag": "start=1", "data": data, "hold": 1},
                   {"tag": "start=0", "data": data, "hold": hold}], f)
    code = main(["sim", "--dut", "serdiv", "--stim", f"{out}/d{dividend}.json",
                 "--max-cycles", str(2 * hold), "--vcd", f"{out}/d{dividend}.vcd"])
    print("sim exit", code)
print("diagnose exit", main(["diagnose", f"{out}/d200.vcd", f"{out}/d3.vcd", "--dut", "serdiv"]))
# The same dump with CRLF line breaks, converted a chunk at a time.
with open(f"{out}/d200.vcd", "rb") as lf, open(f"{out}/crlf.vcd", "wb") as crlf:
    for chunk in iter(lambda: lf.read(1 << 16), b""):
        crlf.write(chunk.replace(b"\\n", b"\\r\\n"))
print("diagnose exit", main(["diagnose", f"{out}/crlf.vcd", f"{out}/d3.vcd", "--dut", "serdiv"]))
"""


def test_long_vcd_round_trip_in_bounded_memory(tmp_path):
    """Two serdiv runs with a 10**6-cycle hold go through `leakscope sim
    --vcd` and `leakscope diagnose a.vcd b.vcd`, once more with a CRLF copy
    of a.vcd, in a child process whose peak RSS stays under a fixed
    ceiling: the writer streams its chunks and the loader matches the quiet
    stretch in place and rewrites line breaks in one copy, so none of them
    holds more than a few texts. The child's own limits stop a regression
    before it can take the machine's memory."""
    hold = 10**6
    src = str(Path(ls.__file__).resolve().parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (120, 120))

    child = subprocess.Popen(
        [sys.executable, "-c", _LONG_VCD_CHILD, str(hold), str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
    )
    output = child.stdout.read()
    child.stdout.close()
    # The usage of this one child, as RUSAGE_CHILDREN would report it if
    # it were the only child the test process ever had.
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, output
    assert output.count(f"simulated {hold + 12} cycles,") == 2, output
    assert output.count("sim exit 0") == 2 and output.count("diagnose exit 0") == 2, output
    assert output.count("divergence at cycle") == 2 and "dividend" in output, output
    assert (tmp_path / "d200.vcd").stat().st_size > 20 * hold
    peak_mb = usage.ru_maxrss / 1024
    assert peak_mb < 120, peak_mb
