from __future__ import annotations

import pytest

import leakscope as ls
from leakscope.simulator import TraceBundle
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import oracle_write_vcd


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
    # Signals in a mixed order across instances; each cycle sets exactly the
    # values that differ from the previous cycle, and a repeated row none.
    for bundle in [*_long_hold_serdiv_runs(serdiv), _assembled_bundle()]:
        signals = [(p, n) for p in reversed(bundle.instances()) for n in bundle.signal_names(p)]
        series = [bundle.trace(p).signal_values[n] for p, n in signals]
        expected = [
            [(k, s[c]) for k, s in enumerate(series) if c == 0 or s[c] != s[c - 1]]
            for c in range(bundle.cycles)
        ]
        got = list(bundle.value_changes(signals))
        assert [list(changes) for changes in got] == expected, bundle.seed_id
        rows = bundle._rows
        assert all(got[c] == () for c in range(1, bundle.cycles) if rows[c] is rows[c - 1])


def test_quiet_stretch_shares_one_row(serdiv):
    bundle = _long_hold_serdiv_runs(serdiv)[0]
    rows = bundle._rows
    assert rows[-1] is rows[-2]
    distinct = {id(row) for row in rows}
    assert len(distinct) < bundle.cycles // 4
    back = ls.load_vcd(ls.write_vcd(bundle))
    assert back._rows[-1] is back._rows[-2]
    assert len({id(row) for row in back._rows}) == len(distinct)
    assembled = _assembled_bundle()
    assert assembled._rows[7] is assembled._rows[6] and assembled._rows[8] is assembled._rows[7]
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
