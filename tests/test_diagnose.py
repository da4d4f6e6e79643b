from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.diagnose import _first_divergence
from leakscope.meg import NodeKind
from leakscope.simulator import TraceBundle
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import oracle_first_divergence


def _stim(tag, data, hold=2):
    return Stimulus(steps=(StimulusStep(tag=tag, data=data, hold=hold),))


@pytest.fixture(scope="module")
def cacheset_meg(cacheset):
    return ls.build_meg(cacheset.hierarchy.modules["cacheset"], cacheset.hierarchy.modules)


def test_identical_traces_no_divergence(cacheset_runs, cacheset_meg):
    trace = cacheset_runs["hit"].trace("cacheset")
    with pytest.raises(ls.NoDivergence):
        ls.diagnose(trace, trace, cacheset_meg)


def test_hit_vs_miss_golden(cacheset_runs, cacheset_meg):
    hit = cacheset_runs["hit"].trace("cacheset")
    miss = cacheset_runs["miss_free"].trace("cacheset")
    diag = ls.diagnose(hit, miss, cacheset_meg)
    # Divergence lands on the stimulus cycle: the differing address and the
    # combinational tag-compare chain derived from it resolve right there.
    assert diag.divergence_cycle == cacheset_runs["hit"].start_cycle
    assert diag.instigators == frozenset({"addr", "tag_addr"})
    assert "hit" in diag.culprit_signals
    seq_kinds = {
        n.id for n in cacheset_meg.nodes.values()
        if n.kind is NodeKind.SEQUENTIAL
    }
    assert "hit" in seq_kinds


def test_symmetry(cacheset_runs, cacheset_meg):
    a = cacheset_runs["hit"].trace("cacheset")
    b = cacheset_runs["miss_replace"].trace("cacheset")
    d1 = ls.diagnose(a, b, cacheset_meg)
    d2 = ls.diagnose(b, a, cacheset_meg)
    assert d1.instigators == d2.instigators
    assert d1.divergence_cycle == d2.divergence_cycle
    assert d1.culprits == d2.culprits


def test_divergence_cycle_minimality(cacheset_runs, cacheset_meg):
    a = cacheset_runs["hit"].trace("cacheset")
    b = cacheset_runs["miss_free"].trace("cacheset")
    diag = ls.diagnose(a, b, cacheset_meg)
    for cycle in range(diag.divergence_cycle):
        for name in a.signal_values:
            assert a.signal_values[name][cycle] == b.signal_values[name][cycle]


def test_culprits_are_clocked_and_reachable(cacheset_runs, cacheset_meg):
    g = cacheset_meg
    a = cacheset_runs["hit"].trace("cacheset")
    b = cacheset_runs["miss_free"].trace("cacheset")
    diag = ls.diagnose(a, b, g)
    for signal, _loc in diag.culprits:
        assert g.nodes[signal].clocked
    # reachability through non-clocked interior nodes only
    reach = set(diag.instigators)
    frontier = list(diag.instigators)
    while frontier:
        nxt = []
        for s in frontier:
            for e in g.out_edges(s):
                if g.nodes[e.dst].clocked:
                    reach.add(e.dst)
                elif e.dst not in reach:
                    reach.add(e.dst)
                    nxt.append(e.dst)
        frontier = nxt
    assert diag.culprit_signals <= reach


def test_serdiv_divisor_leak_culprits(serdiv):
    h = serdiv.hierarchy
    megs = ls.build_megs(h.modules)
    a = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 0}))
    b = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 3}))
    diag = ls.diagnose(a.trace("serdiv.div"), b.trace("serdiv.div"), megs["divider"])
    assert "divisor" in diag.instigators
    assert "state" in diag.culprit_signals  # the iteration-state register
    assert "dbz" in diag.culprit_signals
    # culprit lines point at real assignments in the divider source
    text = dict(serdiv.sources)["serdiv.hdl"].splitlines()
    for _, loc in diag.culprits:
        assert "=" in text[loc.line - 1]


def test_signal_mismatch(cacheset_runs, serdiv, cacheset_meg):
    other = ls.simulate(serdiv.hierarchy, _stim("start=1", {"dividend": 1, "divisor": 1}))
    with pytest.raises(ls.SignalMismatch):
        ls.diagnose(
            cacheset_runs["hit"].trace("cacheset"),
            other.trace("serdiv"),
            cacheset_meg,
        )


def test_length_mismatch_reports_tail(cacheset, cacheset_meg):
    # Same content over the common prefix, one trace longer with activity:
    # divergence lands at the common length with tail togglers as instigators.
    h = cacheset.hierarchy
    a = ls.simulate(h, cacheset.stimuli["hit"])
    longer = {
        path: {name: series + series[-1:] * 3 for name, series in a.trace(path).signal_values.items()}
        for path in a.instances()
    }
    longer["cacheset"]["way"][-1] ^= 1  # toggle in the tail
    widths = {path: dict(zip(a.signal_names(path), a.signal_widths(path))) for path in a.instances()}
    b = TraceBundle.from_signal_values(longer, widths, a.start_cycle)
    diag = ls.diagnose(a.trace("cacheset"), b.trace("cacheset"), cacheset_meg)
    assert diag.divergence_cycle == a.cycles
    assert "way" in diag.instigators


def test_agreement_with_measure(serdiv):
    # P2: whenever measured times differ, diagnose finds a divergence.
    h = serdiv.hierarchy
    megs = ls.build_megs(h.modules)
    rng = random.Random(3)
    for _ in range(40):
        a = ls.simulate(h, _stim("start=1", {"dividend": rng.randrange(32), "divisor": rng.randrange(4)}))
        b = ls.simulate(h, _stim("start=1", {"dividend": rng.randrange(32), "divisor": rng.randrange(4)}))
        if ls.measure(a, "serdiv.div").cycles != ls.measure(b, "serdiv.div").cycles:
            diag = ls.diagnose(a.trace("serdiv.div"), b.trace("serdiv.div"), megs["divider"])
            assert diag.instigators


def test_frontier_trace_layers(cacheset_runs, cacheset_meg):
    a = cacheset_runs["hit"].trace("cacheset")
    b = cacheset_runs["miss_free"].trace("cacheset")
    diag = ls.diagnose(a, b, cacheset_meg)
    assert diag.frontier_trace[0] == tuple(sorted(diag.instigators))
    flattened = [n for layer in diag.frontier_trace for n in layer]
    assert len(flattened) == len(set(flattened))



@st.composite
def _trace_pair(draw):
    """Two per-signal series dicts of one instance with few distinct values,
    the second listing its signals in another order and often sharing a
    prefix with the first."""
    def series(cycles):
        palette = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(palette), min_size=cycles, max_size=cycles))

    cycles1, cycles2 = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    sv1 = {name: series(cycles1) for name in "abc"}
    if draw(st.booleans()):
        sv2 = {name: (sv1[name] + series(cycles2))[:cycles2] for name in "cba"}
    else:
        sv2 = {name: series(cycles2) for name in "cba"}
    if cycles2 and draw(st.booleans()):
        sv2[draw(st.sampled_from("abc"))][draw(st.integers(0, cycles2 - 1))] ^= 1
    return sv1, sv2


@settings(max_examples=300, deadline=None)
@given(_trace_pair())
def test_first_divergence_agrees_with_per_cycle_scan(pair):
    """Phase 1 reads only run starts; a cycle-by-cycle scan of the series
    must find the same signals and cycle."""
    sv1, sv2 = pair
    a = TraceBundle.from_signal_values({"u": sv1}, {}, 0).trace("u")
    b = TraceBundle.from_signal_values({"u": sv2}, {}, 0).trace("u")
    want = oracle_first_divergence(sv1, sv2)
    if want is None:
        with pytest.raises(ls.NoDivergence):
            _first_divergence(a, b)
    else:
        assert _first_divergence(a, b) == want
