from __future__ import annotations

import random

import pytest

import leakscope as ls
from leakscope.simulator import TraceBundle
from leakscope.stimulus import Stimulus, StimulusStep


def _stim(tag, data, hold=2):
    return Stimulus(steps=(StimulusStep(tag=tag, data=data, hold=hold),))


def _hand_bundle(series_by_signal, start_cycle=1):
    """Hand-built single-instance bundle for measurement edge cases."""
    widths = {"u": {name: 8 for name in series_by_signal}}
    return TraceBundle.from_signal_values({"u": series_by_signal}, widths, start_cycle)


def test_measure_constant_trace_is_zero():
    bundle = _hand_bundle({"s": [3, 3, 3, 3, 3]}, start_cycle=1)
    t = ls.measure(bundle, "u")
    assert t.cycles == 0 and t.start_cycle == 1


def test_measure_last_toggle_bruteforce_scan():
    series = [0, 0, 1, 1, 2]  # toggles at cycles 2 and 4
    bundle = _hand_bundle({"s": series}, start_cycle=1)
    t = ls.measure(bundle, "u")
    # independent scan
    last = max(c for c in range(1, 5) if series[c] != series[c - 1])
    assert t.last_toggle_cycle == last == 4
    assert t.cycles == last - 1 + 1


def test_measure_ignores_pre_start_toggles():
    bundle = _hand_bundle({"s": [0, 7, 7, 7]}, start_cycle=2)
    assert ls.measure(bundle, "u").cycles == 0


def test_measure_unknown_instance(cacheset_runs):
    with pytest.raises(ls.UnknownInstance):
        ls.measure(cacheset_runs["hit"], "nope")


def test_hit_vs_replacement_delta_twenty(cacheset_runs):
    t_hit = ls.measure(cacheset_runs["hit"], "cacheset").cycles
    t_repl = ls.measure(cacheset_runs["miss_replace"], "cacheset").cycles
    assert t_repl - t_hit == 20


def test_analyze_self_pair_empty(cacheset, cacheset_runs):
    for bundle in cacheset_runs.values():
        assert ls.analyze([(bundle, bundle)], cacheset.hierarchy) == []


def test_analyze_serdiv_first_leaky_on_divider(serdiv):
    h = serdiv.hierarchy
    a = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 0}), seed_id="d0")
    b = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 3}), seed_id="d3")
    findings = ls.analyze([(a, b)], h)
    by_instance = {f.instance_path: f for f in findings}
    assert by_instance["serdiv.div"].delta > 0
    assert by_instance["serdiv.div"].first_leaky_level
    assert not by_instance["serdiv"].first_leaky_level


def test_bottom_up_dominance(cacheset, cacheset_runs):
    findings = ls.analyze(
        [(cacheset_runs["hit"], cacheset_runs["miss_free"])], cacheset.hierarchy
    )
    fired = [f.instance_path for f in findings]
    for f in findings:
        if not f.first_leaky_level:
            assert any(other.startswith(f.instance_path + ".") for other in fired)


def test_structural_mismatch_detected(serdiv):
    h = serdiv.hierarchy
    a = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 1}))
    b = ls.simulate(
        h,
        Stimulus(
            steps=(
                StimulusStep(tag="start=1", data={"dividend": 9, "divisor": 1}, hold=2),
                StimulusStep(tag="start=0", data={}, hold=2),
            )
        ),
    )
    with pytest.raises(ls.StructuralMismatch):
        ls.analyze([(a, b)], h)
    c = ls.simulate(h, _stim("start=0", {"dividend": 9, "divisor": 1}))
    with pytest.raises(ls.StructuralMismatch):
        ls.analyze([(a, c)], h)


def test_min_delta_filter(serdiv):
    h = serdiv.hierarchy
    a = ls.simulate(h, _stim("start=1", {"dividend": 4, "divisor": 2}), seed_id="a")
    b = ls.simulate(h, _stim("start=1", {"dividend": 6, "divisor": 2}), seed_id="b")
    assert ls.analyze([(a, b)], h, min_delta=1)
    assert ls.analyze([(a, b)], h, min_delta=50) == []
    with pytest.raises(ls.LeakscopeError, match="min delta must be at least 1, got 0"):
        ls.analyze([(a, b)], h, min_delta=0)


def test_dedup_across_repeated_pairs(serdiv):
    h = serdiv.hierarchy
    a = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 0}), seed_id="x")
    b = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 3}), seed_id="y")
    once = ls.analyze([(a, b)], h)
    twice = ls.analyze([(a, b), (b, a)], h)
    assert len(once) == len(twice)


def test_monotone_snipping(serdiv):
    stim = _stim("start=1", {"dividend": 30, "divisor": 4})
    short = ls.simulate(serdiv.hierarchy, stim, quiescence_window=8)
    padded = ls.simulate(serdiv.hierarchy, stim, quiescence_window=30)
    for path in short.instances():
        assert ls.measure(short, path).cycles == ls.measure(padded, path).cycles


def test_distributions_serdiv_ordered_medians(serdiv):
    h = serdiv.hierarchy
    design = ls.compile_design(h)
    bundles = []
    for dividend in range(16):
        for divisor in range(16):
            bundles.append(
                ls.simulate(design, _stim("start=1", {"dividend": dividend, "divisor": divisor}))
            )

    def classify(stim: Stimulus) -> str:
        divisor = stim.steps[0].data["divisor"]
        return "zero" if divisor == 0 else ("one" if divisor == 1 else "many")

    dists = ls.distributions(bundles, "serdiv.div", classify)
    medians = {d.group_key: d.median for d in dists}
    assert medians["zero"] < medians["many"] < medians["one"]


def test_distribution_single_sample_and_max_deviation(serdiv):
    h = serdiv.hierarchy
    one = ls.simulate(h, _stim("start=1", {"dividend": 9, "divisor": 3}))
    dists = ls.distributions([one], "serdiv.div", lambda s: "g")
    assert len(dists) == 1
    assert dists[0].median == dists[0].samples[0]
    two = ls.distributions([one, one], "serdiv.div", lambda s: "g")
    assert two[0].max_deviation == 0


def test_distributions_empty_group():
    with pytest.raises(ls.EmptyGroup):
        ls.distributions([], "u", lambda s: "g")


def test_p2_unequal_times_implies_trace_difference(serdiv):
    h = serdiv.hierarchy
    megs = ls.build_megs(h.modules)
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        s1 = _stim("start=1", {"dividend": rng.randrange(64), "divisor": rng.randrange(8)})
        s2 = _stim("start=1", {"dividend": rng.randrange(64), "divisor": rng.randrange(8)})
        a = ls.simulate(h, s1)
        b = ls.simulate(h, s2)
        ta = ls.measure(a, "serdiv.div").cycles
        tb = ls.measure(b, "serdiv.div").cycles
        if ta != tb:
            checked += 1
            diag = ls.diagnose(a.trace("serdiv.div"), b.trace("serdiv.div"), megs["divider"])
            assert diag.instigators
    assert checked > 10


def test_toggle_scans_agree_with_per_signal_scan(cacheset_runs, serdiv_runs, serdiv):
    """`last_toggle_at_or_after` against a scan of the per-signal traces,
    from every start, on runs with long quiet stretches."""
    bundles = list(cacheset_runs.values()) + list(serdiv_runs.values())
    for divisor, hold in ((7, 300), (0, 40), (1, 1)):
        data = {"dividend": 200, "divisor": divisor}
        bundles.append(ls.simulate(serdiv.hierarchy, Stimulus(steps=(
            StimulusStep(tag="start=1", data=data, hold=1),
            StimulusStep(tag="start=0", data=data, hold=hold),
        ))))
    bundles.append(_hand_bundle({"s": [0, 1, 1, 1, 1, 2, 2], "t": [5, 5, 5, 4, 4, 4, 4]}))
    for bundle in bundles:
        for path in bundle.instances():
            series = list(bundle.trace(path).signal_values.values())
            toggles = [
                c for c in range(1, bundle.cycles) if any(s[c] != s[c - 1] for s in series)
            ]
            for start in range(bundle.cycles + 2):
                want = max((c for c in toggles if c >= start), default=None)
                assert bundle.last_toggle_at_or_after(path, start) == want, (path, start)
