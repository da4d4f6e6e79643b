from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest

import leakscope as ls
import leakscope.fuzz
import leakscope.simulator
from leakscope.fuzz import CoverageProbes, data_widths
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import oracle_code_items


def _stim(steps):
    return Stimulus(steps=tuple(steps))


def _step(tag, data=None, hold=1):
    return StimulusStep(tag=tag, data=dict(data or {}), hold=hold)


TAGS = ("start=1", "start=0")
WIDTHS = {"dividend": 8, "divisor": 8}


def test_structural_delete_falls_back_to_append():
    single = _stim([_step("start=1", {"dividend": 1, "divisor": 1})])
    # The rng seeds whose first draw picks "delete".
    seeds = [
        n for n in range(100)
        if random.Random(n).choice(leakscope.fuzz.STRUCTURAL_OPS) == "delete"
    ]
    assert seeds
    for n in seeds:
        out = ls.structural_mutate(single, random.Random(n), tags=TAGS, widths=WIDTHS)
        assert len(out.steps) == 2  # delete on a single step appends instead


def test_structural_mutation_deterministic():
    base = _stim([_step("start=1", {"dividend": 3, "divisor": 9}), _step("start=0")])
    seqs = []
    for _ in range(2):
        rng = random.Random(1234)
        chain = base
        seq = []
        for _ in range(50):
            chain = ls.structural_mutate(chain, rng, tags=TAGS, widths=WIDTHS)
            seq.append(chain)
        seqs.append(seq)
    assert seqs[0] == seqs[1]


def test_structural_untouched_steps_keep_data():
    rng = random.Random(5)
    base = _stim(
        [_step("start=1", {"dividend": 77, "divisor": 5}), _step("start=0", {"dividend": 1, "divisor": 2})]
    )
    for _ in range(100):
        out = ls.structural_mutate(base, rng, tags=TAGS, widths=WIDTHS)
        original = {(s.tag, tuple(sorted(s.data.items()))) for s in base.steps}
        for step in out.steps:
            key = (step.tag, tuple(sorted(step.data.items())))
            # every step either survived verbatim, is a fresh append, or had
            # only its tag replaced; data maps of survivors are untouched
            if key not in original:
                assert step.tag in TAGS


def test_structural_op_frequencies_near_uniform():
    rng = random.Random(99)
    ops = leakscope.fuzz.STRUCTURAL_OPS
    counts = Counter()
    base = _stim([_step("start=1", {"dividend": 1, "divisor": 1}), _step("start=0"), _step("start=1")])
    for _ in range(10_000):
        before = base.steps
        out = ls.structural_mutate(base, rng, tags=TAGS, widths=WIDTHS)
        after = out.steps
        if len(after) > len(before):
            counts["append"] += 1
        elif len(after) < len(before):
            counts["delete"] += 1
        elif {s.data.get("dividend") for s in after} == {s.data.get("dividend") for s in before} and [
            s.tag for s in after
        ] != [s.tag for s in before]:
            counts["replace"] += 1
        else:
            counts["swap"] += 1
    # every op class within 5x of the uniform expectation
    expected = 10_000 / len(ops)
    for op in ops:
        assert counts[op] > expected / 5, counts
        assert counts[op] < expected * 5, counts


def _seed(stim, sid="s0"):
    return ls.Seed(id=sid, stimulus=stim, new_coverage=frozenset({"item"}))


def test_operand_mutants_structural_invariance():
    cfg = ls.FuzzConfig(mutants_per_seed=10_000, rng_seed=3)
    seed = _seed(
        _stim(
            [
                _step("start=1", {"dividend": 9, "divisor": 4}, hold=2),
                _step("start=0", {"dividend": 0, "divisor": 0}, hold=1),
            ]
        )
    )
    batch = ls.operand_mutate(seed, cfg, WIDTHS)
    assert batch.count == 10_000
    for mutant in batch.mutants:
        assert mutant.tags() == seed.stimulus.tags()
        assert len(mutant.steps) == len(seed.stimulus.steps)
        assert [s.hold for s in mutant.steps] == [s.hold for s in seed.stimulus.steps]


def test_operand_mutants_deterministic():
    cfg = ls.FuzzConfig(mutants_per_seed=50, rng_seed=21)
    seed = _seed(_stim([_step("start=1", {"dividend": 9, "divisor": 4})]))
    a = ls.operand_mutate(seed, cfg, WIDTHS)
    b = ls.operand_mutate(seed, cfg, WIDTHS)
    assert a == b


def test_operand_mutants_zero_data_fields_warns(caplog):
    import logging

    cfg = ls.FuzzConfig(mutants_per_seed=5, rng_seed=0)
    seed = _seed(_stim([_step("start=0")]))
    with caplog.at_level(logging.WARNING):
        batch = ls.operand_mutate(seed, cfg, WIDTHS)
    assert batch.count == 5
    assert all(m == seed.stimulus for m in batch.mutants)
    assert "no data fields" in caplog.text


def test_operand_mutation_divisor_zero_probability():
    # Per batch of 200: each mutant rewrites the divisor with p=1/2 to a
    # uniform byte, so P(divisor==0 somewhere) ~= 1-(1-2^-9)^200 ~= 0.32.
    cfg_base = ls.FuzzConfig(mutants_per_seed=200)
    seed_stim = _stim([_step("start=1", {"dividend": 9, "divisor": 7})])
    hits = 0
    trials = 400
    for i in range(trials):
        cfg = ls.FuzzConfig(mutants_per_seed=200, rng_seed=i)
        batch = ls.operand_mutate(_seed(seed_stim, sid=f"s{i}"), cfg, WIDTHS)
        if any(m.steps[0].data["divisor"] == 0 for m in batch.mutants):
            hits += 1
    rate = hits / trials
    lower_bound = 1 - (1 - 2 ** -9) ** 200  # adjusted for subset rewriting
    assert rate >= lower_bound - 0.08
    assert 0.2 < rate < 0.5


def test_probe_items_detect_divider_activity(serdiv):
    h = serdiv.hierarchy
    g = ls.build_megs(h.modules)["divider"]
    probes = CoverageProbes("divider", g)
    bundle = ls.simulate(h, _stim([_step("start=1", {"dividend": 9, "divisor": 3}, hold=2)]))
    items = probes.covered_items(bundle.trace("serdiv.div"))
    assert any(item.startswith("branch:divider:") for item in items)
    assert any(item.startswith("edge:divider:") for item in items)
    idle = ls.simulate(h, _stim([_step("start=0", {"dividend": 0, "divisor": 0})]))
    assert len(probes.covered_items(idle.trace("serdiv.div"))) < len(items)


def test_data_widths_requires_profile_inputs(serdiv):
    bad = ls.DutProfile(top="serdiv", tags=("start=1",), data_inputs=("nope",))
    with pytest.raises(ls.LeakscopeError):
        data_widths(serdiv.hierarchy, bad)


def test_seed_requires_new_coverage():
    with pytest.raises(ValueError):
        ls.Seed(id="s", stimulus=_stim([_step("start=0")]), new_coverage=frozenset())


def _campaign(dut, **overrides):
    defaults = dict(rng_seed=42, time_budget=60.0, mutants_per_seed=40, max_rounds=8)
    defaults.update(overrides)
    cfg = ls.FuzzConfig(**defaults)
    megs = ls.build_megs(dut.hierarchy.modules)
    return ls.fuzz_loop(dut.hierarchy, megs, cfg, dut.profile)


def test_zero_budget_empty_result(serdiv):
    result = _campaign(serdiv, time_budget=0.0)
    assert result.stop_reason == "zero-budget"
    assert result.sims == 0 and result.findings == [] and result.seeds == []


def test_serdiv_campaign_finds_divider_leak(serdiv):
    result = _campaign(serdiv)
    leaks = [
        f for f in result.findings
        if f.instance_path == "serdiv.div" and f.first_leaky_level
    ]
    assert leaks
    culprits = set()
    for inst, _, _, diag in result.diagnoses:
        if inst == "serdiv.div":
            culprits |= diag.culprit_signals
    assert "state" in culprits
    assert not result.aborted_by_wallclock


def test_ct_alu_campaign_no_findings(ct_alu):
    result = _campaign(ct_alu)
    assert result.findings == []


def test_seed_admission_strictly_increases_coverage(serdiv):
    result = _campaign(serdiv)
    cumulative: set[str] = set()
    for seed in result.seeds:
        assert seed.new_coverage
        assert not (seed.new_coverage & cumulative)
        cumulative |= seed.new_coverage
    assert cumulative <= result.code_items


def test_finding_pairs_share_a_seed(serdiv):
    result = _campaign(serdiv)
    seed_ids = {s.id for s in result.seeds}
    for f in result.findings:
        runs = {f.run_a, f.run_b}
        bases = {r.split(".")[0] for r in runs}
        assert len(bases) == 1 and bases <= seed_ids


def test_campaign_reproducible(serdiv):
    from leakscope.reports import (
        campaign_json,
        coverage_report_json,
        diagnoses_json,
        findings_json,
    )

    a = _campaign(serdiv)
    b = _campaign(serdiv)
    assert campaign_json(a) == campaign_json(b)
    assert findings_json(a.findings) == findings_json(b.findings)
    assert diagnoses_json(a.diagnoses) == diagnoses_json(b.diagnoses)
    assert coverage_report_json(a.coverage) == coverage_report_json(b.coverage)


def test_campaign_differs_across_rng_seeds(serdiv):
    from leakscope.reports import campaign_json

    a = _campaign(serdiv, rng_seed=1)
    b = _campaign(serdiv, rng_seed=2)
    assert campaign_json(a) != campaign_json(b)


def test_campaign_builds_one_trace_masks_per_run_and_instance(serdiv, monkeypatch):
    # The probes and the path matcher read one trace per (run, instance),
    # which keeps its masks, so each mask is built once per (run,
    # instance, expression): no guard expression is evaluated twice.
    # A trace owns its list of run values, so that list names the (run,
    # instance) of a build; keeping each one alive keeps the ids unique.
    built: list[tuple[object, str]] = []
    compile_trace_expr = leakscope.simulator.compile_trace_expr

    def counting_compile(expr_text, layout):
        fn = compile_trace_expr(expr_text, layout)

        def build(values, lens):
            built.append((values, expr_text))
            return fn(values, lens)

        return build

    monkeypatch.setattr(leakscope.simulator, "_EXPR_CACHE", {})
    monkeypatch.setattr(leakscope.simulator, "compile_trace_expr", counting_compile)
    result = _campaign(serdiv, mutants_per_seed=10, max_rounds=2)
    assert result.coverage.per_module["divider"].covered_paths > 0
    keys = [(id(values), expr) for values, expr in built]
    assert keys and len(keys) == len(set(keys))



@pytest.mark.parametrize("name", ["serdiv", "cacheset"])
def test_pipeline_leaves_no_cyclic_garbage(name):
    # Reference counting alone frees a dropped pipeline: a design, its
    # graphs, runs and a campaign hold no reference cycles, so nothing
    # waits for the cyclic collector while a campaign or a benchmark runs.
    gc.collect()
    gc.disable()
    try:
        dut = ls.load_dut(name)
        megs = ls.build_megs(dut.hierarchy.modules)
        design = ls.compile_design(dut.hierarchy)
        for stim in dut.stimuli.values():
            bundle = ls.simulate(design, stim)
            assert all(bundle.trace(path).mask("1") for path in bundle.instances())
        cfg = ls.FuzzConfig(rng_seed=0, mutants_per_seed=10, max_rounds=1)
        result = ls.fuzz_loop(dut.hierarchy, megs, cfg, dut.profile)
        assert result.sims
        dropped = weakref.ref(design)
        del design
        assert dropped() is None
        del dut, megs, bundle, result
        assert gc.collect() == 0
    finally:
        gc.enable()

def test_seed_corpus_is_consumed(cacheset):
    megs = ls.build_megs(cacheset.hierarchy.modules)
    cfg = ls.FuzzConfig(rng_seed=0, mutants_per_seed=10, max_rounds=2)
    corpus = [cacheset.stimuli["hit"], cacheset.stimuli["miss_replace"]]
    result = ls.fuzz_loop(cacheset.hierarchy, megs, cfg, cacheset.profile, corpus)
    assert len(result.seeds) >= 1
    assert result.seeds[0].stimulus == cacheset.stimuli["hit"]


def test_repeated_stimulus_adds_nothing(cacheset):
    # Why a campaign caches no run: a repeat of an earlier run reaches no
    # uncovered code item and matches no pending path.
    h = cacheset.hierarchy
    megs = ls.build_megs(h.modules)
    cfg = ls.FuzzConfig(rng_seed=0, mutants_per_seed=10, max_rounds=1)
    stim = cacheset.stimuli["miss_replace"]
    result = ls.fuzz_loop(h, megs, cfg, cacheset.profile, [stim, stim])
    assert [seed.stimulus for seed in result.seeds].count(stim) == 1
    assert result.seeds[0].stimulus == stim

    campaign = leakscope.fuzz._Campaign(h, megs, cfg, cacheset.profile, None)
    per_module = campaign.result.coverage.per_module
    first = campaign.simulate(stim, "a")
    campaign.result.code_items |= campaign.code_items(first)
    campaign.update_path_coverage(first)
    covered = {name: set(m.covered) for name, m in per_module.items()}
    assert campaign.result.code_items and any(covered.values())
    again = campaign.simulate(stim, "b")
    assert campaign.code_items(again) == set()
    campaign.update_path_coverage(again)
    assert {name: m.covered for name, m in per_module.items()} == covered


def test_probe_items_equal_per_cycle_oracle(cacheset, cacheset_multiway, serdiv, ct_alu):
    def check(dut, stimuli):
        h = dut.hierarchy
        megs = ls.build_megs(h.modules)
        probes = {name: CoverageProbes(name, g) for name, g in megs.items()}
        design = ls.compile_design(h)
        for stim in stimuli:
            bundle = ls.simulate(design, stim)
            for inst in h.instances:
                probe = probes[inst.module_name]
                got = probe.covered_items(bundle.trace(inst.path))
                assert got == oracle_code_items(probe, bundle, inst.path), inst.path

    for dut in (cacheset, cacheset_multiway, serdiv, ct_alu):
        check(dut, dut.stimuli.values())
    check(serdiv, [
        _stim([_step("start=1", {"dividend": dividend, "divisor": divisor}, hold=2)])
        for dividend in (0, 1, 7, 200, 255)
        for divisor in (0, 1, 3, 255)
    ])


def test_probes_skip_covered_items(cacheset, serdiv):
    # Campaigns probe only the coverage frontier: skipped items are
    # neither evaluated nor reported, and the rest are unaffected.
    for dut in (cacheset, serdiv):
        h = dut.hierarchy
        megs = ls.build_megs(h.modules)
        probes = {name: CoverageProbes(name, g) for name, g in megs.items()}
        design = ls.compile_design(h)
        rng = random.Random(7)
        for stim in dut.stimuli.values():
            bundle = ls.simulate(design, stim)
            for inst in h.instances:
                probe = probes[inst.module_name]
                want = oracle_code_items(probe, bundle, inst.path)
                every = [item for item, *_ in probe.branches + probe.edges]
                for skip in (set(), set(every), want, set(rng.sample(every, len(every) // 2))):
                    got = probe.covered_items(bundle.trace(inst.path), skip)
                    assert got == want - skip, (inst.path, len(skip))

