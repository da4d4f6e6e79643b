"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts. Every tolerance is exact unless the criterion states otherwise.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import leakscope as ls
from leakscope.coverage import PathTrie
from leakscope.reports import (
    campaign_json,
    coverage_report_json,
    diagnoses_json,
    findings_json,
)
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import oracle_edges, oracle_match, oracle_simple_paths, trace_evaluator

GOLDEN = Path(__file__).parent / "golden"


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS  {detail}")


def _stim(tag, data, hold=2):
    return Stimulus(steps=(StimulusStep(tag=tag, data=data, hold=hold),))


# -- C1: case-study latencies -------------------------------------------------

def test_c01_case_study_latencies(cacheset):
    started = time.monotonic()
    h = cacheset.hierarchy
    times = {
        name: ls.measure(ls.simulate(h, stim), "cacheset").cycles
        for name, stim in cacheset.stimuli.items()
    }
    assert times["hit"] == 3
    assert times["miss_free"] == 19
    assert times["miss_replace"] == 23
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("C1", f"hit/miss/replace = 3/19/23 cycles ({elapsed:.2f}s)")


# -- C2: case-study MEPs -------------------------------------------------------

def test_c02_case_study_meps(cacheset):
    started = time.monotonic()
    g = ls.build_meg(cacheset.hierarchy.modules["cacheset"], cacheset.hierarchy.modules)
    seqs = {p.node_ids for p in ls.enumerate_meps(g).paths}
    hit = ("addr", "tag_addr", "way")
    miss = ("addr", "tag_addr", "hit", "fetch", "mem_call", "complete", "way")
    assert hit in seqs
    assert miss in seqs
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("C2", f"both named paths present among {len(seqs)} MEPs ({elapsed:.2f}s)")


# -- C3: localization golden ----------------------------------------------------

def test_c03_localization_golden(cacheset, cacheset_runs):
    started = time.monotonic()
    golden = json.loads((GOLDEN / "cacheset_diagnosis.json").read_text())
    g = ls.build_meg(cacheset.hierarchy.modules["cacheset"], cacheset.hierarchy.modules)
    hit = cacheset_runs["hit"]
    miss = cacheset_runs["miss_free"]
    diag = ls.diagnose(hit.trace("cacheset"), miss.trace("cacheset"), g)

    # Divergence right where the tag compare resolves: the cycle the
    # differing address lands and the combinational compare chain flips.
    assert diag.divergence_cycle == hit.start_cycle
    assert sorted(diag.instigators) == golden["instigators"]
    got = sorted((signal, loc.line) for signal, loc in diag.culprits)
    want = sorted((s, l) for s, l in golden["culprits"])
    assert got == want
    assert "hit" in diag.culprit_signals
    from leakscope.meg import NodeKind

    assert g.nodes["hit"].kind is NodeKind.SEQUENTIAL
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("C3", f"instigators {golden['instigators']}, {len(got)} culprit pairs ({elapsed:.2f}s)")


# -- C4: divider leak under a pinned-seed campaign ------------------------------

def test_c04_divider_leak_campaign(serdiv):
    started = time.monotonic()
    megs = ls.build_megs(serdiv.hierarchy.modules)
    cfg = ls.FuzzConfig(rng_seed=42, time_budget=60.0)
    result = ls.fuzz_loop(serdiv.hierarchy, megs, cfg, serdiv.profile)
    leaks = [
        f for f in result.findings
        if f.instance_path == "serdiv.div" and f.first_leaky_level and f.delta > 0
    ]
    assert leaks, "expected at least one first-leaky finding on the divider"
    culprits = set()
    for inst, _, _, diag in result.diagnoses:
        if inst == "serdiv.div":
            culprits |= diag.culprit_signals
    assert "state" in culprits  # the iteration-state register

    # Deterministic under the pinned seed.
    again = ls.fuzz_loop(serdiv.hierarchy, megs, cfg, serdiv.profile)
    assert findings_json(result.findings) == findings_json(again.findings)
    assert diagnoses_json(result.diagnoses) == diagnoses_json(again.diagnoses)
    assert not result.aborted_by_wallclock
    elapsed = time.monotonic() - started
    assert elapsed < 90.0
    _report(
        "C4",
        f"{len(leaks)} first-leaky divider findings, state in culprits, "
        f"deterministic ({elapsed:.1f}s)",
    )


# -- C5: negative control --------------------------------------------------------

def test_c05_negative_control_exhaustive(ct_alu):
    started = time.monotonic()
    h = ct_alu.hierarchy
    design = ls.compile_design(h)
    baseline = None
    distinct_times = set()
    bundles0 = None
    total_findings = 0
    for a in range(256):
        for b in range(256):
            bundle = ls.simulate(
                design, _stim("start=1;op=0", {"a": a, "b": b}), seed_id=f"r{a}_{b}"
            )
            t = ls.measure(bundle, "ct_alu").cycles
            distinct_times.add(t)
            if baseline is None:
                baseline = bundle
            else:
                total_findings += len(ls.analyze([(baseline, bundle)], h))
    assert distinct_times == {3}
    assert total_findings == 0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(
        "C5",
        f"65536 operand pairs, constant 3 cycles, 0 findings ({elapsed:.1f}s)",
    )


# -- C6: MEG soundness/completeness oracle ---------------------------------------

def test_c06_meg_edge_oracle(cacheset, cacheset_multiway, serdiv, ct_alu):
    started = time.monotonic()
    checked = 0
    for dut in (cacheset, cacheset_multiway, serdiv, ct_alu):
        h = dut.hierarchy
        for name in h.modules:
            g = ls.build_meg(h.modules[name], h.modules)
            got = {(e.src, e.dst, e.lines) for e in g.edges.values()}
            want = oracle_edges(h, name)
            assert got == want, name
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("C6", f"edge sets equal the statement-walking oracle on {checked} modules ({elapsed:.2f}s)")


# -- C7: path-enumeration oracle ---------------------------------------------------

def test_c07_path_enumeration_oracle():
    from leakscope.hdl_ast import SourceLoc
    from leakscope.meg import Meg, MegEdge, MegNode, NodeKind

    started = time.monotonic()
    rng = random.Random(20260809)
    loc = SourceLoc("synthetic", 1, 1)
    for trial in range(100):
        n = rng.randint(2, 10)
        nodes = [f"n{i}" for i in range(n)]
        inputs = set(rng.sample(nodes, rng.randint(1, max(1, n // 3))))
        rest = [x for x in nodes if x not in inputs]
        outputs = set(rng.sample(rest, rng.randint(1, len(rest)))) if rest else set()
        edges = {
            (nodes[i], nodes[j])
            for i in range(n)
            for j in range(n)
            if i < j and rng.random() < 0.35
        }
        g = Meg(module_name="synthetic")
        for name in nodes:
            kind = (
                NodeKind.INPUT if name in inputs
                else NodeKind.OUTPUT if name in outputs
                else NodeKind.COMBINATIONAL
            )
            g.nodes[name] = MegNode(name, kind, loc, False)
        for src, dst in sorted(edges):
            g.edges[(src, dst)] = MegEdge(src, dst, (), frozenset({1}), (loc,))
        result = ls.enumerate_meps(g, max_paths=1_000_000, max_len=64)
        got = {p.node_ids for p in result.paths}
        want = oracle_simple_paths(inputs, outputs, set(nodes), edges)
        assert got == want, f"trial {trial}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("C7", f"100 random DAGs match the brute-force oracle ({elapsed:.1f}s)")


# -- C8: coverage-matching oracle ------------------------------------------------

def test_c08_coverage_matching_oracle(serdiv):
    started = time.monotonic()
    h = serdiv.hierarchy
    design = ls.compile_design(h)
    g = ls.build_megs(h.modules)["divider"]
    conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
    trie = PathTrie((pc.path_id, pc.steps) for pc in conditions)
    compared = 0
    for dividend in range(16):
        for divisor in range(8):
            bundle = ls.simulate(
                design, _stim("start=1", {"dividend": dividend, "divisor": divisor})
            )
            covered = trie.covered(bundle.trace("serdiv.div"))
            evaluate = trace_evaluator(bundle, "serdiv.div")
            for pc in conditions:
                got = pc.path_id in covered
                want = oracle_match(pc.steps, evaluate, evaluate.cycles)
                assert got == want, (pc.node_ids, dividend, divisor)
                compared += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report("C8", f"{compared} path/trace verdicts equal exhaustive alignment ({elapsed:.1f}s)")


# -- C9: trace-function properties ------------------------------------------------

def test_c09_trace_function_properties(serdiv, ct_alu):
    started = time.monotonic()
    h = serdiv.hierarchy
    design = ls.compile_design(h)
    megs = ls.build_megs(h.modules)
    rng = random.Random(4242)

    # Pre-simulate a pool of runs over random operands (shared by P1/P2).
    pool = []
    for _ in range(250):
        stim = _stim(
            "start=1",
            {"dividend": rng.randrange(256), "divisor": rng.randrange(8)},
        )
        pool.append(ls.simulate(design, stim))

    # P1: identical traces => equal execution times (1000 trials).
    for _ in range(1000):
        bundle = pool[rng.randrange(len(pool))]
        other = ls.simulate(design, bundle.stimulus)
        assert other.equal_traces(bundle)
        for path in bundle.instances():
            assert ls.measure(bundle, path).cycles == ls.measure(other, path).cycles

    # P2: unequal execution times => diagnose finds a divergence (1000 trials).
    p2_hits = 0
    for _ in range(1000):
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        if ls.measure(a, "serdiv.div").cycles != ls.measure(b, "serdiv.div").cycles:
            diag = ls.diagnose(a.trace("serdiv.div"), b.trace("serdiv.div"), megs["divider"])
            assert diag.instigators
            p2_hits += 1
    assert p2_hits > 100

    # Self-pair neutrality: analyze(B, B) is empty (1000 trials).
    for _ in range(1000):
        bundle = pool[rng.randrange(len(pool))]
        assert ls.analyze([(bundle, bundle)], h) == []

    # Determinism: repeated campaigns with equal configs are byte-identical.
    for seed in (1, 2, 3):
        cfg = ls.FuzzConfig(rng_seed=seed, mutants_per_seed=30, max_rounds=4)
        r1 = ls.fuzz_loop(h, megs, cfg, serdiv.profile)
        r2 = ls.fuzz_loop(h, megs, cfg, serdiv.profile)
        assert campaign_json(r1) == campaign_json(r2)
        assert findings_json(r1.findings) == findings_json(r2.findings)
        assert coverage_report_json(r1.coverage) == coverage_report_json(r2.coverage)
    elapsed = time.monotonic() - started
    _report("C9", f"P1/P2/self-pair x1000 clean, campaigns byte-identical ({elapsed:.1f}s)")


# -- C10: VCD round trip -----------------------------------------------------------

def test_c10_vcd_round_trip(cacheset, cacheset_runs, serdiv_runs, ct_alu, cacheset_multiway):
    started = time.monotonic()
    bundles = list(cacheset_runs.values()) + list(serdiv_runs.values())
    bundles.append(ls.simulate(ct_alu.hierarchy, ct_alu.stimuli["add"]))
    for name, stim in cacheset_multiway.stimuli.items():
        bundles.append(ls.simulate(cacheset_multiway.hierarchy, stim, seed_id=name))
    for bundle in bundles:
        back = ls.load_vcd(ls.write_vcd(bundle))
        assert bundle.equal_traces(back)
        assert back.start_cycle == bundle.start_cycle
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("C10", f"{len(bundles)} bundles reproduced bit-identically ({elapsed:.2f}s)")


# -- C11: operand-mutant structural invariance ---------------------------------------

def test_c11_operand_mutant_invariance(serdiv):
    started = time.monotonic()
    widths = {"dividend": 8, "divisor": 8}
    checked = 0
    rng = random.Random(77)
    seed_index = 0
    while checked < 10_000:
        steps = tuple(
            StimulusStep(
                tag=rng.choice(("start=1", "start=0")),
                data={"dividend": rng.randrange(256), "divisor": rng.randrange(256)},
                hold=rng.randint(1, 3),
            )
            for _ in range(rng.randint(1, 4))
        )
        seed = ls.Seed(
            id=f"s{seed_index}",
            stimulus=Stimulus(steps=steps),
            new_coverage=frozenset({"x"}),
        )
        seed_index += 1
        cfg = ls.FuzzConfig(mutants_per_seed=500, rng_seed=seed_index)
        batch = ls.operand_mutate(seed, cfg, widths)
        for mutant in batch.mutants:
            assert mutant.tags() == seed.stimulus.tags()
            assert len(mutant.steps) == len(seed.stimulus.steps)
            checked += 1
    assert checked >= 10_000
    elapsed = time.monotonic() - started
    _report("C11", f"{checked} mutants preserved tags and step counts ({elapsed:.1f}s)")
