"""Self-check of the benchmark's correctness checks.

Each case runs a check on a small real result, where it must pass, and on
a deliberately corrupted copy, where it must report a problem. Run with
`python3 bench/run.py --self-check`; the exit code is 1 when a check
misses its corruption or fails on the clean result.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import leakscope as ls

import checks
import synth
import workloads
from workloads import START


def flipped(bundle, path: str, signal: str, cycle: int):
    """A copy of `bundle` with one value of one signal changed."""
    values = {p: dict(bundle.trace(p).signal_values) for p in bundle.instances()}
    series = list(values[path][signal])
    series[cycle] ^= 1
    values[path][signal] = series
    widths = {p: dict(zip(bundle.signal_names(p), bundle.signal_widths(p))) for p in bundle.instances()}
    return ls.TraceBundle.from_signal_values(values, widths, bundle.start_cycle)


def detect_cases():
    api = workloads.make_api()
    setups = {
        name: workloads.setup_design(api, ls.load_dut(name).hierarchy)
        for name in ("serdiv", "ct_alu")
    }
    regs = {d.name for d in setups["serdiv"].h.modules["divider"].all_signals() if d.is_reg}
    pair = {"design": "serdiv", "a1": 200, "a2": 100, "b": 3, "hold": 300, "vcd": True}
    outcome = workloads.detect_pair(api, setups["serdiv"], pair, workloads.detect_stimuli(pair))
    a, _ = outcome["runs"]
    record = dict(pair, findings=outcome["findings"], diagnoses=outcome["diagnoses"],
                  truncated=False, vcd_equal=True)
    div = next(f for f in record["findings"] if f.instance_path == checks.DIVIDER)
    others = [f for f in record["findings"] if f is not div]
    shifted = dataclasses.replace(div, time_b=div.time_b + 1)
    reloaded = flipped(outcome["reloaded"][0], checks.DIVIDER, "state", a.cycles // 2)
    ct = {"design": "ct_alu", "a1": 5, "a2": 9, "b": 1, "c": 3, "hold": 300, "vcd": False}
    ct_outcome = workloads.detect_pair(api, setups["ct_alu"], ct, workloads.detect_stimuli(ct))
    ct_record = dict(ct, findings=ct_outcome["findings"], diagnoses=[], truncated=False, vcd_equal=None)

    def check(**changes):
        return checks.check_detect_pair(dict(record, **changes), regs)

    yield "detect: divider delta shifted by one", check(), check(findings=others + [shifted])
    yield "detect: divider finding dropped", check(), check(findings=others)
    yield ("detect: diagnosis without a divider register", check(),
           check(diagnoses=[(checks.DIVIDER, frozenset({"result"}))]))
    yield ("detect: VCD round trip altered", check(),
           check(vcd_equal=reloaded.equal_traces(a)))
    yield "detect: truncated run", check(), check(truncated=True)
    yield ("detect: finding on the constant-time ALU",
           checks.check_detect_pair(ct_record, regs),
           checks.check_detect_pair(dict(ct_record, findings=[div]), regs))


def campaign_cases():
    dut = ls.load_dut("cacheset")
    h = dut.hierarchy
    megs = ls.build_megs(h.modules)
    cfg = ls.FuzzConfig(rng_seed=3, mutants_per_seed=8, max_rounds=1, time_budget=float("inf"))
    result = ls.fuzz_loop(h, megs, cfg, dut.profile)
    stim_of = workloads.campaign_stimulus_resolver(result, cfg, h, dut.profile)
    f = next(f for f in result.findings if "." in f.run_b)  # a seed/mutant pair

    def reference(finding):
        return checks.check_finding_reference(
            h, finding, stim_of(finding.run_a), stim_of(finding.run_b), START,
            workloads.REFERENCE_MARGIN,
        )

    yield ("campaign: finding time shifted by one", reference(f),
           reference(dataclasses.replace(f, time_a=f.time_a + 1)))

    conditions = {
        name: [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
        for name, g in megs.items()
    }
    seed = result.seeds[0]
    bundle = ls.simulate(h, seed.stimulus)
    oracle, problems = checks.oracle_covered(h, bundle, seed.stimulus, conditions)
    covered = {m: set(mc.covered) for m, mc in result.coverage.per_module.items()}
    module = next(m for m, paths in oracle.items() if paths)
    dropped = dict(covered, **{module: covered[module] - {min(oracle[module])}})
    yield ("campaign: oracle-covered path dropped from the report",
           problems + checks.check_report_covers(covered, oracle, seed.id),
           checks.check_report_covers(dropped, oracle, seed.id))

    record = Path(__file__).resolve().parent / "out" / "selfcheck-digests.json"
    record.unlink(missing_ok=True)
    one = {"campaign.json": "0" * 64}
    other = {"campaign.json": "1" * 64}
    clean = checks.check_determinism([one, one], record, "f")
    yield ("campaign: artifacts differ between campaigns", clean,
           checks.check_determinism([one, other], record, "f"))
    yield ("campaign: artifacts differ from an earlier run", clean,
           checks.check_determinism([other], record, "f"))
    record.unlink()


def cover_cases():
    api = workloads.make_api()
    dut = ls.load_dut("cacheset_multiway")
    setup = workloads.setup_design(api, dut.hierarchy, dut.profile)
    rng = random.Random(4)
    stim = ls.Stimulus(steps=tuple(
        ls.StimulusStep(tag=rng.choice(dut.profile.tags), data={"addr": rng.choice((40, 80, 120))},
                        hold=rng.randint(1, 4))
        for _ in range(12)
    ))
    bundle = ls.simulate(setup.design, stim)
    lint, verdicts = workloads.cover_trace(api, setup, bundle)
    inst, covered, replay = verdicts[0]
    m = inst.module_name
    ev = checks.OracleEval(bundle.trace(inst.path).signal_values, checks.instance_widths(setup.h, inst.path))
    sample = [pc for pc in setup.conditions[m] if pc.path_id in covered][:3]
    sample += [pc for pc in setup.conditions[m] if pc.path_id not in covered][:3]
    oracle = {pc.path_id: checks.oracle_verdict(pc.steps, ev) for pc in sample}
    conds = setup.conditions[m]
    clean = checks.check_cover_trace(m, conds, covered, replay, lint[m], oracle)
    yield ("cover: covered verdict dropped", clean,
           checks.check_cover_trace(m, conds, covered - {sample[0].path_id}, replay, lint[m], oracle))
    yield ("cover: verdict flipped in the oracle sample only", clean,
           checks.check_cover_trace(m, conds, covered, replay, lint[m],
                                    dict(oracle, **{sample[-1].path_id: True})))
    text = api.emit_sva_file(conds, m).replace("##1", "##1 ##1", 1)
    yield "cover: emitted SVA broken", clean, checks.check_cover_trace(
        m, conds, covered, replay, api.sva_lint(text), oracle)


def elaborate_cases():
    api = workloads.make_api()
    sources, top = synth.synth_design(0, 0)
    stim = workloads.synth_stimulus(0, 0)
    setup, bundle, _ = workloads.elaborate_design(api, sources, top, stim, workloads.ELAB_CYCLES)
    clean = checks.meg_edge_mismatches(setup.h, setup.megs)
    name, g = next((n, g) for n, g in setup.megs.items() if g.edges)
    edges = dict(g.edges)
    edges.pop(next(iter(edges)))
    megs = dict(setup.megs, **{name: dataclasses.replace(g, edges=edges)})
    yield "elaborate: MEG edge dropped", clean, checks.meg_edge_mismatches(setup.h, megs)

    leaf = next(p for p in bundle.instances() if p.count(".") == 2)
    yield ("elaborate: simulated value flipped",
           checks.reference_trace_mismatches(setup.h, bundle, stim),
           checks.reference_trace_mismatches(setup.h, flipped(bundle, leaf, "out", 6), stim))

    small = [("triple.hdl", "module triple(input clk, input rst, input [7:0] a, output [7:0] y);\n"
                            "  assign y = a + a + a;\nendmodule\n")]
    inputs = [1, 90, 200]
    small_stim = ls.Stimulus(steps=tuple(ls.StimulusStep(tag="drive", data={"a": a}, hold=1) for a in inputs))
    _, small_bundle, _ = workloads.elaborate_design(api, small, "triple", small_stim, 8)
    yield ("elaborate: known-fault model disagrees",
           checks.check_outputs(small_bundle, "y", inputs, lambda a: 3 * a & 0xFF),
           checks.check_outputs(small_bundle, "y", inputs, lambda a: 4 * a & 0xFF))


def main() -> int:
    bad = 0
    for group in (detect_cases, campaign_cases, cover_cases, elaborate_cases):
        for name, clean, corrupted in group():
            ok = not clean and bool(corrupted)
            bad += not ok
            detail = clean[0] if clean else (corrupted[0] if corrupted else "no problem reported")
            print(f"{'bites ' if ok else 'MISSED'} {name}: {detail}")
    print(f"self-check: {'all checks bite' if not bad else f'{bad} checks missed'}")
    return 1 if bad else 0
