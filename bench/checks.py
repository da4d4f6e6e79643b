"""Correctness checks of the benchmark, computed apart from the code under
test: Python arithmetic, the naive reference simulator
(tests/reference_sim.py), the brute-force oracles (tests/oracles.py) and
properties of the method. Every check returns a list of problems; an empty
list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from leakscope.parser import parse_expression
from oracles import oracle_edges, oracle_match
from reference_sim import eval_expr, reference_simulate

DIVIDER = "serdiv.div"


def exec_time(series: dict[str, list[int]], start: int) -> int:
    """Execution time by the paper's definition: last cycle at which any
    signal toggles, minus the start cycle, plus one; 0 without a toggle."""
    cycles = len(next(iter(series.values())))
    for c in range(cycles - 1, max(start, 1) - 1, -1):
        if any(values[c] != values[c - 1] for values in series.values()):
            return c - start + 1
    return 0


class OracleEval:
    """Boolean evaluation of a condition expression at one cycle, through
    the front end's expression parser and the reference interpreter."""

    def __init__(self, series: dict[str, list[int]], widths: dict[str, int]):
        self.cycles = len(next(iter(series.values())))
        self.envs = [
            {name: values[t] for name, values in series.items()}
            for t in range(self.cycles)
        ]
        self.widths = widths
        self.trees: dict[str, object] = {}

    def __call__(self, expr: str, t: int) -> int:
        tree = self.trees.get(expr)
        if tree is None:
            tree = self.trees[expr] = parse_expression(expr)
        return eval_expr(tree, self.envs[t], self.widths)[0]


def oracle_verdict(steps, evaluate: OracleEval) -> bool:
    return oracle_match(steps, evaluate, evaluate.cycles)


def instance_widths(h, path: str) -> dict[str, int]:
    module = h.modules[h.instance(path).module_name]
    return {d.name: d.width for d in module.all_signals()}


def reference_trace_mismatches(h, bundle, stim) -> list[str]:
    """Compare every signal of every instance at every recorded cycle with
    the reference simulator."""
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    problems = []
    for path in bundle.instances():
        got = bundle.trace(path).signal_values
        if set(got) != set(want[path]):
            problems.append(f"{path}: signal sets differ from the reference")
            continue
        for name, values in got.items():
            if values != want[path][name]:
                problems.append(f"{path}.{name}: trace differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# detect-serdiv
# ---------------------------------------------------------------------------

def check_detect_pair(pair: dict, divider_regs: set[str]) -> list[str]:
    """One detect pair. `pair` holds the inputs (`design`, `a1`, `a2`,
    `b`) and what the pipeline returned: `findings`, `diagnoses` (instance,
    culprit signal names), `truncated`, and `vcd_equal` (None when the pair
    skipped the VCD round trip)."""
    label = f"{pair['design']} pair {pair['a1']},{pair['a2']}/{pair['b']}"
    problems = []
    if pair["truncated"]:
        problems.append(f"{label}: a run reached max_cycles")
    if pair["vcd_equal"] is False:
        problems.append(f"{label}: VCD round trip changed the traces")
    findings = pair["findings"]
    if pair["design"] == "ct_alu":
        if findings:
            problems.append(f"{label}: constant-time ALU produced {len(findings)} findings")
        return problems
    b = pair["b"]
    want = abs(pair["a1"] // b - pair["a2"] // b) if b else 0
    divider = [f for f in findings if f.instance_path == DIVIDER]
    if want == 0 and divider:
        problems.append(f"{label}: divider finding without a quotient difference")
    if want and [(f.delta, f.first_leaky_level) for f in divider] != [(want, True)]:
        got = [(f.delta, f.first_leaky_level) for f in divider]
        problems.append(f"{label}: divider findings {got}, want delta {want} first-leaky")
    leaky = [f for f in findings if f.first_leaky_level]
    if len(pair["diagnoses"]) != len(leaky):
        problems.append(
            f"{label}: {len(pair['diagnoses'])} diagnoses for {len(leaky)} first-leaky findings"
        )
    for instance, culprits in pair["diagnoses"]:
        if instance != DIVIDER or not culprits & divider_regs:
            problems.append(f"{label}: diagnosis of {instance} names no divider register")
    return problems


# ---------------------------------------------------------------------------
# campaign-cacheset
# ---------------------------------------------------------------------------

def check_finding_reference(h, finding, stim_a, stim_b, start: int, margin: int) -> list[str]:
    """Recompute both execution times of a finding with the reference
    simulator, run `margin` cycles past the end of the stimulus."""
    problems = []
    for run, stim, got in ((finding.run_a, stim_a, finding.time_a),
                           (finding.run_b, stim_b, finding.time_b)):
        cycles = start + stim.total_hold() + margin
        traces = reference_simulate(h, stim, cycles=cycles)[finding.instance_path]
        want = exec_time(traces, start)
        if want >= cycles - start - margin // 2:
            problems.append(f"{run}: reference run still active near its end")
        if got != want:
            problems.append(
                f"finding {finding.instance_path} {finding.run_a}/{finding.run_b}: "
                f"{run} measured {got} cycles, reference {want}"
            )
    return problems


def oracle_covered(h, bundle, stim, conditions: dict[str, list]) -> tuple[dict[str, set[str]], list[str]]:
    """Paths the brute-force oracle finds covered on one run, per module,
    evaluated on reference-simulator traces of the run's length."""
    problems = []
    want = reference_simulate(h, stim, cycles=bundle.cycles)
    covered: dict[str, set[str]] = {}
    for inst in h.instances:
        series = want[inst.path]
        if series != bundle.trace(inst.path).signal_values:
            problems.append(f"{inst.path}: run differs from the reference simulator")
        evaluate = OracleEval(series, instance_widths(h, inst.path))
        hits = covered.setdefault(inst.module_name, set())
        for pc in conditions[inst.module_name]:
            if pc.path_id not in hits and oracle_verdict(pc.steps, evaluate):
                hits.add(pc.path_id)
    return covered, problems


def check_report_covers(report_covered: dict[str, set[str]], oracle: dict[str, set[str]], run: str) -> list[str]:
    problems = []
    for module, paths in sorted(oracle.items()):
        missing = paths - report_covered.get(module, set())
        if missing:
            problems.append(
                f"run {run}: {len(missing)} oracle-covered paths of {module} "
                f"missing from the report, e.g. {sorted(missing)[0]}"
            )
    return problems


ARTIFACTS = ("campaign.json", "coverage.json", "findings.json", "diagnoses.json")


def artifact_digests(outdir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def check_determinism(digests: list[dict[str, str]], record: Path, fingerprint: str) -> list[str]:
    """Every campaign of the run, and every earlier run of the same program
    sources in this checkout, must write identical artifacts."""
    problems = [
        f"campaign {i} artifacts differ from campaign 0"
        for i, d in enumerate(digests[1:], start=1) if d != digests[0]
    ]
    try:
        stored = json.loads(record.read_text())
    except (OSError, ValueError):
        stored = None
    if stored and stored.get("fingerprint") == fingerprint:
        for name, digest in stored["digests"].items():
            if digests[0].get(name) != digest:
                problems.append(f"{name} differs from an earlier run of the same sources")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"fingerprint": fingerprint, "digests": digests[0]}))
    return problems


# ---------------------------------------------------------------------------
# cover-multiway
# ---------------------------------------------------------------------------

def check_cover_trace(module: str, conditions, covered: set[str], replay: dict[str, bool],
                      lint: list[str], oracle: dict[str, bool]) -> list[str]:
    """Matcher verdicts on one trace against the replayed SVA text, the
    lint result and a sample of oracle verdicts."""
    problems = [f"{module}: SVA lint: {p}" for p in lint]
    for pc in conditions:
        name = f"cp_{module}_{pc.path_id}"
        if replay.get(name) != (pc.path_id in covered):
            problems.append(f"{module}: replay_sva and match_coverage disagree on {pc.path_id}")
    for path_id, verdict in sorted(oracle.items()):
        if verdict != (path_id in covered):
            problems.append(f"{module}: oracle says {verdict} for {path_id}")
    return problems


# ---------------------------------------------------------------------------
# elaborate-synth
# ---------------------------------------------------------------------------

def meg_edge_mismatches(h, megs) -> list[str]:
    problems = []
    for name in h.modules:
        got = {(e.src, e.dst, e.lines) for e in megs[name].edges.values()}
        if got != oracle_edges(h, name):
            problems.append(f"module {name}: MEG edges differ from the oracle")
    return problems


def check_outputs(bundle, signal: str, inputs: list[int], expected) -> list[str]:
    """Output `signal` of the top instance at each stimulus cycle against a
    Python model of the design."""
    top = bundle.instances()[0]
    values = bundle.trace(top).signal_values[signal]
    start = bundle.start_cycle
    return [
        f"{top}.{signal} = {values[start + i]} for input {a}, want {expected(a)}"
        for i, a in enumerate(inputs)
        if values[start + i] != expected(a)
    ]
