"""The benchmark's workloads. Each one calls leakscope's public library
functions through `Run.api`, which the traced mode replaces with
span-recording wrappers; correctness checks run outside the timed
sections and call the library directly.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import leakscope as ls
import leakscope.corpus
import leakscope.fuzz

import checks
import synth

API_NAMES = (
    "load_dut", "parse_design", "build_megs", "enumerate_meps", "path_condition",
    "compile_design", "simulate", "analyze", "diagnose", "write_vcd", "load_vcd",
    "match_coverage", "emit_sva_file", "sva_lint", "replay_sva", "fuzz_loop", "render",
)

SETUP_REPS = (11, 400)     # set-ups per run, at least / at most; setup_s is their median
SETUP_MIN_S = 1.0          # keep setting up until this much time is spent
START = 3                  # first stimulus cycle: rst high for cycles 0-1, settle cycle 2

CAMPAIGN_DUT = "cacheset"
CAMPAIGN_SEED = 42         # the ROADMAP's canonical campaign
FINDING_SAMPLE = 4         # findings recomputed with the reference simulator
REFERENCE_MARGIN = 64      # reference cycles run past the end of a stimulus
ORACLE_BUDGET_S = 3.0      # oracle time per run, spent on a seeded sample

DETECT_SERDIV_PAIRS = 16   # per round; index % 8: 0 zero divisor, 1 equal quotients,
DETECT_CT_PAIRS = 2        # 2 VCD round trip, others random operands
HOLD_RANGE = (1500, 2500)  # cycles of the start=0 hold after the start=1 step

COVER_MAX_HOLD = 6         # one trace: both tags with holds 1..6, four times over,
COVER_REPEATS = 4          # 2 * 21 * 4 = 168 stimulus cycles
COVER_ADDRESSES = 6        # distinct addresses per trace, so hits and misses mix

ELAB_CYCLES = 12           # length of the short simulation of a generated design
FAULT_INPUTS = (0, 1, 7, 98, 99, 200)


@dataclass
class Run:
    seed: int
    seconds: float
    out: Path                  # scratch directory inside the checkout
    api: SimpleNamespace
    tracer: object = None      # a Tracer in the traced mode
    attempted: int = 0
    failed: int = 0
    items: int = 0             # the workload's unit of work, see README
    rates: list[float] = field(default_factory=list)  # items per second, per round
    windows: list[tuple[float, float]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  # workload-level counts
    notes: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    def rounds(self, one_round) -> int:
        """Call `one_round(index)` for at least one round, then while one
        more round of the mean timed length still fits in `seconds`. A full
        collection before each round keeps the garbage of earlier rounds
        out of the next round's time."""
        n = 0
        while not n or self.timed_s * (n + 1) / n <= self.seconds:
            gc.collect()
            items, first = self.items, len(self.windows)
            one_round(n)
            spent = sum(end - start for start, end in self.windows[first:])
            self.rates.append((self.items - items) / spent)
            n += 1
        return n

    def measured(self, fn, *args):
        """Call fn with tracing armed; returns (value, start, end)."""
        if self.tracer:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            end = time.perf_counter()
            if self.tracer:
                self.tracer.active = False
        return value, start, end

    def timed(self, fn, *args):
        value, start, end = self.measured(fn, *args)
        self.windows.append((start, end))
        return value


def make_api() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(ls, name) for name in API_NAMES})


@dataclass
class Setup:
    h: object
    profile: object
    megs: dict
    conditions: dict[str, list]
    truncated: dict[str, bool]
    design: object


def setup_design(api, h, profile=None) -> Setup:
    """What every command does before its real work: MEGs, MEP enumeration
    with path conditions, and the compiled simulator."""
    megs = api.build_megs(h.modules)
    conditions, truncated = {}, {}
    for name, g in megs.items():
        meps = api.enumerate_meps(g)
        conditions[name] = [api.path_condition(p, g) for p in meps.paths]
        truncated[name] = meps.truncated
    return Setup(h, profile, megs, conditions, truncated, api.compile_design(h))


def timed_setup(run: Run, names: list[str]) -> dict[str, Setup]:
    def one_setup():
        setups = {}
        for name in names:
            dut = run.api.load_dut(name)
            setups[name] = setup_design(run.api, dut.hierarchy, dut.profile)
        return setups

    least, most = SETUP_REPS
    while len(run.setup) < most and (len(run.setup) < least or sum(run.setup) < SETUP_MIN_S):
        setups, start, end = run.measured(one_setup)
        run.setup.append(end - start)
    return setups


class SimCounter:
    """Counts the campaign's simulations that hit max_cycles: a truncated
    run has a censored execution time, so it counts as failed."""

    def __init__(self) -> None:
        self.calls = 0
        self.truncated = 0
        self.original = leakscope.fuzz.simulate

    def __enter__(self):
        def counted(*args, **kwargs):
            bundle = self.original(*args, **kwargs)
            self.calls += 1
            self.truncated += bundle.max_cycles_reached
            return bundle

        leakscope.fuzz.simulate = counted
        return self

    def __exit__(self, *exc) -> None:
        leakscope.fuzz.simulate = self.original


# ---------------------------------------------------------------------------
# campaign-cacheset
# ---------------------------------------------------------------------------

def source_fingerprint() -> str:
    root = Path(ls.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def campaign_stimulus_resolver(result, cfg, h, profile):
    """Stimulus of any campaign run id: seeds by id, operand mutants
    ("<seed>.m<j>") regenerated with operand_mutate."""
    seeds = {s.id: s for s in result.seeds}
    top = h.modules[h.top]
    widths = {p.name: p.width for p in top.ports if p.name in profile.data_inputs}

    def stim_of(run_id: str):
        if run_id in seeds:
            return seeds[run_id].stimulus
        parent, _, j = run_id.rpartition(".m")
        return ls.operand_mutate(seeds[parent], cfg, widths).mutants[int(j)]

    return stim_of


def campaign(run: Run) -> None:
    setup = timed_setup(run, [CAMPAIGN_DUT])[CAMPAIGN_DUT]
    cfg = ls.FuzzConfig(rng_seed=CAMPAIGN_SEED, time_budget=float("inf"))
    root = Path(leakscope.corpus._corpus_root()) / CAMPAIGN_DUT
    digests, first = [], None

    def one_round(index: int) -> None:
        nonlocal first
        # Like `leakscope fuzz --dut cacheset --out DIR`: load and build the
        # graphs, then time fuzz_loop through the four renderings.
        dut = ls.load_dut(CAMPAIGN_DUT)
        megs = ls.build_megs(dut.hierarchy.modules)
        refs = tuple(
            (str(root / name), digest)
            for name, digest in leakscope.corpus.source_digest(dut.sources).items()
        )
        outdir = run.out / f"campaign-{index}"

        def one_campaign():
            result = run.api.fuzz_loop(dut.hierarchy, megs, cfg, dut.profile, None, source_refs=refs)
            for fmt in (ls.Format.JSON, ls.Format.CSV, ls.Format.DOT, ls.Format.TEXT):
                run.api.render(result, fmt, outdir)
            return result

        with SimCounter() as sims:
            result = run.timed(one_campaign)
        if sims.calls != result.sims:
            run.problems.append(f"campaign reports {result.sims} sims, ran {sims.calls}")
        run.attempted += result.sims
        run.failed += sims.truncated
        run.items += result.sims
        digests.append(checks.artifact_digests(outdir))
        shutil.rmtree(outdir)
        if first is None:
            first = (result, dut)

    run.rounds(one_round)
    result, dut = first
    covered = {m: mc.covered for m, mc in result.coverage.per_module.items()}
    run.layers["coverage.paths_covered"] = sum(len(c) for c in covered.values())
    run.notes.append(
        f"campaign_s {statistics.median(e - s for s, e in run.windows):.4f} s; {result.sims} sims, "
        f"{len(result.findings)} findings, {len(result.diagnoses)} diagnoses, "
        f"{run.layers['coverage.paths_covered']} paths covered, stop {result.stop_reason}"
    )
    for name, digest in digests[0].items():
        run.notes.append(f"sha256 {name} {digest}")
    run.problems += checks.check_determinism(
        digests, run.out.parent / "campaign-digests.json", source_fingerprint()
    )

    rng = random.Random(f"campaign-check:{run.seed}")
    h, profile = dut.hierarchy, dut.profile
    stim_of = campaign_stimulus_resolver(result, cfg, h, profile)
    for f in rng.sample(result.findings, min(FINDING_SAMPLE, len(result.findings))):
        run.problems += checks.check_finding_reference(
            h, f, stim_of(f.run_a), stim_of(f.run_b), START, REFERENCE_MARGIN
        )
    design = ls.compile_design(h)
    started = time.perf_counter()
    for seed in rng.sample(result.seeds, len(result.seeds)):
        bundle = ls.simulate(design, seed.stimulus, seed_id=seed.id)
        oracle, problems = checks.oracle_covered(h, bundle, seed.stimulus, setup.conditions)
        run.problems += problems
        run.problems += checks.check_report_covers(covered, oracle, seed.id)
        if time.perf_counter() - started > ORACLE_BUDGET_S:
            break


# ---------------------------------------------------------------------------
# detect-serdiv
# ---------------------------------------------------------------------------

def detect_inputs(seed: int, round_index: int) -> list[dict]:
    rng = random.Random(f"detect:{seed}:{round_index}")
    pairs = []
    for i in range(DETECT_SERDIV_PAIRS):
        kind = i % 8
        b = 0 if kind == 0 else rng.randint(1, 15 if kind in (1, 2) else 31)
        a1 = rng.randrange(256)
        if kind == 1:
            q = a1 // b
            a2 = q * b + rng.randrange(min(b, 256 - q * b))
        else:
            a2 = rng.randrange(256)
        pairs.append({"design": "serdiv", "a1": a1, "a2": a2, "b": b,
                      "hold": rng.randint(*HOLD_RANGE), "vcd": kind == 2})
    for _ in range(DETECT_CT_PAIRS):
        pairs.append({"design": "ct_alu", "a1": rng.randrange(256), "a2": rng.randrange(256),
                      "b": rng.randrange(4), "c": rng.randrange(256),
                      "hold": rng.randint(*HOLD_RANGE), "vcd": False})
    return pairs


def detect_stimuli(pair: dict):
    """Same structure, different data: a start=1 step, then a long start=0
    hold that keeps the operands."""
    stims = []
    for a in (pair["a1"], pair["a2"]):
        if pair["design"] == "serdiv":
            data, tag = {"dividend": a, "divisor": pair["b"]}, "start=1"
        else:
            data, tag = {"a": a, "b": pair["c"]}, f"start=1;op={pair['b']}"
        stims.append(ls.Stimulus(steps=(
            ls.StimulusStep(tag=tag, data=data, hold=1),
            ls.StimulusStep(tag="start=0", data=data, hold=pair["hold"]),
        )))
    return stims


def detect_pair(api, setup: Setup, pair: dict, stims) -> dict:
    a = api.simulate(setup.design, stims[0], seed_id="a")
    b = api.simulate(setup.design, stims[1], seed_id="b")
    findings = api.analyze([(a, b)], setup.h)
    runs = (a, b)
    if pair["vcd"]:
        # The route of `leakscope diagnose a.vcd b.vcd`.
        runs = tuple(api.load_vcd(api.write_vcd(x), expect=setup.h) for x in (a, b))
    diagnoses = []
    for f in findings:
        if f.first_leaky_level:
            module = setup.h.instance(f.instance_path).module_name
            d = api.diagnose(
                runs[0].trace(f.instance_path), runs[1].trace(f.instance_path), setup.megs[module]
            )
            diagnoses.append((f.instance_path, d.culprit_signals))
    return {"runs": (a, b), "reloaded": runs if pair["vcd"] else None,
            "findings": findings, "diagnoses": diagnoses}


def detect(run: Run) -> None:
    setups = timed_setup(run, ["serdiv", "ct_alu"])
    divider_regs = {
        d.name for d in setups["serdiv"].h.modules["divider"].all_signals() if d.is_reg
    }

    def one_round(index: int) -> None:
        pairs = detect_inputs(run.seed, index)
        stims = [detect_stimuli(p) for p in pairs]
        outcomes = run.timed(lambda: [
            detect_pair(run.api, setups[p["design"]], p, s) for p, s in zip(pairs, stims)
        ])
        for pair, outcome in zip(pairs, outcomes):
            a, b = outcome["runs"]
            truncated = a.max_cycles_reached or b.max_cycles_reached
            reloaded = outcome["reloaded"]
            record = dict(pair, findings=outcome["findings"], diagnoses=outcome["diagnoses"],
                          truncated=truncated,
                          vcd_equal=None if reloaded is None else
                          all(x.equal_traces(y) for x, y in zip((a, b), reloaded)))
            run.problems += checks.check_detect_pair(record, divider_regs)
            run.failed += truncated
        run.attempted += len(pairs)
        run.items += len(pairs)

    rounds = run.rounds(one_round)
    run.notes.append(
        f"detect_pairs_per_s {statistics.median(run.rates):.4f} pairs/s, median of {rounds} rounds"
    )


# ---------------------------------------------------------------------------
# cover-multiway
# ---------------------------------------------------------------------------

def cover_stimulus(seed: int, round_index: int, profile):
    """Every trace has the same steps -- each tag once with each hold of
    1..COVER_MAX_HOLD, repeated -- in a seeded order with seeded addresses."""
    rng = random.Random(f"cover:{seed}:{round_index}")
    addresses = [rng.randrange(256) for _ in range(COVER_ADDRESSES)]
    shape = [(tag, hold) for tag in profile.tags for hold in range(1, COVER_MAX_HOLD + 1)]
    shape *= COVER_REPEATS
    rng.shuffle(shape)
    return ls.Stimulus(steps=tuple(
        ls.StimulusStep(tag=tag, data={"addr": rng.choice(addresses)}, hold=hold)
        for tag, hold in shape
    ))


def cover_trace(api, setup: Setup, bundle):
    texts = {m: api.emit_sva_file(setup.conditions[m], m) for m in sorted(setup.conditions)}
    lint = {m: api.sva_lint(text) for m, text in texts.items()}
    verdicts = []
    for inst in setup.h.instances:
        m = inst.module_name
        fragment = api.match_coverage(
            bundle, setup.conditions[m], setup.megs[m], inst.path, truncated=setup.truncated[m]
        )
        verdicts.append((inst, fragment.covered, api.replay_sva(texts[m], bundle, inst.path)))
    return lint, verdicts


def cover(run: Run) -> None:
    name = "cacheset_multiway"
    setup = timed_setup(run, [name])[name]
    h = setup.h
    oracle_s = 0.0
    ever: set[tuple[str, str]] = set()

    def one_round(round_index: int) -> None:
        nonlocal oracle_s
        stim = cover_stimulus(run.seed, round_index, setup.profile)
        bundle = ls.simulate(setup.design, stim, seed_id=f"t{round_index}")
        if bundle.max_cycles_reached:
            run.problems.append(f"recorded trace {round_index} reached max_cycles")
        lint, verdicts = run.timed(cover_trace, run.api, setup, bundle)
        count = sum(len(setup.conditions[inst.module_name]) for inst, _, _ in verdicts)
        run.attempted += count
        run.items += count

        # Oracle on a seeded sample, covered and uncovered paths in turn,
        # until the run's oracle budget is spent.
        rng = random.Random(f"cover-oracle:{run.seed}:{round_index}")
        pools = ([], [])
        for inst, covered, _ in verdicts:
            for pc in setup.conditions[inst.module_name]:
                pools[pc.path_id in covered].append((inst, pc))
        for pool in pools:
            rng.shuffle(pool)
        order = [x for pair in zip(pools[1], pools[0]) for x in pair]
        evaluators, oracle = {}, {}
        for inst, pc in order:
            if oracle_s > ORACLE_BUDGET_S and (round_index or len(oracle) >= 2):
                break
            started = time.perf_counter()
            ev = evaluators.get(inst.path)
            if ev is None:
                ev = evaluators[inst.path] = checks.OracleEval(
                    bundle.trace(inst.path).signal_values, checks.instance_widths(h, inst.path)
                )
            oracle.setdefault(inst.path, {})[pc.path_id] = checks.oracle_verdict(pc.steps, ev)
            oracle_s += time.perf_counter() - started
        for inst, covered, replay in verdicts:
            m = inst.module_name
            run.problems += checks.check_cover_trace(
                m, setup.conditions[m], covered, replay, lint[m], oracle.get(inst.path, {})
            )
            ever.update((m, p) for p in covered)

    rounds = run.rounds(one_round)
    run.layers["coverage.paths_covered"] = len(ever)
    run.notes.append(
        f"cover_verdicts_per_s {statistics.median(run.rates):.4f} verdicts/s, median of "
        f"{rounds} traces"
    )


# ---------------------------------------------------------------------------
# elaborate-synth
# ---------------------------------------------------------------------------

def elaborate_design(api, sources, top, stim, cycles: int):
    """parse -> MEGs -> MEPs and path conditions -> compile -> one short
    simulation; returns the pieces and the set-up time (without simulate)."""
    start = time.perf_counter()
    h = api.parse_design(sources, top=top)
    setup = setup_design(api, h)
    setup_s = time.perf_counter() - start
    bundle = api.simulate(setup.design, stim, max_cycles=cycles)
    return setup, bundle, setup_s


def synth_stimulus(seed: int, round_index: int):
    rng = random.Random(f"synth-stim:{seed}:{round_index}")
    return ls.Stimulus(steps=tuple(
        ls.StimulusStep(tag="drive", data={"a": rng.randrange(256), "b": rng.randrange(256)}, hold=2)
        for _ in range(4)
    ))


def elaborate(run: Run) -> None:
    faults = (
        (synth.wide_sum_design(), synth.expected_wide_sum),
        (synth.elif_chain_design(), synth.expected_elif_chain),
    )
    fault_stim = ls.Stimulus(steps=tuple(
        ls.StimulusStep(tag="drive", data={"a": a}, hold=1) for a in FAULT_INPUTS
    ))

    def one_round(round_index: int) -> None:
        sources, top = synth.synth_design(run.seed, round_index)
        stim = synth_stimulus(run.seed, round_index)
        setup, bundle, setup_s = run.timed(elaborate_design, run.api, sources, top, stim, ELAB_CYCLES)
        run.setup.append(setup_s)
        run.attempted += 1
        run.items += sum(text.count("\n") for _, text in sources)
        run.problems += checks.meg_edge_mismatches(setup.h, setup.megs)
        run.problems += checks.reference_trace_mismatches(setup.h, bundle, stim)

        for (fault_sources, fault_top), expected in faults:
            run.attempted += 1
            try:
                (fsetup, fbundle, _), start, end = run.measured(
                    elaborate_design, run.api, fault_sources, fault_top, fault_stim,
                    START + len(FAULT_INPUTS) + 8,
                )
            except (SyntaxError, ls.LeakscopeError) as exc:
                run.failed += 1
                if round_index == 0:
                    run.notes.append(f"{fault_top}: {type(exc).__name__}: {exc}")
                continue
            # Elaborates: its lines and its time count like any design's.
            run.windows.append((start, end))
            run.items += sum(text.count("\n") for _, text in fault_sources)
            run.problems += checks.meg_edge_mismatches(fsetup.h, fsetup.megs)
            run.problems += checks.check_outputs(fbundle, "y", list(FAULT_INPUTS), expected)

    rounds = run.rounds(one_round)
    run.notes.append(
        f"elab_lines_per_s {statistics.median(run.rates):.1f} lines/s, median of {rounds} rounds"
    )


WORKLOADS = {
    "campaign-cacheset": campaign,
    "detect-serdiv": detect,
    "cover-multiway": cover,
    "elaborate-synth": elaborate,
}
