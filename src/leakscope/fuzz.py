"""Dual-mutator fuzzing: structural exploration, operand exploitation.

The structural mutator edits the step structure of a stimulus (append,
delete, tag replace, swap) hunting for new code-coverage items; any
stimulus that reaches a new item is admitted as a seed. The operand mutator
then clones each seed into data-only variants (tags and step count frozen)
and compares every variant's per-instance execution times against the
seed's run; differences become findings, first-leaky findings are handed to
the diagnozer, and every run feeds timing-path coverage.

Code coverage here is a self-contained proxy: a branch item is a guard
expression observed true; an edge item is a graph dependency observed
firing (destination toggles while its guard held). A campaign spends work
only on what it has not covered yet: the probes skip covered items, and
each run is matched against a trie of the module's pending (uncovered)
paths, rebuilt whenever one of them is covered. A run that repeats an
earlier one therefore adds no coverage, and neither the probes nor the
matcher keep a per-run cache.

Only four parameters are settable (`FuzzConfig`); the rest are fixed: the
generators build stimuli of at most MAX_STEPS steps, the structural
mutator uses the STRUCTURAL_OPS edits, coverage counts branches and edges,
any timing difference of one cycle or more is a finding, and registers
start at zero. Campaign termination is deterministic -- full path
coverage, STALL_ROUNDS rounds with no new coverage or findings, or the
round quota; the wall-clock budget only aborts runaway campaigns and flags
the result as non-reproducible.
"""

from __future__ import annotations

import logging
import random
import time
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field, replace

from .corpus import DutProfile
from .coverage import (
    CoverageReport,
    ModuleCoverage,
    PathTrie,
    match_coverage,
    path_condition,
)
from .design import DesignHierarchy
from .diagnose import Diagnosis, diagnose
from .errors import LeakscopeError, NoDivergence
from .hdl_ast import SignalKind
from .leakage import LeakageFinding, analyze
from .meg import Meg, enumerate_meps, render_condition
from .simulator import SimulationTrace, TraceBundle, compile_design, simulate
from .stimulus import Stimulus, StimulusStep

log = logging.getLogger(__name__)

EXPLORE_GIVE_UP = 25  # consecutive non-improving stimuli before a phase ends
STALL_ROUNDS = 3  # rounds without new coverage or findings before a campaign ends
STRUCTURAL_OPS = ("append", "delete", "replace", "swap")
MAX_STEPS = 6  # longest stimulus the generators and the structural mutator build


@dataclass(frozen=True)
class Seed:
    id: str
    stimulus: Stimulus
    new_coverage: frozenset[str]

    def __post_init__(self):
        if not self.new_coverage:
            raise ValueError("a seed must have reached new coverage")


@dataclass(frozen=True)
class MutantBatch:
    seed_id: str
    mutants: tuple[Stimulus, ...]

    @property
    def count(self) -> int:
        return len(self.mutants)


@dataclass(frozen=True)
class FuzzConfig:
    mutants_per_seed: int = 200
    rng_seed: int = 0
    time_budget: float = 60.0  # seconds; abort bound, not the scheduler
    max_rounds: int = 32

    def __post_init__(self):
        if self.mutants_per_seed < 1:
            raise ValueError("mutants_per_seed must be >= 1")


@dataclass
class CampaignResult:
    design_name: str
    config: FuzzConfig
    seeds: list[Seed] = field(default_factory=list)
    findings: list[LeakageFinding] = field(default_factory=list)
    diagnoses: list[tuple[str, str, str, Diagnosis]] = field(default_factory=list)
    # (instance, run_a, run_b, diagnosis) rows, in discovery order
    coverage: CoverageReport = field(default_factory=CoverageReport)
    code_items: set[str] = field(default_factory=set)
    rounds: int = 0
    sims: int = 0
    mutant_sims: int = 0
    stop_reason: str = "empty"
    aborted_by_wallclock: bool = False
    duration_s: float = 0.0  # informational; excluded from serialization
    # graphs and source references ride along for rendering
    megs: dict[str, Meg] = field(default_factory=dict)
    source_refs: tuple[tuple[str, str], ...] = ()  # (path, sha256)


# ---------------------------------------------------------------------------
# Stimulus generation and mutation
# ---------------------------------------------------------------------------

def data_widths(h: DesignHierarchy, profile: DutProfile) -> dict[str, int]:
    top = h.modules[h.top]
    widths = {
        p.name: p.width for p in top.ports if p.kind is SignalKind.INPUT
    }
    missing = [name for name in profile.data_inputs if name not in widths]
    if missing:
        raise LeakscopeError(f"profile data inputs not on top module: {missing}")
    return {name: widths[name] for name in profile.data_inputs}


def random_stimulus(
    rng: random.Random, profile: DutProfile, widths: dict[str, int]
) -> Stimulus:
    steps = []
    for _ in range(rng.randint(1, MAX_STEPS)):
        data = {name: rng.randrange(1 << widths[name]) for name in profile.data_inputs}
        steps.append(
            StimulusStep(tag=rng.choice(profile.tags), data=data, hold=rng.randint(1, 3))
        )
    return Stimulus(steps=tuple(steps))


def structural_mutate(
    s: Stimulus,
    rng: random.Random,
    *,
    tags: tuple[str, ...],
    widths: dict[str, int],
) -> Stimulus:
    """One structural edit; untouched steps keep their data verbatim."""
    steps = list(s.steps)
    op = rng.choice(STRUCTURAL_OPS)
    if op == "delete" and len(steps) <= 1:
        op = "append"
    if op == "swap" and len(steps) < 2:
        op = "append"
    if op == "append" and len(steps) >= MAX_STEPS:
        op = "replace" if steps else "append"

    if op == "append":
        data = {name: rng.randrange(1 << w) for name, w in widths.items()}
        steps.insert(
            rng.randint(0, len(steps)),
            StimulusStep(tag=rng.choice(tags), data=data, hold=rng.randint(1, 3)),
        )
    elif op == "delete":
        del steps[rng.randrange(len(steps))]
    elif op == "replace":
        i = rng.randrange(len(steps))
        steps[i] = StimulusStep(tag=rng.choice(tags), data=steps[i].data, hold=steps[i].hold)
    else:  # swap
        i, j = rng.sample(range(len(steps)), 2)
        steps[i], steps[j] = steps[j], steps[i]
    return Stimulus(steps=tuple(steps))


def operand_mutate(
    seed: Seed, cfg: FuzzConfig, widths: dict[str, int]
) -> MutantBatch:
    """Data-only variants of a seed: a uniformly random subset of data
    fields is rewritten to uniform width-bounded values; tags, step count,
    and hold times are preserved by construction."""
    rng = random.Random(f"{cfg.rng_seed}:{seed.id}")
    mutable = [
        (i, name)
        for i, step in enumerate(seed.stimulus.steps)
        for name in step.data
        if name in widths
    ]
    if not mutable:
        log.warning("seed %s has no data fields; mutants are identical", seed.id)
    mutants = []
    for _ in range(cfg.mutants_per_seed):
        steps = list(seed.stimulus.steps)
        for i, name in mutable:
            if rng.random() < 0.5:
                continue
            step = steps[i]
            data = dict(step.data)
            data[name] = rng.randrange(1 << widths[name])
            steps[i] = StimulusStep(tag=step.tag, data=data, hold=step.hold)
        mutants.append(Stimulus(steps=tuple(steps)))
    return MutantBatch(seed_id=seed.id, mutants=tuple(mutants))


# ---------------------------------------------------------------------------
# Code-coverage probes
# ---------------------------------------------------------------------------

class CoverageProbes:
    """Per-module branch and edge observers evaluated over instance traces."""

    def __init__(self, module: str, g: Meg):
        self.module = module
        self.branches: list[tuple[str, str]] = []  # (item id, expr)
        self.edges: list[tuple[str, str, str, str | None, bool]] = []
        seen_expr: set[str] = set()
        for (src, dst), edge in sorted(g.edges.items()):
            for clause in edge.clauses:
                for term in clause:
                    if term.expr not in seen_expr:
                        seen_expr.add(term.expr)
                        item = f"branch:{module}:{term.loc.line}:{term.expr}"
                        self.branches.append((item, term.expr))
            item = f"edge:{module}:{src}>{dst}"
            self.edges.append(
                (item, src, dst, render_condition(edge), g.nodes[dst].clocked)
            )

    def covered_items(
        self, trace: SimulationTrace, skip: AbstractSet[str] = frozenset()
    ) -> set[str]:
        """Items observed on one instance trace. Items in `skip` (already
        covered) are neither evaluated nor reported."""
        index = {name: i for i, name in enumerate(trace.names)}
        items = {
            item for item, expr in self.branches
            if item not in skip and trace.mask(expr)
        }
        for item, src, dst, cond, clocked in self.edges:
            if item in skip or dst not in index:
                continue
            fired = trace.toggles(index[dst])
            if fired and cond is not None:
                # A clocked destination toggles one cycle after its guard held.
                guard = trace.mask(cond)
                fired &= guard << 1 if clocked else guard
            if fired:
                items.add(item)
        return items


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

class _Campaign:
    def __init__(
        self,
        h: DesignHierarchy,
        megs: dict[str, Meg],
        cfg: FuzzConfig,
        profile: DutProfile,
        seed_corpus: list[Stimulus] | None,
    ):
        self.h = h
        self.megs = megs
        self.cfg = cfg
        self.profile = profile
        self.design = compile_design(h)
        self.widths = data_widths(h, profile)
        self.rng = random.Random(cfg.rng_seed)
        self.corpus = list(seed_corpus or [])

        self.instances_by_module: dict[str, list[str]] = {}
        for inst in h.instances:
            self.instances_by_module.setdefault(inst.module_name, []).append(inst.path)

        self.probes = {
            name: CoverageProbes(name, g) for name, g in megs.items()
        }
        self.result = CampaignResult(design_name=h.top, config=cfg, megs=megs)
        # Per module, the (path id, steps) of every path, and a trie of
        # those not yet covered: the only ones a run is matched against.
        self.conditions: dict[str, list[tuple[str, tuple]]] = {}
        self.pending: dict[str, PathTrie] = {}
        for name, g in megs.items():
            meps = enumerate_meps(g)
            self.conditions[name] = [
                (pc.path_id, pc.steps) for pc in (path_condition(p, g) for p in meps.paths)
            ]
            self.pending[name] = PathTrie(self.conditions[name])
            self.result.coverage.add(
                ModuleCoverage(name, len(self.conditions[name]), set(), meps.truncated)
            )
        self._diagnosed: set[tuple[str, str, str]] = set()

    # -- plumbing ---------------------------------------------------------

    def simulate(self, stim: Stimulus, run_id: str) -> TraceBundle:
        return simulate(self.design, stim, seed_id=run_id)

    def code_items(self, bundle: TraceBundle) -> set[str]:
        """The run's items that are not covered yet."""
        covered = self.result.code_items
        items: set[str] = set()
        for module, paths in self.instances_by_module.items():
            probe = self.probes[module]
            for path in paths:
                items |= probe.covered_items(bundle.trace(path), covered)
        return items

    def update_path_coverage(self, bundle: TraceBundle) -> None:
        """Match the run against each module's pending paths. A path's
        verdict does not depend on the others, so once the covered set
        grows, the trie is rebuilt from the paths still uncovered."""
        per_module = self.result.coverage.per_module
        for module, paths in self.instances_by_module.items():
            trie = self.pending[module]
            if not len(trie):
                continue
            covered = per_module[module].covered
            before = len(covered)
            for path in paths:
                # Only the covered set: the pending trie's size is not the
                # module's total.
                covered |= match_coverage(bundle, trie, self.megs[module], path).covered
            if len(covered) > before:
                self.pending[module] = PathTrie(
                    c for c in self.conditions[module] if c[0] not in covered
                )

    def full_path_coverage(self) -> bool:
        return not any(len(trie) for trie in self.pending.values())

    # -- phases -------------------------------------------------------------

    def explore(self) -> list[tuple[Seed, TraceBundle]]:
        admitted: list[tuple[Seed, TraceBundle]] = []
        misses = 0
        while misses < EXPLORE_GIVE_UP:
            if self.corpus:
                candidate = self.corpus.pop(0)
            elif self.result.seeds and self.rng.random() < 0.75:
                base = self.rng.choice(self.result.seeds).stimulus
                candidate = structural_mutate(
                    base, self.rng, tags=self.profile.tags, widths=self.widths
                )
            else:
                candidate = random_stimulus(self.rng, self.profile, self.widths)
            run_id = f"s{len(self.result.seeds)}"
            bundle = self.simulate(candidate, run_id)
            self.result.sims += 1
            new = self.code_items(bundle)
            if not new:
                misses += 1
                continue
            misses = 0
            self.result.code_items |= new
            seed = Seed(id=run_id, stimulus=candidate, new_coverage=frozenset(new))
            self.result.seeds.append(seed)
            self.update_path_coverage(bundle)
            admitted.append((seed, bundle))
        return admitted

    def exploit(
        self, seed: Seed, seed_bundle: TraceBundle
    ) -> tuple[int, list[tuple[Seed, TraceBundle]]]:
        """One operand batch around a seed.

        Returns (new finding count, mutants admitted as follow-on seeds): a
        mutant that reaches new code coverage is itself a
        coverage-increasing test and seeds another exploitation batch.
        """
        batch = operand_mutate(seed, self.cfg, self.widths)
        self.result.sims += batch.count
        self.result.mutant_sims += batch.count
        new_findings = 0
        admitted: list[tuple[Seed, TraceBundle]] = []
        # One mutant's run at a time: simulation reads no campaign state.
        for j, stim in enumerate(batch.mutants):
            bundle = self.simulate(stim, f"{seed.id}.m{j}")
            for finding in analyze([(seed_bundle, bundle)], self.h):
                self.result.findings.append(finding)
                new_findings += 1
                if finding.first_leaky_level:
                    self._diagnose(finding, seed_bundle, bundle)
            new_items = self.code_items(bundle)
            if new_items:
                self.result.code_items |= new_items
                follow_on = Seed(
                    id=bundle.seed_id, stimulus=stim, new_coverage=frozenset(new_items)
                )
                self.result.seeds.append(follow_on)
                admitted.append((follow_on, bundle))
            self.update_path_coverage(bundle)
        return new_findings, admitted

    def _diagnose(
        self, finding: LeakageFinding, a: TraceBundle, b: TraceBundle
    ) -> None:
        inst = finding.instance_path
        key = (inst, a.rows_digest(), b.rows_digest())
        if key in self._diagnosed:
            return
        self._diagnosed.add(key)
        module = self.h.instance(inst).module_name
        try:
            diag = diagnose(a.trace(inst), b.trace(inst), self.megs[module])
        except NoDivergence:
            log.warning("finding on %s produced no trace divergence", inst)
            return
        self.result.diagnoses.append((inst, finding.run_a, finding.run_b, diag))

    # -- main loop ----------------------------------------------------------

    def run(self) -> CampaignResult:
        started = time.monotonic()
        cfg = self.cfg
        if cfg.time_budget <= 0:
            self.result.stop_reason = "zero-budget"
            return self.result

        stall = 0
        while True:
            self.result.rounds += 1
            worklist = self.explore()
            any_admitted = bool(worklist)
            new_findings = 0
            while worklist:
                seed, bundle = worklist.pop(0)
                found, follow_on = self.exploit(seed, bundle)
                new_findings += found
                worklist.extend(follow_on)
            progressed = any_admitted or new_findings > 0
            stall = 0 if progressed else stall + 1

            if self.full_path_coverage():
                self.result.stop_reason = "full-coverage"
                break
            if stall >= STALL_ROUNDS:
                self.result.stop_reason = "exhausted"
                break
            if self.result.rounds >= cfg.max_rounds:
                self.result.stop_reason = "round-quota"
                break
            if time.monotonic() - started > cfg.time_budget:
                self.result.stop_reason = "wallclock"
                self.result.aborted_by_wallclock = True
                break
        self.result.duration_s = time.monotonic() - started
        return self.result


def fuzz_loop(
    h: DesignHierarchy,
    megs: dict[str, Meg],
    cfg: FuzzConfig,
    profile: DutProfile,
    seed_corpus: list[Stimulus] | None = None,
    source_refs: tuple[tuple[str, str], ...] = (),
) -> CampaignResult:
    """Run one campaign; the result is a pure function of (cfg, design,
    profile, corpus) unless aborted_by_wallclock is set."""
    result = _Campaign(h, megs, cfg, profile, seed_corpus).run()
    result.source_refs = source_refs
    return result
