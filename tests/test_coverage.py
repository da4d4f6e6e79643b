from __future__ import annotations

import dataclasses
import logging
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leakscope as ls
from leakscope.coverage import (
    ConditionStep,
    PathCondition,
    PathTrie,
    StepKind,
    _split_sva_seq,
    parse_sva,
)
from leakscope.meg import MicroEventPath
from leakscope.parser import parse_expression, parse_modules
from leakscope.simulator import DEFAULT_MAX_CYCLES, TraceBundle
from leakscope.stimulus import Stimulus, StimulusStep
from oracles import (
    oracle_emit_sva,
    oracle_emit_sva_file,
    oracle_match,
    oracle_parse_sva,
    oracle_path_condition,
    oracle_split_sva_seq,
    oracle_sva_lint,
    trace_evaluator,
)
from test_sim_differential import _random_module


def _stim(tag, data, hold=2):
    return Stimulus(steps=(StimulusStep(tag=tag, data=data, hold=hold),))


def _covers(steps, trace) -> bool:
    """The verdict on one path, through a one-path trie."""
    return PathTrie([("p", steps)]).covered(trace) == {"p"}


@pytest.fixture(scope="module")
def cacheset_paths(cacheset):
    g = ls.build_meg(cacheset.hierarchy.modules["cacheset"], cacheset.hierarchy.modules)
    hit = ls.find_mep(g, ("addr", "tag_addr", "way"))
    miss = ls.find_mep(
        g, ("addr", "tag_addr", "hit", "fetch", "mem_call", "complete", "way")
    )
    return g, hit, miss


def test_hit_path_condition_shape(cacheset_paths):
    g, hit, _ = cacheset_paths
    pc = ls.path_condition(hit, g)
    kinds = [s.kind for s in pc.steps]
    assert kinds == [StepKind.EVENTUALLY, StepKind.BRANCH, StepKind.ONE_CYCLE]
    assert "tag_addr == tag" in pc.steps[1].expr


def test_single_unconditional_comb_edge_is_eventually_only():
    h = ls.parse_design(
        [("t.hdl", "module t(input clk, input x, output y);\n  assign y = x;\nendmodule")]
    )
    g = ls.build_meg(h.modules["t"], h.modules)
    pc = ls.path_condition(ls.find_mep(g, ("x", "y")), g)
    assert [s.kind for s in pc.steps] == [StepKind.EVENTUALLY]


def test_miss_path_has_instance_eventually(cacheset_paths):
    g, _, miss = cacheset_paths
    pc = ls.path_condition(miss, g)
    # the hop out of the memory instance contributes an Eventually
    kinds = [s.kind for s in pc.steps]
    assert kinds.count(StepKind.EVENTUALLY) >= 2  # input hop + instance hop
    assert kinds.count(StepKind.ONE_CYCLE) >= 3  # hit, fetch, way are clocked


def test_path_not_in_graph(cacheset_paths, serdiv):
    g, hit, _ = cacheset_paths
    other = ls.build_meg(serdiv.hierarchy.modules["divider"], serdiv.hierarchy.modules)
    with pytest.raises(ls.PathNotInGraph):
        ls.path_condition(hit, other)


def _seeded_modules(count: int):
    """Seeded random modules, each with the modules its instances name (an
    instanced one names `leafmod`, whose ports are those of every module)."""
    (leaf,) = parse_modules(_random_module(random.Random(0), "leafmod", False), "leafmod.hdl")
    rng = random.Random(1107)
    for k in range(count):
        text = _random_module(rng, f"rnd{k}", with_instance=k % 2 == 1)
        for m in parse_modules(text, f"rnd{k}.hdl"):
            yield m, {leaf.name: leaf, m.name: m}


def test_path_condition_matches_oracle():
    """Every path of every bundled DUT and of seeded random modules, on a
    cold and a warm cache, and across two graphs built from one module,
    whose edges are equal but not the same objects."""
    modules = [
        (m, dut.hierarchy.modules)
        for dut in map(ls.load_dut, ls.dut_names())
        for m in dut.hierarchy.modules.values()
    ]
    modules += _seeded_modules(20)
    checked = 0
    for m, design in modules:
        g, twin = ls.build_meg(m, design), ls.build_meg(m, design)
        paths = ls.enumerate_meps(g).paths
        want = [oracle_path_condition(p, g) for p in paths]
        assert [ls.path_condition(p, g) for p in paths] == want, m.name
        assert [ls.path_condition(p, g) for p in paths] == want, m.name
        assert [ls.path_condition(p, twin) for p in paths] == want, m.name
        twin_paths = ls.enumerate_meps(twin).paths
        assert [ls.path_condition(p, g) for p in twin_paths] == want, m.name
        checked += len(paths)
    assert checked > 1000


def test_path_condition_checks_every_edge_against_its_graph(cacheset, cacheset_paths, serdiv):
    g, hit, miss = cacheset_paths
    for p in (hit, miss):
        ls.path_condition(p, g)  # every edge's steps are cached on g now

    def both_raise(p, graph):
        for check in (ls.path_condition, oracle_path_condition):
            with pytest.raises(ls.PathNotInGraph):
                check(p, graph)

    # An equal edge that is not g's own object is accepted.
    copy = MicroEventPath(tuple(dataclasses.replace(e) for e in hit.edges))
    assert copy.edges[1] is not hit.edges[1]
    assert ls.path_condition(copy, g) == oracle_path_condition(hit, g)

    # An edge of another module's graph, after edges that g accepts.
    other = ls.build_meg(serdiv.hierarchy.modules["divider"], serdiv.hierarchy.modules)
    both_raise(MicroEventPath(miss.edges[:2] + (next(iter(other.edges.values())),)), g)

    # A graph of the same module whose edge on hit's branch differs.
    branch = hit.edges[1]
    assert branch.clauses
    key = (branch.src, branch.dst)
    changed = dataclasses.replace(
        g, edges={**g.edges, key: dataclasses.replace(branch, clauses=())}
    )
    both_raise(hit, changed)

    # That edge replaced in place after its steps were cached: the old edge
    # is no longer the graph's, and the new one gets steps of its own.
    g2 = ls.build_meg(cacheset.hierarchy.modules["cacheset"], cacheset.hierarchy.modules)
    ls.path_condition(ls.find_mep(g2, hit.node_ids), g2)
    stale = g2.edges[key]
    g2.edges[key] = dataclasses.replace(stale, clauses=())
    both_raise(MicroEventPath((g2.edges[hit.node_ids[:2]], stale)), g2)
    fresh = ls.find_mep(g2, hit.node_ids)
    pc = ls.path_condition(fresh, g2)
    assert pc == oracle_path_condition(fresh, g2)
    assert [s.kind for s in pc.steps] == [StepKind.EVENTUALLY, StepKind.ONE_CYCLE]


def test_emit_sva_hit_path(cacheset_paths):
    g, hit, _ = cacheset_paths
    text = ls.emit_sva(ls.path_condition(hit, g))
    assert text.count("##1") == 1
    assert text.count("##[0:$]") == 1
    assert "cover property (@(posedge clk)" in text
    assert ls.sva_lint(text) == []


def test_emit_sva_empty_condition_warns(caplog):
    pc = ls.PathCondition(path_id="deadbeef", module="m", node_ids=("a", "b"), steps=())
    with caplog.at_level(logging.WARNING):
        text = ls.emit_sva(pc)
    assert "always-coverable" in caplog.text
    assert "1'b1" in text
    assert ls.sva_lint(text) == []


def test_all_bundled_properties_lint(cacheset, serdiv, ct_alu, cacheset_multiway):
    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        for name, m in dut.hierarchy.modules.items():
            g = ls.build_meg(m, dut.hierarchy.modules)
            paths = ls.enumerate_meps(g).paths
            conditions = [ls.path_condition(p, g) for p in paths]
            text = ls.emit_sva_file(conditions, name)
            assert ls.sva_lint(text) == [], name


@contextmanager
def _deadline(seconds: float):
    """Fail instead of hanging when the body does not return in time."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _prop(seq: str) -> str:
    return f"x: cover property (@(posedge clk) {seq});"


def test_sva_lint_rejects_garbage():
    assert ls.sva_lint("cover property bad;") != []
    cases = {
        "leading delay": "##1 ##1",
        "unbalanced group": "(a && b ##1 c",
        "delay inside a group": "(a ##1 b)",
        "stray '#'": "a # b",
        "trailing '#'": "a ##1 #",
        "'#' before a delay": "###1 a",
    }
    for case, seq in cases.items():
        with _deadline(2.0):
            assert ls.sva_lint(_prop(seq)) != [], case


def test_parse_sva_delays():
    one, ev = ConditionStep(StepKind.ONE_CYCLE), ConditionStep(StepKind.EVENTUALLY)
    [(name, steps)] = parse_sva(_prop("(a) ##2 b ##0 (c) ##[0:$] 1'b1 ##10 d"))
    branch = [ConditionStep(StepKind.BRANCH, e) for e in ("a", "b", "c", "1'b1", "d")]
    assert name == "x"
    assert steps == (branch[0], one, one, branch[1], branch[2], ev, branch[3]) + (one,) * 10 + (branch[4],)


def test_delay_beyond_the_cycle_bound_is_rejected():
    # `##N` reads back as N one-cycle steps; an N beyond the longest run
    # used to make parse_sva build them all and run out of memory.
    assert DEFAULT_MAX_CYCLES == 10_000
    for n in ("10001", "3000000000000"):
        text = _prop(f"a ##{n} b")
        with _deadline(2.0):
            assert ls.sva_lint(text) == [
                f"line 1: delay ##{n} exceeds the 10000-cycle bound"
            ]
        with _deadline(2.0), pytest.raises(ValueError, match=f"^line 1: delay ##{n} exceeds"):
            parse_sva(text)
    text = _prop("a ##10000 b")
    with _deadline(2.0):
        assert ls.sva_lint(text) == []
        [(_, steps)] = parse_sva(text)
    assert len(steps) == 10_002


def test_overlong_delay_is_a_bound_problem():
    # More digits than `int` converts (4,300 on CPython 3.11) is a delay
    # past the bound, on its line, not a bare ValueError; leading zeros
    # do not count.
    many = "9" * 5000
    text = "// one comment line first\n" + _prop(f"a ##{many} b")
    with _deadline(2.0):
        assert ls.sva_lint(text) == [f"line 2: delay ##{many} exceeds the 10000-cycle bound"]
    with _deadline(2.0), pytest.raises(ValueError, match=f"^line 2: delay ##{many} exceeds"):
        parse_sva(text)
    text = _prop(f"a ##{'0' * 5000}2 b")
    with _deadline(2.0):
        assert ls.sva_lint(text) == []
        [(_, steps)] = parse_sva(text)
    assert len(steps) == 4


def test_parse_sva_rejects_stray_hash():
    # A '#' that starts no delay used to make the tokenizer loop forever.
    with _deadline(2.0), pytest.raises(ValueError, match="stray '#'"):
        parse_sva(_prop("a # b"))


def test_match_hit_covers_hit_not_replacement(cacheset_paths, cacheset_runs):
    g, hit, miss = cacheset_paths
    pcs = [ls.path_condition(hit, g), ls.path_condition(miss, g)]
    frag = ls.match_coverage(cacheset_runs["hit"], pcs, g, "cacheset")
    assert frag.covered == {pcs[0].path_id}
    frag_miss = ls.match_coverage(cacheset_runs["miss_free"], pcs, g, "cacheset")
    assert pcs[1].path_id in frag_miss.covered


def test_match_empty_trace_covers_nothing(cacheset_paths):
    g, hit, _ = cacheset_paths
    names = [n.id for n in g.nodes.values() if n.kind.value != "instance"]
    empty = TraceBundle.from_signal_values(
        {"cacheset": {n: [] for n in names}},
        {"cacheset": {n: 8 for n in names}},
        0,
    )
    pc = ls.path_condition(hit, g)
    frag = ls.match_coverage(empty, [pc], g, "cacheset")
    assert frag.covered == set()


def test_match_against_bruteforce_oracle_serdiv(serdiv):
    h = serdiv.hierarchy
    g = ls.build_megs(h.modules)["divider"]
    conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
    design = ls.compile_design(h)
    for dividend in range(0, 8):
        for divisor in range(0, 4):
            bundle = ls.simulate(
                design, _stim("start=1", {"dividend": dividend, "divisor": divisor})
            )
            trace = bundle.trace("serdiv.div")
            evaluate = trace_evaluator(bundle, "serdiv.div")
            for pc in conditions:
                got = _covers(pc.steps, trace)
                want = oracle_match(pc.steps, evaluate, evaluate.cycles)
                assert got == want, (pc.node_ids, dividend, divisor)


def test_monotonicity_adding_runs(cacheset, cacheset_runs):
    g = ls.build_meg(cacheset.hierarchy.modules["cacheset"], cacheset.hierarchy.modules)
    conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
    report = ls.CoverageReport()
    last = 0
    for bundle in cacheset_runs.values():
        report.add(ls.match_coverage(bundle, conditions, g, "cacheset"))
        now = report.per_module["cacheset"].covered_paths
        assert now >= last
        last = now
    assert 0 < last <= len(conditions)


def test_emission_evaluation_agreement(cacheset, cacheset_runs, serdiv, serdiv_runs):
    # Internal verdicts must equal replaying the emitted text through the
    # reference property evaluator.
    cases = [
        (cacheset, cacheset_runs, "cacheset", "cacheset"),
        (serdiv, serdiv_runs, "divider", "serdiv.div"),
    ]
    for dut, runs, module, instance in cases:
        g = ls.build_meg(dut.hierarchy.modules[module], dut.hierarchy.modules)
        conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
        text = ls.emit_sva_file(conditions, module)
        for bundle in runs.values():
            internal = ls.match_coverage(bundle, conditions, g, instance)
            replayed = ls.replay_sva(text, bundle, instance)
            for pc in conditions:
                name = f"cp_{module}_{pc.path_id}"
                assert replayed[name] == (pc.path_id in internal.covered)


def test_parse_sva_roundtrip(cacheset, serdiv, ct_alu, cacheset_multiway):
    # Reading the emitted text back gives every path's own steps, once the
    # literal-true fillers that keep delays apart are dropped.
    def shape(steps):
        return [(s.kind, s.expr) for s in steps if s.expr != "1'b1"]

    for dut in (cacheset, serdiv, ct_alu, cacheset_multiway):
        for name, g in ls.build_megs(dut.hierarchy.modules).items():
            pcs = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
            parsed = parse_sva(ls.emit_sva_file(pcs, name))
            assert [n for n, _ in parsed] == [f"cp_{name}_{pc.path_id}" for pc in pcs]
            for pc, (_, steps) in zip(pcs, parsed):
                assert shape(steps) == shape(pc.steps), (name, pc.node_ids)


def test_expression_eval_error():
    bundle = TraceBundle.from_signal_values(
        {"u": {"a": [1, 2]}}, {"u": {"a": 8}}, 0
    )
    with pytest.raises(ls.ExpressionEvalError):
        bundle.trace("u").mask("missing == 1")


def test_overall_percent():
    report = ls.CoverageReport()
    report.add(ls.ModuleCoverage("a", 4, {"p1", "p2"}, False))
    report.add(ls.ModuleCoverage("b", 6, {"q1"}, False))
    assert report.overall_percent == pytest.approx(100.0 * 3 / 10)


def test_covered_branch_lines_agree_with_branch_activity(serdiv, serdiv_runs):
    # Every Branch step of a covered path must name a condition that the
    # branch-activity probes also saw true in the covering run.
    from leakscope.fuzz import CoverageProbes

    g = ls.build_megs(serdiv.hierarchy.modules)["divider"]
    conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
    probes = CoverageProbes("divider", g)
    for bundle in serdiv_runs.values():
        covered = ls.match_coverage(bundle, conditions, g, "serdiv.div").covered
        evaluate = trace_evaluator(bundle, "serdiv.div")
        for pc in conditions:
            if pc.path_id not in covered:
                continue
            for step in pc.steps:
                if step.kind is StepKind.BRANCH:
                    assert any(
                        evaluate(step.expr, t) for t in range(evaluate.cycles)
                    ), step.expr


_SIGNALS = ("a", "b", "c")
_BRANCHES = _SIGNALS + ("!a", "b || c")
_STEPS = st.one_of(
    st.builds(ConditionStep, st.just(StepKind.BRANCH), st.sampled_from(_BRANCHES)),
    st.just(ConditionStep(StepKind.ONE_CYCLE)),
    st.just(ConditionStep(StepKind.EVENTUALLY)),
)


def _series(cycles: int):
    """A 1-bit series: dense random bits, or high on at most three cycles,
    which makes alignments hinge on timing."""
    sparse = st.frozensets(st.integers(0, max(cycles - 1, 0)), max_size=3).map(
        lambda high: [int(t in high) for t in range(cycles)]
    )
    return st.one_of(st.lists(st.integers(0, 1), min_size=cycles, max_size=cycles), sparse)


@given(
    st.integers(0, 16).flatmap(
        lambda n: st.fixed_dictionaries({name: _series(n) for name in _SIGNALS})
    ),
    st.lists(_STEPS, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_one_path_trie_agrees_with_oracle_on_random_traces(series, steps):
    # Beyond the verdict on the whole sequence, pin every suffix to every
    # single start cycle (via a counter signal `t`), so the full set of
    # aligning cycles is compared, not just whether it is empty. The
    # oracle's search is exponential in Eventually steps: sizes stay small.
    cycles = len(series["a"])
    signals = dict(series, t=list(range(cycles)))
    widths = dict.fromkeys(_SIGNALS, 1) | {"t": 5}
    bundle = TraceBundle.from_signal_values({"u": signals}, {"u": widths}, 0)
    trace = bundle.trace("u")
    evaluate = trace_evaluator(bundle, "u")
    steps = tuple(steps)
    assert _covers(steps, trace) == oracle_match(steps, evaluate, cycles)
    for k in range(len(steps)):
        for t0 in range(cycles):
            pinned = (ConditionStep(StepKind.BRANCH, f"t == {t0}"),) + steps[k:]
            assert _covers(pinned, trace) == oracle_match(pinned, evaluate, cycles), (k, t0)


def _oracle_lint_clean(seq: str) -> bool:
    """Lint verdict for one sequence through the character-by-character
    tokenizer: booleans and delays alternate, it starts on a boolean, ends
    on one unless empty, and every boolean parses."""
    try:
        tokens = oracle_split_sva_seq(seq)
    except ValueError:
        return False
    expect_bool = True
    for token in tokens:
        is_delay = token.startswith("##")
        if is_delay == expect_bool:
            return False
        if is_delay and token != "##[0:$]" and int(token[2:]) > DEFAULT_MAX_CYCLES:
            return False
        if not is_delay:
            try:
                parse_expression(token)
            except Exception:
                return False
        expect_bool = is_delay
    return not (expect_bool and tokens)


@given(st.text(alphabet="()#12[0:$] a!&", max_size=16))
@example("a # b")
@example("(a ##1 b)")
@example("a ##1 (b ##[0:$] c)")
@example("###1 a")
@example("a ##12 b")
@example("1 ##10001 1")
@example("(!a) ##0 (a&&a) ##[0:$] 1")
@settings(max_examples=400, deadline=None)
def test_sva_reader_agrees_with_char_oracle(seq):
    # The oracle keeps a delay inside a parenthesized group as part of one
    # boolean; the reader cuts at every delay first. Token lists agree
    # whenever no boolean holds a '#', and lint verdicts always agree.
    try:
        want = oracle_split_sva_seq(seq)
    except ValueError:
        want = None
    if want is None or not any("#" in t for t in want if not t.startswith("##")):
        try:
            got = _split_sva_seq(seq, {})
        except ValueError:
            got = None
        assert got == want
    assert (ls.sva_lint(_prop(seq)) == []) == _oracle_lint_clean(seq)


@contextmanager
def _logged(name: str):
    """The (level, message) of every record the named logger emits within."""
    records: list[tuple[int, str]] = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append((record.levelno, record.getMessage()))
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


# A pool of step objects that conditions share, and fresh ones they do not.
_SHARED_STEPS = [
    ConditionStep(StepKind.BRANCH, "a", 3),
    ConditionStep(StepKind.BRANCH, "b || c"),
    ConditionStep(StepKind.ONE_CYCLE),
    ConditionStep(StepKind.EVENTUALLY),
]
_EMITTED_STEPS = st.one_of(
    st.sampled_from(_SHARED_STEPS),
    st.builds(
        ConditionStep,
        st.just(StepKind.BRANCH),
        st.sampled_from(("a", "!a", "(b) && c", "x == 4'd3")),
        st.one_of(st.none(), st.integers(1, 9)),
    ),
    st.builds(ConditionStep, st.sampled_from((StepKind.ONE_CYCLE, StepKind.EVENTUALLY))),
)
_CONDITIONS = st.builds(
    PathCondition,
    st.text("0123456789abcdef", min_size=1, max_size=8),
    st.sampled_from(("m", "top_1")),
    st.lists(st.sampled_from(("in", "u.q", "r", "out")), max_size=4).map(tuple),
    st.lists(_EMITTED_STEPS, max_size=8).map(tuple),
)


@given(st.lists(_CONDITIONS, max_size=6), st.sampled_from(("m", "other")))
@example([ls.PathCondition("0", "m", (), ())], "m")
@example([ls.PathCondition("1", "m", ("a",), tuple(_SHARED_STEPS[2:] + _SHARED_STEPS[:2]))], "m")
@example(
    [ls.PathCondition("2", "m", ("a", "b"), (_SHARED_STEPS[0],) * 3 + (_SHARED_STEPS[3],))], "m"
)
@settings(max_examples=300, deadline=None)
def test_emitter_agrees_with_token_list_oracle(conditions, module):
    # Byte-identical text and the same empty-path warnings, per property
    # and per file.
    cases = [(ls.emit_sva, oracle_emit_sva, (pc,)) for pc in conditions]
    cases.append((ls.emit_sva_file, oracle_emit_sva_file, (conditions, module)))
    for emit, oracle, args in cases:
        with _logged("leakscope.coverage") as got_warnings:
            got = emit(*args)
        with _logged("oracles") as want_warnings:
            want = oracle(*args)
        assert got == want
        assert got_warnings == want_warnings


_LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Whitespace within a line: str.strip() removes it, no line break is it.
_SPACES = st.text(st.sampled_from(" \t\x1f\xa0\u3000"), max_size=2)
_GOOD_SEQUENCES = (
    "(a)", "a ##1 (b)", "1'b1 ##[0:$] (b || c)", "(!a) ##0 (c)", "a ##3 b",
    "(a) ##[0:$] 1'b1 ##2 (a && !b)", "", "b ##0001 c",
)
_BAD_SEQUENCES = (
    "a # b",  # stray '#'
    "a ## b",  # a bare '##' is no delay
    "(a && b ##1 c",  # unbalanced group
    "##1 a",  # leading delay
    "a ##10001 b",  # over the cycle bound
    "a ##" + "9" * 40 + " b",
    "(a +) ##1 b",  # unparseable boolean
    "a b",  # adjacent booleans
    "a ##1",  # ends on a delay
    "(a ##1 b)",  # delay inside a group
)


@st.composite
def _property_lines(draw):
    s = [draw(_SPACES) for _ in range(6)]
    name = draw(st.sampled_from(("p", "cp_m_0f", "_x1")))
    seq = draw(st.sampled_from(_GOOD_SEQUENCES + _BAD_SEQUENCES))
    gap = draw(st.sampled_from((" ", "\t", "  ")))
    return (
        f"{s[0]}{name}{s[1]}:{s[2]}cover{gap}property{s[3]}"
        f"(@(posedge{gap}clk){s[4]}{seq}){s[5]};"
    )


_OTHER_LINES = st.one_of(
    _SPACES,  # blank
    _SPACES.map(lambda ws: ws + "// a -> b #"),  # comment
    st.sampled_from((
        "cover property bad;",
        "p: cover property (@(posedge clk) a)",  # no ';'
        "p: cover property (@(negedge clk) a);",
        "9p: cover property (@(posedge clk) a);",
    )),
)


@st.composite
def _sva_texts(draw):
    # A few distinct lines, drawn with repeats, so sequences recur.
    pool = draw(st.lists(_property_lines(), min_size=1, max_size=4))
    pool += draw(st.lists(_OTHER_LINES, max_size=3))
    lines = draw(st.lists(st.sampled_from(pool), max_size=12))
    breaks = [draw(st.sampled_from(_LINE_BREAKS)) for _ in lines]
    if lines and draw(st.booleans()):
        breaks[-1] = ""  # the last line ends the text
    return "".join(line + brk for line, brk in zip(lines, breaks))


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(_sva_texts(), st.integers(0, 6).flatmap(
    lambda n: st.fixed_dictionaries({name: _series(n) for name in _SIGNALS})
))
# A bad sequence on two lines is reported on both; an odd line break
# and trailing whitespace keep the line numbers of str.splitlines.
@example(
    "p: cover property (@(posedge clk) a # b);\n" * 2 + "q: cover property (@(posedge clk) a);\n",
    {"a": [1], "b": [0], "c": [0]},
)
@example(
    "x\r\n\x1ep: cover property (@(posedge clk) a ##1 b) ;\u3000\n",
    {"a": [1, 0], "b": [0, 1], "c": [0, 0]},
)
@settings(max_examples=300, deadline=None)
def test_sva_text_reader_agrees_with_line_oracle(text, series):
    # The same lint list with line numbers, the same parse or error, and
    # on a text that lints clean the replay verdicts of the exhaustive
    # matcher.
    problems = ls.sva_lint(text)
    assert problems == oracle_sva_lint(text)
    parsed = _parsed_or_error(parse_sva, text)
    assert parsed == _parsed_or_error(oracle_parse_sva, text)
    if problems:
        return
    bundle = TraceBundle.from_signal_values({"u": series}, {"u": dict.fromkeys(_SIGNALS, 1)}, 0)
    evaluate = trace_evaluator(bundle, "u")
    want = {name: oracle_match(steps, evaluate, evaluate.cycles) for name, steps in parsed}
    assert ls.replay_sva(text, bundle, "u") == want


_TRIE_STEPS = st.one_of(
    st.builds(ConditionStep, st.just(StepKind.BRANCH), st.sampled_from(("a", "!a", "b || c"))),
    st.just(ConditionStep(StepKind.ONE_CYCLE)),
    st.just(ConditionStep(StepKind.EVENTUALLY)),
)


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.fixed_dictionaries({name: _series(n) for name in _SIGNALS})
    ),
    # A few distinct sequences over a small alphabet, drawn with repeats,
    # so the trie merges suffixes and holds duplicates under other keys.
    st.lists(st.lists(_TRIE_STEPS, max_size=5), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    ),
)
@example(
    {"a": [1, 0], "b": [0, 1], "c": [0, 0]},
    [[], [ConditionStep(StepKind.BRANCH, "a")], [], [ConditionStep(StepKind.BRANCH, "a")]],
)
@example({"a": [], "b": [], "c": []}, [[], [ConditionStep(StepKind.EVENTUALLY)]])
@settings(max_examples=200, deadline=None)
def test_path_trie_agrees_with_oracle_per_key(series, sequences):
    cycles = len(series["a"])
    bundle = TraceBundle.from_signal_values(
        {"u": series}, {"u": dict.fromkeys(_SIGNALS, 1)}, 0
    )
    evaluate = trace_evaluator(bundle, "u")
    trie = PathTrie((k, tuple(steps)) for k, steps in enumerate(sequences))
    assert len(trie) == len(sequences)
    covered = trie.covered(bundle.trace("u"))
    for k, steps in enumerate(sequences):
        assert (k in covered) == oracle_match(tuple(steps), evaluate, cycles), k


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.fixed_dictionaries({name: _series(n) for name in _SIGNALS})
    ),
    st.lists(st.lists(_TRIE_STEPS, max_size=5), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    ).flatmap(
        lambda sequences: st.tuples(
            st.just(sequences), st.sets(st.integers(0, len(sequences) - 1))
        )
    ),
)
@settings(max_examples=200, deadline=None)
def test_pending_trie_covers_the_full_tries_verdicts_on_its_keys(series, drawn):
    # A campaign matches runs against a trie of its pending paths only:
    # that is exact because no path's verdict depends on the others.
    sequences, subset = drawn
    bundle = TraceBundle.from_signal_values(
        {"u": series}, {"u": dict.fromkeys(_SIGNALS, 1)}, 0
    )
    items = [(k, tuple(steps)) for k, steps in enumerate(sequences)]
    full = PathTrie(items).covered(bundle.trace("u"))
    pending = PathTrie(item for item in items if item[0] in subset)
    assert len(pending) == len(subset)
    assert pending.covered(bundle.trace("u")) == full & subset


_MASK_WIDTHS = {"a": 4, "b": 4, "c": 1}


def _expressions():
    leaves = st.sampled_from(
        ("0", "1", "3", "4'd9", "1'b1", "a", "b", "c", "a[1]", "b[3:2]", "b[a[1:0]]", "a == a")
    )

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("!", "~", "-")), sub).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(
                sub,
                st.sampled_from(("+", "-", "&", "|", "^", "==", "!=", "<", ">=", "&&", "||", ">>")),
                sub,
            ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(sub, sub, sub).map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _mask_series():
    """Per-cycle series of the `_MASK_WIDTHS` signals, drawn as runs: rows
    held 1 to `longest` cycles each. With a `longest` of 1 every cycle is
    its own run; with 40, a few runs are long."""
    row = st.fixed_dictionaries(
        {name: st.integers(0, (1 << w) - 1) for name, w in _MASK_WIDTHS.items()}
    )
    runs = st.sampled_from((1, 40)).flatmap(
        lambda longest: st.lists(st.tuples(row, st.integers(1, longest)), max_size=45 // longest + 5)
    )
    return runs.map(
        lambda runs: {name: [r[name] for r, n in runs for _ in range(n)] for name in _MASK_WIDTHS}
    )


@given(_mask_series(), _expressions())
@example({"a": [1, 2], "b": [3, 3], "c": [0, 1]}, "(a + a) == (b - 1)")
@example({"a": [], "b": [], "c": []}, "1")
@settings(max_examples=300, deadline=None)
def test_trace_mask_agrees_with_evaluator_bit_by_bit(series, expr):
    # Masks and toggles are built from the trace's runs; the evaluator and
    # the toggle scan of `oracle_code_items` read every cycle.
    bundle = TraceBundle.from_signal_values({"u": series}, {"u": _MASK_WIDTHS}, 0)
    evaluate = trace_evaluator(bundle, "u")
    trace = bundle.trace("u")
    mask = trace.mask(expr)
    assert mask >> evaluate.cycles == 0
    for t in range(evaluate.cycles):
        assert (mask >> t) & 1 == bool(evaluate(expr, t)), (expr, t)
    for i, name in enumerate(trace.names):
        values = series[name]
        toggles = [t for t in range(1, len(values)) if values[t] != values[t - 1]]
        assert trace.toggles(i) == sum(1 << t for t in toggles), name


def test_three_thousand_term_condition_masks_matches_and_replays():
    """A Branch condition far deeper than the codegen spill depth goes
    through `SimulationTrace.mask`, whose compiled comprehension binds the
    spilled temporaries, and through `match_coverage` and `replay_sva`,
    which agree on every path."""
    terms = 3000
    chain = " + ".join(["a"] * terms)
    src = (
        "module deep(input clk, input rst, input [7:0] a, input [7:0] b, output reg r);\n"
        f"  always @(posedge clk) if ({chain} == b) r <= 1; else r <= 0;\nendmodule\n"
    )
    h = ls.parse_design([("deep.hdl", src)])
    steps = [
        StimulusStep(tag="t", data={"a": a, "b": b}, hold=2)
        for a, b in ((1, terms & 0xFF), (2, 0), (7, 7 * terms & 0xFF), (5, 5))
    ]
    bundle = ls.simulate(h, Stimulus(steps=tuple(steps)))
    sv = bundle.trace("deep").signal_values
    want = sum(
        1 << t for t, (a, b) in enumerate(zip(sv["a"], sv["b"])) if terms * a & 0xFF == b
    )
    assert want and bundle.trace("deep").mask(f"{chain} == b") == want
    g = ls.build_meg(h.modules["deep"], h.modules)
    conditions = [ls.path_condition(p, g) for p in ls.enumerate_meps(g).paths]
    assert any(len(s.expr or "") > 4 * terms for pc in conditions for s in pc.steps)
    internal = ls.match_coverage(bundle, conditions, g, "deep")
    replayed = ls.replay_sva(ls.emit_sva_file(conditions, "deep"), bundle, "deep")
    assert internal.covered
    assert replayed == {f"cp_deep_{pc.path_id}": pc.path_id in internal.covered for pc in conditions}
