"""Timing-behavior coverage: path conditions, cover properties, matching.

Each micro-event path becomes an ordered condition: per edge, a Branch step
for the (possibly disjunctive) edge guard, a OneCycle step when the edge
lands on a clocked element (the event completes on the next edge), and an
Eventually step when it leaves an input or a sub-instance (the event lands
whenever the outside world delivers it). The same condition drives two
evaluators: emission as an SVA-style cover property for external tools, and
the internal matcher. The matcher turns each Branch expression into a
bitmask over a trace's cycles and walks the steps backward over the set of
cycles from which the rest of the path aligns: a Branch intersects it with
the expression's mask, a OneCycle shifts it one cycle earlier, and an
Eventually widens it to every cycle up to its latest member. A path is
covered iff the set is non-empty after the first step.

All paths of a module are matched together: a `PathTrie` merges their
step sequences on shared suffixes, and one backward walk of the trie
evaluates each shared suffix once and drops a subtree as soon as its set
is empty. The masks come from the run's own instance trace
(`TraceBundle.trace`, a `SimulationTrace`), which builds each one from
its runs, evaluating the expression once per run, and keeps it, so the
code-coverage probes, `match_coverage` and `replay_sva` evaluate an
expression once per run and instance. A fuzz campaign builds its tries
from the paths not yet covered, so each run is matched only against the
pending ones; `match_coverage` matches every path it is given.

SVA text is written and read in one pass each. Emission writes each
property's sequence straight from its steps. Reading splits no line in
Python: every line break str.splitlines knows becomes "\n", and one
regular-expression pass sorts every line into blank or comment, property
(name and sequence), or outside the subset; a line's number is its
position. Paths share sequences, so `sva_lint`, `parse_sva` and
`replay_sva` check, read and match each distinct sequence once per call
and still report per line. Nothing is kept from one call to the next.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import PathNotInGraph
from .meg import Meg, MegEdge, MicroEventPath, NodeKind, mep_id, render_condition
from .parser import parse_expression
from .simulator import DEFAULT_MAX_CYCLES, SimulationTrace, TraceBundle
from .vcd import _unify_line_breaks

log = logging.getLogger(__name__)


class StepKind(Enum):
    # A delay's value is its SVA operator, which no boolean can equal.
    BRANCH = "branch"
    ONE_CYCLE = "##1"
    EVENTUALLY = "##[0:$]"


@dataclass(frozen=True, slots=True)
class ConditionStep:
    kind: StepKind
    expr: str | None = None  # BRANCH only: re-parseable boolean
    line: int | None = None  # origin of the first clause


@dataclass(frozen=True, slots=True)
class PathCondition:
    path_id: str
    module: str
    node_ids: tuple[str, ...]
    steps: tuple[ConditionStep, ...]


def _edge_steps(edge: MegEdge, g: Meg) -> tuple[ConditionStep, ...]:
    """The condition steps one edge of g contributes to every path on it."""
    steps = []
    if edge.clauses:
        steps.append(
            ConditionStep(StepKind.BRANCH, expr=render_condition(edge), line=min(edge.lines))
        )
    if g.nodes[edge.dst].clocked:
        steps.append(ConditionStep(StepKind.ONE_CYCLE))
    if g.nodes[edge.src].kind in (NodeKind.INSTANCE, NodeKind.INPUT):
        steps.append(ConditionStep(StepKind.EVENTUALLY))
    return tuple(steps)


def path_condition(p: MicroEventPath, g: Meg) -> PathCondition:
    """Ordered condition steps for one path, per-edge case analysis.

    Every edge of the path must be g's edge between its nodes, or equal to
    it. Each edge's steps are derived once per graph and kept in
    `g.edge_steps`; an entry is used only while the edge it was derived
    from is still g's edge.
    """
    steps: list[ConditionStep] = []
    cache = g.edge_steps
    for edge in p.edges:
        key = (edge.src, edge.dst)
        known = g.edges.get(key)
        if known is not edge and (known is None or known != edge):
            raise PathNotInGraph(
                f"edge ({edge.src} -> {edge.dst}) is not part of MEG {g.module_name!r}"
            )
        cached = cache.get(key)
        if cached is None or cached[0] is not known:
            cached = cache[key] = (known, _edge_steps(known, g))
        steps += cached[1]
    node_ids = p.node_ids
    return PathCondition(
        path_id=mep_id(node_ids), module=g.module_name, node_ids=node_ids, steps=tuple(steps)
    )


# ---------------------------------------------------------------------------
# SVA emission
# ---------------------------------------------------------------------------

def _sva_sequence(steps: tuple[ConditionStep, ...]) -> str:
    """A property's sequence, written straight from its steps: ##1 for
    OneCycle, ##[0:$] for Eventually; consecutive delays are separated by a
    literal-true term so the output stays inside the SVA sequence grammar."""
    seq: list[str] = []
    expect_bool = True
    branch = StepKind.BRANCH
    for step in steps:
        if step.kind is branch:
            if not expect_bool:
                # Two adjacent booleans fuse with a zero-delay; keep them apart.
                seq.append("##0")
            seq.append(f"({step.expr})")
            expect_bool = False
        else:
            if expect_bool:
                seq.append("1'b1")
            seq.append(step.kind._value_)
            expect_bool = True
    if expect_bool:
        seq.append("1'b1")
    return " ".join(seq)


def emit_sva(pc: PathCondition, module: str | None = None) -> str:
    """One `cover property` per path, after a comment naming its nodes."""
    module = module or pc.module
    if not pc.steps:
        log.warning(
            "path %s in %s has no condition steps; emitting an always-coverable "
            "property", pc.path_id, module,
        )
    return (
        f"// {' -> '.join(pc.node_ids)}\n"
        f"cp_{module}_{pc.path_id}: cover property (@(posedge clk) {_sva_sequence(pc.steps)});"
    )


def emit_sva_file(conditions: list[PathCondition], module: str) -> str:
    header = f"// cover properties for module {module}: {len(conditions)} paths\n"
    return header + "\n".join([emit_sva(pc, module) for pc in conditions]) + "\n"


# One match per line of text whose line breaks are all "\n": a blank or
# comment line matches no group, a property line `name` and `seq`, and any
# other line `other`. `[^\S\n]` is whitespace within the line.
_SVA_LINE = re.compile(
    r"^[^\S\n]*(?:(?://.*)?"
    r"|(?P<name>[A-Za-z_]\w*)[^\S\n]*:[^\S\n]*cover[^\S\n]+property[^\S\n]*\([^\S\n]*"
    r"@\(posedge[^\S\n]+clk\)[^\S\n]*(?P<seq>.*)\)[^\S\n]*;[^\S\n]*"
    r"|(?P<other>.+))$",
    re.M,
)
# The capture keeps the delay operators in re.split's output.
_DELAY_SPLIT = re.compile(r"(##(?:\d+|\[0:\$\]))")
_BARE_TERM = re.compile(r"[^\s#]+")
_NOT_A_PROPERTY = "not a cover property in the subset"


def _scan_segment(seg: str) -> list[str]:
    """The booleans of one delay-free stretch of a sequence: parenthesized
    groups and bare terms (literals like 1'b1), separated by whitespace."""
    tokens: list[str] = []
    i = 0
    n = len(seg)
    while i < n:
        ch = seg[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            depth = 0
            for j in range(i, n):
                if seg[j] == "(":
                    depth += 1
                elif seg[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
            if depth:
                raise ValueError("unbalanced parentheses in sequence")
            tokens.append(seg[i:j + 1])
            i = j + 1
        elif ch == "#":
            raise ValueError("stray '#' outside a delay operator")
        else:
            j = _BARE_TERM.match(seg, i).end()
            tokens.append(seg[i:j])
            i = j
    return tokens


def _split_sva_seq(seq: str, segments: dict[str, list[str]]) -> list[str]:
    """Tokenize a property sequence into booleans and delay operators.

    The sequence is cut at its delay operators; each distinct stretch
    between them is scanned once and kept in `segments`.
    """
    tokens: list[str] = []
    for k, part in enumerate(_DELAY_SPLIT.split(seq)):
        if k % 2:
            tokens.append(part)
            continue
        booleans = segments.get(part)
        if booleans is None:
            booleans = segments[part] = _scan_segment(part)
        tokens.extend(booleans)
    return tokens


def _read_properties(text: str) -> list[tuple[int, str, str]]:
    """(line number, name, sequence) of each line of SVA text that is not
    blank or a comment, read by one regular-expression pass over the whole
    text. Lines are those of str.splitlines(); a line outside the subset
    has an empty name."""
    lines = _SVA_LINE.findall(_unify_line_breaks(text))
    return [(k, name, seq) for k, (name, seq, other) in enumerate(lines, 1) if name or other]


def _delay_cycles(token: str) -> int:
    """N of `##N`; one past the cycle bound if N has more digits than the
    bound, since `int` refuses thousands of them."""
    digits = token[2:].lstrip("0")
    too_long = len(digits) > len(str(DEFAULT_MAX_CYCLES))
    return DEFAULT_MAX_CYCLES + 1 if too_long else int(digits or "0")


def _delay_problem(token: str) -> str | None:
    """Why a delay token is outside the subset, or None. `##N` stands for N
    one-cycle steps, so N is bounded by the longest simulated run."""
    if token != "##[0:$]" and _delay_cycles(token) > DEFAULT_MAX_CYCLES:
        return f"delay {token} exceeds the {DEFAULT_MAX_CYCLES}-cycle bound"
    return None


def _sequence_problem(seq: str, segments: dict[str, list[str]], checked: set[str]) -> str | None:
    """Why a property sequence is outside the subset, or None. Tokens in
    `checked` are known good, and each token found good is added to it."""
    try:
        tokens = _split_sva_seq(seq, segments)
    except ValueError as exc:
        return str(exc)
    expect_bool = True
    for token in tokens:
        is_delay = token.startswith("##")
        if expect_bool and is_delay:
            return f"delay {token} where a boolean is required"
        if not expect_bool and not is_delay:
            return "adjacent booleans without a delay"
        if token not in checked:
            if is_delay:
                problem = _delay_problem(token)
                if problem:
                    return problem
            else:
                try:
                    parse_expression(token)
                except Exception as exc:
                    return f"unparseable boolean {token!r}: {exc}"
            checked.add(token)
        expect_bool = is_delay
    return "sequence ends on a delay" if expect_bool and tokens else None


def sva_lint(text: str) -> list[str]:
    """Check emitted properties against the supported SVA subset.

    Returns a list of problems, one per failing line; empty means the text
    lints clean. Each distinct sequence is checked once.
    """
    problems: list[str] = []
    verdicts: dict[str, str | None] = {}
    segments: dict[str, list[str]] = {}
    checked: set[str] = set()
    for lineno, name, seq in _read_properties(text):
        if not name:
            problem = _NOT_A_PROPERTY
        elif seq in verdicts:
            problem = verdicts[seq]
        else:
            problem = verdicts[seq] = _sequence_problem(seq, segments, checked)
        if problem:
            problems.append(f"line {lineno}: {problem}")
    return problems


def _sequence_steps(
    seq: str,
    segments: dict[str, list[str]],
    steps_of: dict[str, tuple[ConditionStep, ...]],
) -> tuple[ConditionStep, ...]:
    """The condition steps of one property sequence; `steps_of` holds the
    steps of every token seen so far."""
    steps: list[ConditionStep] = []
    for token in _split_sva_seq(seq, segments):
        interned = steps_of.get(token)
        if interned is None:
            if token.startswith("##"):
                problem = _delay_problem(token)
                if problem:
                    raise ValueError(problem)
                interned = steps_of["##1"] * _delay_cycles(token)
            else:
                expr = token[1:-1] if token.startswith("(") else token
                interned = (ConditionStep(StepKind.BRANCH, expr=expr),)
            steps_of[token] = interned
        steps.extend(interned)
    return tuple(steps)


def parse_sva(text: str) -> list[tuple[str, tuple[ConditionStep, ...]]]:
    """Read emitted properties back into condition steps (reference route
    for the emission/evaluation agreement check); raises ValueError at the
    first line outside the subset. Steps are shared: one per delay kind and
    one per distinct boolean, and one tuple per distinct sequence."""
    steps_of: dict[str, tuple[ConditionStep, ...]] = {
        "##1": (ConditionStep(StepKind.ONE_CYCLE),),
        "##[0:$]": (ConditionStep(StepKind.EVENTUALLY),),
    }
    segments: dict[str, list[str]] = {}
    sequences: dict[str, tuple[ConditionStep, ...]] = {}
    out = []
    for lineno, name, seq in _read_properties(text):
        try:
            if not name:
                raise ValueError(_NOT_A_PROPERTY)
            steps = sequences.get(seq)
            if steps is None:
                steps = sequences[seq] = _sequence_steps(seq, segments, steps_of)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        out.append((name, steps))
    return out


# ---------------------------------------------------------------------------
# Matching against traces
# ---------------------------------------------------------------------------

class PathTrie:
    """Condition step sequences of many paths, merged on shared suffixes.

    Built from `(key, steps)` pairs. A node stands for one step of every
    path whose steps end in the sequence from that node back to the root;
    a node is identified by its step's expression (Branch) or its kind's
    SVA operator (the delays), since matching reads nothing else of a
    step; the keys are plain strings, which hash in C. `covered` walks
    the trie backward from the root, so a suffix that several paths share
    is evaluated once. `len(trie)` is the number of paths.
    """

    def __init__(self, items):
        # A node is [step, children by step key, keys of paths ending here].
        self._root: list = [None, {}, []]
        self._paths = 0
        for key, steps in items:
            node = self._root
            for step in reversed(steps):
                # `_value_`: the `value` property is Python code, slower
                # than the Enum hash this key avoids.
                k = step.expr if step.expr is not None else step.kind._value_
                child = node[1].get(k)
                if child is None:
                    child = node[1][k] = [step, {}, []]
                node = child
            node[2].append(key)
            self._paths += 1

    def __len__(self) -> int:
        return self._paths

    def covered(self, trace: SimulationTrace) -> set:
        """Keys of the paths for which some start cycle of the trace admits
        an alignment of all steps.

        Keeps per node `r`, the set of cycles from which that suffix
        aligns: a Branch intersects it with the expression's mask, a
        OneCycle shifts it one cycle earlier, and an Eventually widens it
        to every cycle up to its latest member. Every step, including a
        trailing OneCycle's landing cycle, must be witnessed by a recorded
        cycle. A subtree is dropped as soon as its set is empty; a path
        with no steps is covered iff the trace has cycles.
        """
        hit: set = set()
        if not trace.all:
            return hit
        hit.update(self._root[2])
        mask = trace.mask
        branch, one_cycle = StepKind.BRANCH, StepKind.ONE_CYCLE
        stack = [(self._root[1], trace.all)]
        while stack:
            children, r = stack.pop()
            for step, grandchildren, keys in children.values():
                kind = step.kind
                if kind is branch:
                    s = r & mask(step.expr)
                elif kind is one_cycle:
                    s = r >> 1
                else:  # EVENTUALLY: any cycle at or before the latest suffix start
                    s = (1 << r.bit_length()) - 1
                if s:
                    hit.update(keys)
                    if grandchildren:
                        stack.append((grandchildren, s))
        return hit


@dataclass
class ModuleCoverage:
    module: str
    total_paths: int
    covered: set[str] = field(default_factory=set)
    truncated: bool = False

    @property
    def covered_paths(self) -> int:
        return len(self.covered)

    @property
    def percent(self) -> float:
        return 100.0 * self.covered_paths / self.total_paths if self.total_paths else 0.0


@dataclass
class CoverageReport:
    per_module: dict[str, ModuleCoverage] = field(default_factory=dict)

    def add(self, fragment: ModuleCoverage) -> None:
        existing = self.per_module.get(fragment.module)
        if existing is None:
            self.per_module[fragment.module] = ModuleCoverage(
                fragment.module,
                fragment.total_paths,
                set(fragment.covered),
                fragment.truncated,
            )
        else:
            existing.covered |= fragment.covered
            existing.truncated = existing.truncated or fragment.truncated
            existing.total_paths = max(existing.total_paths, fragment.total_paths)

    @property
    def overall_percent(self) -> float:
        total = sum(m.total_paths for m in self.per_module.values())
        covered = sum(m.covered_paths for m in self.per_module.values())
        return 100.0 * covered / total if total else 0.0


def match_coverage(
    bundle: TraceBundle,
    conditions: list[PathCondition] | PathTrie,
    g: Meg,
    instance_path: str,
    *,
    truncated: bool = False,
) -> ModuleCoverage:
    """Evaluate which of g's paths this run covered on one instance of g's
    module.

    `conditions` are the module's path conditions, or a `PathTrie` of them
    keyed by path id, so a caller that matches many runs builds the trie
    once. Expressions are evaluated on the run's own instance trace
    (`bundle.trace`), whose masks every coverage consumer of the run shares.
    """
    if not isinstance(conditions, PathTrie):
        conditions = PathTrie((pc.path_id, pc.steps) for pc in conditions)
    return ModuleCoverage(
        g.module_name, len(conditions), conditions.covered(bundle.trace(instance_path)), truncated
    )


def replay_sva(
    sva_text: str, bundle: TraceBundle, instance_path: str
) -> dict[str, bool]:
    """Evaluate emitted property text against a trace: the reference route.

    Returns property-name -> covered verdict. Each distinct sequence is
    matched once: `parse_sva` gives it one steps tuple, keyed by identity.
    """
    properties = parse_sva(sva_text)
    distinct = {id(steps): steps for _, steps in properties}
    covered = PathTrie(distinct.items()).covered(bundle.trace(instance_path))
    return {name: id(steps) in covered for name, steps in properties}
