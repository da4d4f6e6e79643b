"""Two-phase localization of a timing difference.

Phase 1 walks the runs of the two traces together, stopping only where
either starts a run, and collects every signal that differs at the first
diverging cycle (the instigators). Phase 2 walks the micro-event graph
breadth-first from the instigators along outgoing edges:
clocked children are recorded as culprits together with the source lines of
the inducing edges and are not expanded further (a storage element absorbs
the divergence into the cycle count); everything else joins the next
frontier. A visited set makes the walk terminate on cyclic regions without
changing the culprit set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import NoDivergence, SignalMismatch
from .hdl_ast import SourceLoc
from .meg import Meg, NodeKind
from .simulator import SimulationTrace


@dataclass(frozen=True)
class Diagnosis:
    instance_path: str
    instigators: frozenset[str]
    divergence_cycle: int
    culprits: frozenset[tuple[str, SourceLoc]]
    frontier_trace: tuple[tuple[str, ...], ...]

    @property
    def culprit_signals(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.culprits)

    @property
    def culprit_lines(self) -> frozenset[int]:
        return frozenset(loc.line for _, loc in self.culprits)


def diagnose(st1: SimulationTrace, st2: SimulationTrace, g: Meg) -> Diagnosis:
    signals_1 = set(st1.names)
    signals_2 = set(st2.names)
    graph_signals = {
        n.id for n in g.nodes.values() if n.kind is not NodeKind.INSTANCE
    }
    if signals_1 != signals_2:
        raise SignalMismatch("the two traces record different signal sets")
    if signals_1 != graph_signals:
        missing = sorted(graph_signals - signals_1)
        extra = sorted(signals_1 - graph_signals)
        raise SignalMismatch(
            f"trace signals do not match MEG of {g.module_name!r}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )

    instigators, cycle = _first_divergence(st1, st2)
    culprits, layers = _trace_to_sequential(instigators, g)
    return Diagnosis(
        instance_path=st1.instance_path,
        instigators=frozenset(instigators),
        divergence_cycle=cycle,
        culprits=frozenset(culprits),
        frontier_trace=tuple(tuple(layer) for layer in layers),
    )


def _first_divergence(st1: SimulationTrace, st2: SimulationTrace) -> tuple[list[str], int]:
    """The signals that differ at the first differing cycle, and that
    cycle; values change only where a run of either trace starts."""
    names = sorted(st1.names)
    columns = [(st1.names.index(n), st2.names.index(n)) for n in names]
    common = min(st1.cycles, st2.cycles)
    for cycle in sorted({*st1.starts, *st2.starts}):
        if cycle >= common:
            break
        row1 = st1.values[bisect_right(st1.starts, cycle) - 1]
        row2 = st2.values[bisect_right(st2.starts, cycle) - 1]
        differing = [n for n, (i, j) in zip(names, columns) if row1[i] != row2[j]]
        if differing:
            return differing, cycle

    if st1.cycles != st2.cycles:
        longer = st1 if st1.cycles > st2.cycles else st2
        first = bisect_left(longer.starts, max(common, 1))
        runs = zip(longer.values[first:], longer.values[first - 1:])
        toggled = {
            i for now, before in runs for i, (x, y) in enumerate(zip(now, before)) if x != y
        }
        tail = [n for n in names if longer.names.index(n) in toggled]
        if tail:
            # A pure run-length difference is itself the timing signal.
            return tail, common
    raise NoDivergence("traces are identical over the compared length")


def _trace_to_sequential(
    instigators: list[str], g: Meg
) -> tuple[set[tuple[str, SourceLoc]], list[list[str]]]:
    culprits: set[tuple[str, SourceLoc]] = set()
    frontier = sorted(instigators)
    visited = set(frontier)
    layers: list[list[str]] = [list(frontier)]
    # An instigator that is itself a register is also a culprit: its own
    # divergence already moved the cycle count.
    for signal in frontier:
        node = g.nodes.get(signal)
        if node is not None and node.clocked:
            culprits.add((node.id, node.loc))
    while frontier:
        next_frontier: list[str] = []
        for signal in frontier:
            for edge in sorted(g.out_edges(signal), key=lambda e: e.dst):
                child = g.nodes[edge.dst]
                if child.clocked:
                    for loc in edge.locs:
                        culprits.add((child.id, loc))
                    continue
                if child.id not in visited:
                    visited.add(child.id)
                    next_frontier.append(child.id)
        next_frontier.sort()
        if next_frontier:
            layers.append(list(next_frontier))
        frontier = next_frontier
    return culprits, layers
