"""Execution-time measurement and hierarchical leakage analysis.

A module instance's execution time for one run is the span from the cycle
the first stimulus step lands to the last cycle at which any of its signals
toggles; an instance with no toggle after stimulus start measures zero.
Runs are compared pairwise, deepest instances first, so a timing difference
is attributed to the lowest level whose own signals already disagree; a
finding at a higher level with a firing descendant is kept but marked as
not first-leaky.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Iterable

from .design import DesignHierarchy, levelize
from .errors import EmptyGroup, LeakscopeError, StructuralMismatch
from .simulator import TraceBundle
from .stimulus import Stimulus


@dataclass(frozen=True)
class ExecutionTime:
    instance_path: str
    cycles: int
    last_toggle_cycle: int
    start_cycle: int


@dataclass(frozen=True)
class LeakageFinding:
    instance_path: str
    level: int
    run_a: str
    run_b: str
    time_a: int
    time_b: int
    first_leaky_level: bool

    @property
    def delta(self) -> int:
        return abs(self.time_a - self.time_b)


@dataclass(frozen=True)
class TimingDistribution:
    instance_path: str
    group_key: str
    samples: tuple[int, ...]
    median: float
    max_deviation: float


def measure(bundle: TraceBundle, instance_path: str) -> ExecutionTime:
    """Execution time of one instance in one run.

    cycles = last_toggle - start + 1 when any toggle occurs at or after the
    stimulus start; 0 otherwise (last_toggle_cycle then reports the start).
    """
    start = bundle.start_cycle
    last = bundle.last_toggle_at_or_after(instance_path, start)
    if last is None:
        return ExecutionTime(instance_path, 0, start, start)
    return ExecutionTime(instance_path, last - start + 1, last, start)


def check_structural_match(a: Stimulus | None, b: Stimulus | None) -> None:
    """Two runs are comparable only when their structural shape agrees.

    Bundles ingested from external traces carry no stimulus; the check is
    skipped for those (the caller vouches for the pairing).
    """
    if a is None or b is None:
        return
    if len(a.steps) != len(b.steps):
        raise StructuralMismatch(
            f"step counts differ: {len(a.steps)} vs {len(b.steps)}"
        )
    if a.tags() != b.tags():
        raise StructuralMismatch(f"structural tags differ: {a.tags()} vs {b.tags()}")


def analyze(
    pairs: Iterable[tuple[TraceBundle, TraceBundle]],
    h: DesignHierarchy,
    *,
    min_delta: int = 1,
) -> list[LeakageFinding]:
    """Compare run pairs per instance, bottom-up through the hierarchy;
    an instance is reported when its times differ by at least min_delta."""
    if min_delta < 1:
        raise LeakscopeError(f"min delta must be at least 1, got {min_delta}")
    levels = {inst.path: inst.level for inst in h.instances}
    order = [path for group in levelize(h) for path in group]

    findings: list[LeakageFinding] = []
    seen: set[tuple[str, tuple[str, str]]] = set()
    for a, b in pairs:
        check_structural_match(a.stimulus, b.stimulus)
        pair_key = tuple(sorted((a.seed_id, b.seed_id)))
        fired: list[str] = []
        for path in order:
            ta = measure(a, path)
            tb = measure(b, path)
            delta = abs(ta.cycles - tb.cycles)
            if delta < min_delta:
                continue
            key = (path, pair_key)
            if key in seen:
                continue
            seen.add(key)
            has_lower = any(dep.startswith(path + ".") for dep in fired)
            findings.append(
                LeakageFinding(
                    instance_path=path,
                    level=levels[path],
                    run_a=a.seed_id,
                    run_b=b.seed_id,
                    time_a=ta.cycles,
                    time_b=tb.cycles,
                    first_leaky_level=not has_lower,
                )
            )
            fired.append(path)
    return findings


def distributions(
    bundles: Iterable[TraceBundle],
    instance_path: str,
    group_fn: Callable[[Stimulus], str],
) -> list[TimingDistribution]:
    """Group run times by a user-supplied classifier over the stimulus."""
    groups: dict[str, list[int]] = {}
    for bundle in bundles:
        if bundle.stimulus is None:
            raise EmptyGroup("cannot classify a bundle without a stimulus")
        key = group_fn(bundle.stimulus)
        groups.setdefault(key, []).append(measure(bundle, instance_path).cycles)
    if not groups:
        raise EmptyGroup("no bundles to group")
    out = []
    for key in sorted(groups):
        samples = groups[key]
        med = statistics.median(samples)
        out.append(
            TimingDistribution(
                instance_path=instance_path,
                group_key=key,
                samples=tuple(samples),
                median=med,
                max_deviation=max(abs(s - med) for s in samples),
            )
        )
    return out
