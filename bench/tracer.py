"""Per-layer tracing from outside the program.

The tracer replaces public leakscope functions where the pipeline looks
them up (for example `leakscope.fuzz.match_coverage`) with wrappers that
record one span per call: layer name, start, end and the index of the
enclosing span. Spans stay in memory until the run ends. A layer's self
time is its spans' durations minus the time of the spans nested in them,
so self times add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.active = False  # spans are recorded only inside measured sections

    def wrap(self, owner: object, attr: str, layer: str, count=None) -> None:
        """Trace calls of `owner.attr` as `layer`; `count(result, args,
        kwargs, counts)` adds the call's work counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((layer, 0.0, 0.0, parent))
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[index] = (layer, start, end, parent)
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if count is not None:
                count(result, args, kwargs, tracer.counts)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def attributed_s(self, windows: list[tuple[float, float]], glue: str) -> float:
        """Self time of every layer but `glue` in spans inside `windows`."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = 0.0
        for i, (layer, start, end, _) in enumerate(self.spans):
            if layer == glue:
                continue
            if any(lo <= start and end <= hi for lo, hi in windows):
                total += end - start - child[i]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["layer", "start", "end", "parent"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc))
