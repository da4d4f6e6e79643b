"""Stimulus model: structural tags plus data maps, one step per entry.

A step's tag is its structural identity, the analogue of an opcode: the
operand mutator never touches it. Tags of the form ``name=value`` (several
joined by ``;``) drive control inputs directly, so preserving the tag
preserves the control behavior by construction; a tag without ``=`` is an
inert label. The data map drives the remaining (operand-like) inputs.

On-disk form is a JSON array of ``{"tag": ..., "data": {...}, "hold": N}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .design import DesignHierarchy
from .errors import StimulusError
from .hdl_ast import SignalKind
from .parser import CLOCK_NAME, RESET_NAME


@dataclass(frozen=True)
class StimulusStep:
    tag: str
    data: dict[str, int] = field(default_factory=dict)
    hold: int = 1

    def control_assignments(self) -> dict[str, int]:
        return parse_tag(self.tag)

    def assignments(self) -> dict[str, int]:
        # Structural assignments win on overlap so mutated data can never
        # change the control behavior of a step.
        merged = dict(self.data)
        merged.update(self.control_assignments())
        return merged


@dataclass(frozen=True)
class Stimulus:
    steps: tuple[StimulusStep, ...]

    def tags(self) -> tuple[str, ...]:
        return tuple(step.tag for step in self.steps)

    def total_hold(self) -> int:
        return sum(step.hold for step in self.steps)


def parse_tag(tag: str) -> dict[str, int]:
    """Decode ``a=1;b=0`` into input assignments; plain labels decode empty."""
    if "=" not in tag:
        return {}
    out: dict[str, int] = {}
    for part in tag.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise StimulusError(f"malformed tag fragment {part!r} in {tag!r}")
        name, _, value = part.partition("=")
        try:
            out[name.strip()] = int(value.strip(), 0)
        except ValueError:
            raise StimulusError(f"non-integer value in tag fragment {part!r}")
    return out


def validate_stimulus(stim: Stimulus, h: DesignHierarchy) -> list[dict[str, int]]:
    """Check every referenced input exists on the top module and fits.

    Returns each step's assignments, in step order, so a caller decodes
    every tag once."""
    top = h.modules[h.top]
    inputs = {p.name: p for p in top.ports if p.kind is SignalKind.INPUT}
    decoded = []
    for index, step in enumerate(stim.steps):
        if step.hold < 1:
            raise StimulusError(f"step {index}: hold must be >= 1")
        assignments = step.assignments()
        decoded.append(assignments)
        for name, value in assignments.items():
            if name in (CLOCK_NAME, RESET_NAME):
                raise StimulusError(
                    f"step {index}: {name!r} is driven by the simulator"
                )
            port = inputs.get(name)
            if port is None:
                raise StimulusError(
                    f"step {index}: top module {top.name!r} has no input {name!r}"
                )
            if not (0 <= value < (1 << port.width)):
                raise StimulusError(
                    f"step {index}: value {value} does not fit input "
                    f"{name!r} ({port.width} bits)"
                )
    return decoded


def stimulus_to_json(stim: Stimulus) -> str:
    doc = [
        {"tag": s.tag, "data": dict(sorted(s.data.items())), "hold": s.hold}
        for s in stim.steps
    ]
    return json.dumps(doc, indent=2)


def stimulus_from_json(text: str) -> Stimulus:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StimulusError(f"bad stimulus JSON: {exc}")
    except RecursionError:
        raise StimulusError("bad stimulus JSON: nested too deeply")
    if not isinstance(doc, list):
        raise StimulusError("stimulus JSON must be an array of steps")
    steps = []
    for index, entry in enumerate(doc):
        if not isinstance(entry, dict) or "tag" not in entry:
            raise StimulusError(f"step {index}: expected an object with a 'tag'")
        data = entry.get("data", {})
        if not isinstance(data, dict):
            raise StimulusError(f"step {index}: 'data' must be an object")
        for name, value in data.items():
            _require_int(value, index, f"data value {name!r}")
        hold = entry.get("hold", 1)
        _require_int(hold, index, "'hold'")
        steps.append(StimulusStep(tag=str(entry["tag"]), data=dict(data), hold=hold))
    return Stimulus(steps=tuple(steps))


def _require_int(value: object, index: int, what: str) -> None:
    # `type() is int`, not isinstance: JSON true/false load as bools,
    # which are ints to Python but not integers to a stimulus author.
    if type(value) is not int:
        raise StimulusError(
            f"step {index}: {what} must be a JSON integer, not {json.dumps(value)}"
        )


def load_stimulus(path: str | Path) -> Stimulus:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise StimulusError(f"{path}: not UTF-8 text: {exc}")
    return stimulus_from_json(text)


def save_stimulus(stim: Stimulus, path: str | Path) -> None:
    Path(path).write_text(stimulus_to_json(stim) + "\n")
