"""Access to the bundled DUT corpus (sources, profiles, golden stimuli)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .design import DesignHierarchy, parse_design
from .errors import LeakscopeError, StimulusError
from .stimulus import Stimulus, stimulus_from_json


@dataclass(frozen=True)
class DutProfile:
    """Fuzzing contract of a DUT: which tags exist and which inputs are data.

    Tags are the structural alphabet the structural mutator draws from; the
    operand mutator only ever rewrites the listed data inputs.
    """

    top: str
    tags: tuple[str, ...]
    data_inputs: tuple[str, ...]

    @staticmethod
    def from_json(text: str) -> "DutProfile":
        try:
            doc = json.loads(text)
            profile = DutProfile(
                top=doc["top"],
                tags=tuple(doc["tags"]),
                data_inputs=tuple(doc["data_inputs"]),
            )
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise LeakscopeError(f"invalid DUT profile: {type(exc).__name__}: {exc}")
        if not all(isinstance(s, str) for s in (profile.top, *profile.tags, *profile.data_inputs)):
            raise LeakscopeError("invalid DUT profile: top, tags and data_inputs must be strings")
        return profile


@dataclass
class BundledDut:
    name: str
    hierarchy: DesignHierarchy
    profile: DutProfile
    stimuli: dict[str, Stimulus]
    sources: list[tuple[str, str]]


def _corpus_root() -> Path:
    return Path(resources.files("leakscope") / "dut")


def dut_names() -> list[str]:
    return sorted(p.name for p in _corpus_root().iterdir() if p.is_dir())


def load_dut(name: str) -> BundledDut:
    root = _corpus_root() / name
    if not root.is_dir():
        raise StimulusError(f"no bundled DUT named {name!r}; have {dut_names()}")
    sources = []
    for hdl in sorted(root.glob("*.hdl")):
        sources.append((hdl.name, hdl.read_text()))
    profile = DutProfile.from_json((root / "profile.json").read_text())
    hierarchy = parse_design(sources, top=profile.top)
    stimuli = {}
    for stim_path in sorted(root.glob("stim_*.json")):
        key = stim_path.stem[len("stim_"):]
        stimuli[key] = stimulus_from_json(stim_path.read_text())
    return BundledDut(name, hierarchy, profile, stimuli, sources)


def source_digest(sources: list[tuple[str, str]]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in sources}
