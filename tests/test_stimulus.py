from __future__ import annotations

import pytest

import leakscope as ls
from leakscope.stimulus import (
    Stimulus,
    StimulusStep,
    parse_tag,
    stimulus_from_json,
    stimulus_to_json,
)


def test_parse_tag_assignments():
    assert parse_tag("req=1;lock=0") == {"req": 1, "lock": 0}
    assert parse_tag("start=0x10") == {"start": 16}
    assert parse_tag("idle") == {}
    assert parse_tag("op=2; start=1") == {"op": 2, "start": 1}


def test_parse_tag_errors():
    with pytest.raises(ls.StimulusError):
        parse_tag("req=x;foo")
    with pytest.raises(ls.StimulusError):
        parse_tag("a=1;b")


def test_step_tag_wins_over_data():
    step = StimulusStep(tag="req=1", data={"req": 0, "addr": 3})
    assert step.assignments() == {"req": 1, "addr": 3}


def test_json_roundtrip(tmp_path):
    stim = Stimulus(
        steps=(
            StimulusStep(tag="req=1", data={"addr": 40, "lock": 0}, hold=4),
            StimulusStep(tag="req=0", data={}, hold=1),
        )
    )
    again = stimulus_from_json(stimulus_to_json(stim))
    assert again == stim
    path = tmp_path / "s.json"
    ls.save_stimulus(stim, path)
    assert ls.load_stimulus(path) == stim


def test_from_json_rejects_malformed():
    with pytest.raises(ls.StimulusError):
        stimulus_from_json("{}")
    with pytest.raises(ls.StimulusError):
        stimulus_from_json('[{"data": {}}]')
    with pytest.raises(ls.StimulusError):
        stimulus_from_json("not json")


def test_validate_against_design(cacheset):
    good = Stimulus(steps=(StimulusStep(tag="req=1", data={"addr": 255}, hold=1),))
    ls.validate_stimulus(good, cacheset.hierarchy)
    bad = Stimulus(steps=(StimulusStep(tag="req=9", data={}, hold=1),))
    with pytest.raises(ls.StimulusError):
        ls.validate_stimulus(bad, cacheset.hierarchy)


def test_simulate_decodes_each_step_once(cacheset, monkeypatch):
    # validate_stimulus returns the assignments the scheduler drives.
    import leakscope.stimulus

    tags: list[str] = []

    def counted(tag):
        tags.append(tag)
        return parse_tag(tag)

    monkeypatch.setattr(leakscope.stimulus, "parse_tag", counted)
    stim = Stimulus(steps=(
        StimulusStep(tag="req=1", data={"addr": 3}, hold=2),
        StimulusStep(tag="req=0", data={"addr": 3}, hold=1),
        StimulusStep(tag="req=1", data={"addr": 9}, hold=2),
    ))
    bundle = ls.simulate(cacheset.hierarchy, stim)
    assert tags == ["req=1", "req=0", "req=1"]
    decoded = ls.validate_stimulus(stim, cacheset.hierarchy)
    assert decoded == [step.assignments() for step in stim.steps]
    req = bundle.trace("cacheset").signal_values["req"]
    start = bundle.start_cycle
    assert req[start:start + 5] == [1, 1, 0, 1, 1]


def test_tags_and_total_hold():
    stim = Stimulus(
        steps=(
            StimulusStep(tag="a", hold=2),
            StimulusStep(tag="b", hold=3),
        )
    )
    assert stim.tags() == ("a", "b")
    assert stim.total_hold() == 5
