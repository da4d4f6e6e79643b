from __future__ import annotations

import hashlib
import json

import pytest

import leakscope as ls
from leakscope.fuzz import CampaignResult, FuzzConfig
from leakscope.reports import (
    Format,
    summary_to_json,
    text_report,
)


@pytest.fixture(scope="module")
def serdiv_campaign(serdiv):
    megs = ls.build_megs(serdiv.hierarchy.modules)
    cfg = ls.FuzzConfig(rng_seed=42, mutants_per_seed=40, max_rounds=8)
    return ls.fuzz_loop(serdiv.hierarchy, megs, cfg, serdiv.profile)


def test_empty_campaign_summary():
    result = CampaignResult(design_name="none", config=FuzzConfig())
    summary = json.loads(summary_to_json(result))
    assert summary["seedsCount"] == 0
    assert summary["findingsCount"] == 0
    assert summary["coverageRows"] == summary["timingRows"] == []
    text = text_report(result)
    assert "(none)" in text
    assert "overall: 0.00%" in text


def test_render_json_artifacts(tmp_path, serdiv_campaign):
    written = ls.render(serdiv_campaign, Format.JSON, tmp_path)
    names = {p.name for p in written}
    assert {"campaign.json", "findings.json", "diagnoses.json", "coverage.json", "summary.json"} <= names
    doc = json.loads((tmp_path / "findings.json").read_text())
    assert doc["schemaVersion"] == 1
    assert len(doc["findings"]) == len(serdiv_campaign.findings)
    # one stimulus file per seed
    for seed in serdiv_campaign.seeds:
        assert (tmp_path / "seeds" / f"{seed.id}.json").exists()


def test_render_csv(tmp_path, serdiv_campaign):
    ls.render(serdiv_campaign, "csv", tmp_path)
    lines = (tmp_path / "coverage.csv").read_text().splitlines()
    assert lines[0] == "module,total_paths,covered_paths,percent,truncated"
    assert len(lines) == 1 + len(serdiv_campaign.coverage.per_module)


def test_render_dot(tmp_path, serdiv_campaign):
    from oracles import validate_dot

    written = ls.render(serdiv_campaign, Format.DOT, tmp_path)
    assert {p.name for p in written} == {"divider.dot", "serdiv.dot"}
    for p in written:
        assert validate_dot(p.read_text()) == []


def test_render_byte_identical(tmp_path, serdiv):
    megs = ls.build_megs(serdiv.hierarchy.modules)
    cfg = ls.FuzzConfig(rng_seed=42, mutants_per_seed=40, max_rounds=8)
    blobs = []
    for run in ("a", "b"):
        result = ls.fuzz_loop(serdiv.hierarchy, megs, cfg, serdiv.profile)
        outdir = tmp_path / run
        for fmt in (Format.JSON, Format.CSV, Format.TEXT):
            ls.render(result, fmt, outdir)
        blob = {
            p.relative_to(outdir).as_posix(): p.read_bytes()
            for p in sorted(outdir.rglob("*"))
            if p.is_file()
        }
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_text_report_quotes_culprit_lines(tmp_path, serdiv):
    # Campaign with real file-backed sources: culprit lines are quoted. A
    # form feed in a comment ends no line for the lexer, nor for the quote.
    bundled = dict(serdiv.sources)["serdiv.hdl"]
    for line_2 in (None, "// page\fbreak"):
        lines = bundled.split("\n")
        if line_2 is not None:
            lines[1] = line_2
        body = "\n".join(lines)
        src_file = tmp_path / "serdiv.hdl"
        src_file.write_text(body)
        refs = ((str(src_file), hashlib.sha256(body.encode()).hexdigest()),)
        sources = [(name, body if name == "serdiv.hdl" else text) for name, text in serdiv.sources]
        h = ls.parse_design(sources, top="serdiv")
        megs = ls.build_megs(h.modules)
        cfg = ls.FuzzConfig(rng_seed=42, mutants_per_seed=40, max_rounds=8)
        result = ls.fuzz_loop(h, megs, cfg, serdiv.profile, source_refs=refs)
        text = text_report(result)
        assert "culprit state at" in text
        quoted = [ln for ln in text.splitlines() if "state <= 2" in ln]
        assert quoted, f"expected the early-out assignment to be quoted ({line_2!r})"


def test_text_report_downgrades_on_hash_mismatch(tmp_path, serdiv):
    # A source that changed after the campaign read it, to other text or to
    # bytes that are not UTF-8, is quoted by line number only.
    body = dict(serdiv.sources)["serdiv.hdl"].encode()
    src_file = tmp_path / "serdiv.hdl"
    refs = ((str(src_file), hashlib.sha256(body).hexdigest()),)
    megs = ls.build_megs(serdiv.hierarchy.modules)
    cfg = ls.FuzzConfig(rng_seed=42, mutants_per_seed=40, max_rounds=8)
    result = ls.fuzz_loop(serdiv.hierarchy, megs, cfg, serdiv.profile, source_refs=refs)
    for data, quoted in ((body, True), (b"// edited\n" + body, False), (b"\xff" + body, False)):
        src_file.write_bytes(data)
        text = text_report(result)
        assert "culprit state at" in text
        assert bool([ln for ln in text.splitlines() if "state <= 2" in ln]) is quoted, data[:10]


def test_timing_rows_shape(serdiv_campaign):
    summary = json.loads(summary_to_json(serdiv_campaign))
    assert summary["diagnosesCount"] == len(summary["timingRows"]) > 0
    row = summary["timingRows"][0]
    assert row["instance"] == "serdiv.div"
    assert row["lines"] == sorted(row["lines"])
    assert row["phase1Signals"] and row["phase2Signals"]


def test_render_unknown_format_rejected(tmp_path, serdiv_campaign):
    with pytest.raises(ValueError):
        ls.render(serdiv_campaign, "yaml", tmp_path)
