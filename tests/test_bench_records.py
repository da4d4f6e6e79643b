"""Perf records at the repository root (`BENCH_*.json`) must come from
runs whose seed-42 cacheset campaign wrote the golden artifacts: a speedup
that changed the results is not a speedup."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "campaign_digests.json"


@pytest.mark.parametrize("record", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_artifacts_match_golden_digests(record):
    want = json.loads(_GOLDEN_DIGESTS.read_text())["cacheset"]
    assert json.loads(record.read_text())["artifact_sha256"] == want
