"""Campaign rendering: JSON artifacts, CSV coverage, DOT graphs, text.

Rendering is a pure function of the CampaignResult: wall-clock fields are
kept out of every artifact so repeated campaigns with equal configs produce
byte-identical files. Culprit source lines are quoted in the text report by
re-reading the original files; if a file moved or changed (hash mismatch),
the report degrades to line numbers only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from enum import Enum
from pathlib import Path

from .diagnose import Diagnosis
from .errors import LeakscopeError
from .fuzz import STALL_ROUNDS, STRUCTURAL_OPS, CampaignResult
from .leakage import LeakageFinding
from .meg import export_dot
from .stimulus import stimulus_to_json

SCHEMA_VERSION = 1


class Format(Enum):
    TEXT = "text"
    JSON = "json"
    CSV = "csv"
    DOT = "dot"


def summary_to_json(result: CampaignResult) -> str:
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "designName": result.design_name,
        "seedsCount": len(result.seeds),
        "mutantsCount": result.mutant_sims,
        "findingsCount": len(result.findings),
        "diagnosesCount": len(result.diagnoses),
        "coverageRows": [
            {
                "module": name,
                "totalPaths": m.total_paths,
                "coveredPaths": m.covered_paths,
                "truncated": m.truncated,
            }
            for name, m in sorted(result.coverage.per_module.items())
        ],
        "timingRows": [
            {
                "vulnerability": f"{run_a} vs {run_b}",
                "instance": instance,
                "lines": sorted(diag.culprit_lines),
                "phase1Signals": sorted(diag.instigators),
                "phase2Signals": sorted(diag.culprit_signals),
            }
            for instance, run_a, run_b, diag in result.diagnoses
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------

def finding_to_json(f: LeakageFinding) -> dict:
    return {
        "instance": f.instance_path,
        "level": f.level,
        "runA": f.run_a,
        "runB": f.run_b,
        "timeA": f.time_a,
        "timeB": f.time_b,
        "delta": f.delta,
        "firstLeakyLevel": f.first_leaky_level,
    }


def diagnosis_to_json(instance: str, run_a: str, run_b: str, d: Diagnosis) -> dict:
    return {
        "instance": instance,
        "runA": run_a,
        "runB": run_b,
        "instigators": sorted(d.instigators),
        "divergenceCycle": d.divergence_cycle,
        "culprits": [
            {"signal": signal, "file": loc.file, "line": loc.line}
            for signal, loc in sorted(d.culprits, key=lambda c: (c[0], c[1].file, c[1].line))
        ],
        "frontier": [list(layer) for layer in d.frontier_trace],
    }


def findings_json(findings: list[LeakageFinding]) -> str:
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "findings": [finding_to_json(f) for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def diagnoses_json(rows: list[tuple[str, str, str, Diagnosis]]) -> str:
    """The document for (instance, run A, run B, diagnosis) rows."""
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "diagnoses": [diagnosis_to_json(inst, ra, rb, d) for inst, ra, rb, d in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def coverage_report_json(report) -> str:
    """The per-module JSON document for any CoverageReport."""
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "perModule": {
            name: {
                "totalPaths": m.total_paths,
                "coveredPaths": m.covered_paths,
                "truncated": m.truncated,
            }
            for name, m in sorted(report.per_module.items())
        },
        "overallPercent": round(report.overall_percent, 4),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def campaign_json(result: CampaignResult) -> str:
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "designName": result.design_name,
        "config": {
            "mutantsPerSeed": result.config.mutants_per_seed,
            "rngSeed": result.config.rng_seed,
            "maxRounds": result.config.max_rounds,
            # The fixed parameters, so the artifact says how it was made.
            "stallRounds": STALL_ROUNDS,
            "structuralOps": list(STRUCTURAL_OPS),
            "coverageMetric": "both",
            "minDelta": 1,
        },
        "rounds": result.rounds,
        "sims": result.sims,
        "mutantSims": result.mutant_sims,
        "stopReason": result.stop_reason,
        "abortedByWallclock": result.aborted_by_wallclock,
        "seeds": [
            {"id": s.id, "newCoverage": sorted(s.new_coverage)} for s in result.seeds
        ],
        "codeItemsCovered": len(result.code_items),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def coverage_report_csv(report) -> str:
    """Per-module CSV rows for any CoverageReport."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["module", "total_paths", "covered_paths", "percent", "truncated"])
    for name, m in sorted(report.per_module.items()):
        pct = f"{m.percent:.2f}"
        writer.writerow([name, m.total_paths, m.covered_paths, pct, int(m.truncated)])
    return buf.getvalue()


def coverage_csv(result: CampaignResult) -> str:
    return coverage_report_csv(result.coverage)


# ---------------------------------------------------------------------------
# Source quoting
# ---------------------------------------------------------------------------

class _SourceQuoter:
    def __init__(self, source_refs: tuple[tuple[str, str], ...]):
        self._lines: dict[str, list[str]] = {}
        self._stale: set[str] = set()
        for path, digest in source_refs:
            p = Path(path)
            name = p.name
            try:
                text = p.read_text()
            except (OSError, UnicodeDecodeError):
                self._stale.add(name)
                continue
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                self._stale.add(name)
                continue
            # Lines as the lexer counts them: only "\n" ends one.
            self._lines[name] = text.split("\n")

    def quote(self, file: str, line: int) -> str | None:
        name = Path(file).name
        lines = self._lines.get(name)
        if lines is None or not (1 <= line <= len(lines)):
            return None
        return lines[line - 1].strip()


def text_report(result: CampaignResult) -> str:
    quoter = _SourceQuoter(result.source_refs)
    out: list[str] = []
    out.append(f"== campaign: {result.design_name} ==")
    out.append(
        f"seeds {len(result.seeds)}  mutants {result.mutant_sims}  "
        f"findings {len(result.findings)}  diagnoses {len(result.diagnoses)}  "
        f"stop: {result.stop_reason}"
    )
    out.append("")
    out.append("-- timing findings --")
    if not result.findings:
        out.append("(none)")
    for f in result.findings:
        marker = "*" if f.first_leaky_level else " "
        out.append(
            f"{marker} {f.instance_path} (level {f.level}): "
            f"{f.time_a} vs {f.time_b} cycles (delta {f.delta}) "
            f"[{f.run_a} / {f.run_b}]"
        )
    out.append("")
    out.append("-- diagnoses --")
    if not result.diagnoses:
        out.append("(none)")
    for instance, run_a, run_b, diag in result.diagnoses:
        out.append(f"{instance}: {run_a} vs {run_b}")
        out.append(f"  divergence at cycle {diag.divergence_cycle}")
        out.append(f"  instigators: {', '.join(sorted(diag.instigators))}")
        for signal, loc in sorted(diag.culprits, key=lambda c: (c[1].file, c[1].line, c[0])):
            quoted = quoter.quote(loc.file, loc.line)
            suffix = f"    {quoted}" if quoted is not None else ""
            out.append(f"  culprit {signal} at {loc.file}:{loc.line}{suffix}")
    out.append("")
    out.append("-- timing coverage --")
    for module, m in sorted(result.coverage.per_module.items()):
        extra = " (truncated)" if m.truncated else ""
        out.append(f"{module}: {m.covered_paths}/{m.total_paths} paths ({m.percent:.2f}%){extra}")
    out.append(f"overall: {result.coverage.overall_percent:.2f}%")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def render(result: CampaignResult, fmt: Format | str, outdir: str | Path) -> list[Path]:
    """Write the artifacts for one format; returns the files written."""
    if isinstance(fmt, str):
        fmt = Format(fmt)
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []

        def emit(name: str, text: str) -> None:
            path = outdir / name
            path.write_text(text)
            written.append(path)

        if fmt is Format.JSON:
            emit("campaign.json", campaign_json(result) + "\n")
            emit("findings.json", findings_json(result.findings) + "\n")
            emit("diagnoses.json", diagnoses_json(result.diagnoses) + "\n")
            emit("coverage.json", coverage_report_json(result.coverage) + "\n")
            emit("summary.json", summary_to_json(result) + "\n")
            seed_dir = outdir / "seeds"
            seed_dir.mkdir(exist_ok=True)
            for seed in result.seeds:
                path = seed_dir / f"{seed.id}.json"
                path.write_text(stimulus_to_json(seed.stimulus) + "\n")
                written.append(path)
        elif fmt is Format.CSV:
            emit("coverage.csv", coverage_csv(result))
        elif fmt is Format.DOT:
            for name, g in sorted(result.megs.items()):
                emit(f"{name}.dot", export_dot(g))
        elif fmt is Format.TEXT:
            emit("summary.txt", text_report(result))
        return written
    except OSError as exc:
        raise LeakscopeError(f"cannot write report: {exc}")
