"""Command-line front end for the full pipeline.

Exit codes: 0 success, 1 usage error, 2 analysis error, 3 when analysis or
fuzzing produced at least one finding and --fail-on-finding was set (CI
gate). Machine-readable output goes to --out paths; stdout stays human.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .coverage import (
    CoverageReport,
    ModuleCoverage,
    PathTrie,
    emit_sva_file,
    match_coverage,
    path_condition,
    sva_lint,
)
from .design import ast_to_json, levelize, parse_design
from .diagnose import diagnose
from .errors import LeakscopeError
from .fuzz import FuzzConfig, fuzz_loop
from .leakage import analyze, measure
from .meg import (
    DEFAULT_MAX_LEN,
    DEFAULT_MAX_PATHS,
    build_megs,
    enumerate_meps,
    export_dot,
    export_json,
)
from .reports import (
    Format,
    coverage_report_csv,
    coverage_report_json,
    diagnoses_json,
    findings_json,
    render,
    text_report,
)
from .simulator import DEFAULT_MAX_CYCLES, DEFAULT_QUIESCENCE, InitPolicy, simulate
from .stimulus import load_stimulus
from .vcd import load_vcd_file, save_vcd

_CONFIG_KEYS = ("mutantsPerSeed", "maxRounds", "timeBudget")


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; analysis problems exit 2 (mapped in main).
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sources", nargs="*", help="HDL source files")
    p.add_argument("--dut", help="use a bundled DUT instead of source files")
    p.add_argument("--top", help="top module name")


def _read_text(path: str | Path) -> str:
    """The text of an input file, with line breaks read as `Path.read_text`
    reads them; a file that is not UTF-8 is an error that names the file
    and the line and column of the first bad byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        col = exc.start - line_start + 1
        raise LeakscopeError(f"{path}:{line}:{col}: not UTF-8 text: {exc}")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_design(args, paths: list[str]):
    """The hierarchy, bundled profile (or None) and source references of
    `--dut` or of the HDL files at `paths`."""
    if args.dut:
        dut = corpus_mod.load_dut(args.dut)
        root = Path(corpus_mod._corpus_root()) / args.dut
        refs = tuple(
            (str(root / name), digest)
            for name, digest in corpus_mod.source_digest(dut.sources).items()
        )
        return dut.hierarchy, dut.profile, refs
    if not paths:
        raise LeakscopeError("no source files given (or use --dut)")
    sources = [(Path(p).name, _read_text(p)) for p in paths]
    digests = corpus_mod.source_digest(sources)
    refs = tuple((str(Path(p)), digests[Path(p).name]) for p in paths)
    h = parse_design(sources, top=args.top)
    return h, None, refs


def _parse_duration(text: str) -> float:
    text = text.strip().lower()
    try:
        if text.endswith("ms"):
            return float(text[:-2]) / 1000.0
        if text.endswith("s"):
            return float(text[:-1])
        if text.endswith("m"):
            return float(text[:-1]) * 60.0
        return float(text)
    except ValueError:
        raise LeakscopeError(f"invalid duration {text!r}; expected e.g. 60s, 500ms or 2m")


def _init_policy(args) -> InitPolicy:
    if args.init == "random":
        return InitPolicy.random(args.init_seed)
    return InitPolicy.zero()


def build_parser() -> _Parser:
    root = _Parser(prog="leakscope", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse sources and dump the AST")
    _add_design_args(p)
    p.add_argument("--dump-ast", metavar="OUT", help="write AST JSON here")

    p = sub.add_parser("graph", help="build micro-event graphs and paths")
    _add_design_args(p)
    p.add_argument("--module", help="restrict to one module")
    p.add_argument("--dot", metavar="OUT", help="write DOT here")
    p.add_argument("--json", metavar="OUT", help="write graph JSON here")
    p.add_argument("--meps", action="store_true", help="list input-to-output paths")
    p.add_argument("--max-paths", type=int, default=DEFAULT_MAX_PATHS)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)

    p = sub.add_parser("sim", help="simulate a stimulus and dump traces")
    _add_design_args(p)
    p.add_argument("--stim", required=True, help="stimulus JSON file")
    p.add_argument("--vcd", metavar="OUT", help="write a VCD here")
    p.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--quiescence", type=int, default=DEFAULT_QUIESCENCE)
    p.add_argument("--init", choices=["zero", "random"], default="zero")
    p.add_argument("--init-seed", type=int, default=0)

    p = sub.add_parser("analyze", help="leakage analysis over a run pair")
    _add_design_args(p)
    p.add_argument("--stim-a", help="first stimulus (simulated)")
    p.add_argument("--stim-b", help="second stimulus (simulated)")
    p.add_argument("--vcd-a", help="first run as VCD")
    p.add_argument("--vcd-b", help="second run as VCD")
    p.add_argument("--min-delta", type=int, default=1)
    p.add_argument("--init", choices=["zero", "random"], default="zero")
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--out", help="write findings JSON here")
    p.add_argument("--fail-on-finding", action="store_true")

    p = sub.add_parser("diagnose", help="localize a timing difference")
    p.add_argument("vcd_a", help="first run (VCD)")
    p.add_argument("vcd_b", help="second run (VCD)")
    p.add_argument("--design", action="append", default=[], help="HDL source file")
    p.add_argument("--dut", help="use a bundled DUT")
    p.add_argument("--top", help="top module name")
    p.add_argument("--module", help="module whose instance to diagnose")
    p.add_argument("--instance", help="instance path to diagnose")
    p.add_argument("--all-levels", action="store_true",
                   help="diagnose every instance, not just the deepest")
    p.add_argument("--out", help="write diagnosis JSON here")

    p = sub.add_parser("coverage", help="emit cover properties, match traces")
    _add_design_args(p)
    p.add_argument("--stim", action="append", default=[], help="stimulus to run")
    p.add_argument("--emit-sva", metavar="OUT", help="write SVA properties here")
    p.add_argument("--out", help="write coverage JSON here")
    p.add_argument("--csv", metavar="OUT", help="write per-module coverage CSV here")
    p.add_argument("--max-paths", type=int, default=DEFAULT_MAX_PATHS)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)

    p = sub.add_parser("fuzz", help="run a full campaign")
    _add_design_args(p)
    p.add_argument("--profile", help="DUT profile JSON (tags + data inputs)")
    p.add_argument("--budget", default=None,
                   help=f"wall-clock abort bound (default {FuzzConfig.time_budget:g}s)")
    p.add_argument("--seed", type=int, default=0, help="campaign rng seed")
    p.add_argument("--mutants", type=int, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed-dir", help="directory of stimulus JSON seed files")
    p.add_argument("--config", help="campaign config JSON file")
    p.add_argument("--out", help="output directory for campaign artifacts")
    p.add_argument("--fail-on-finding", action="store_true")

    p = sub.add_parser("report", help="render campaign artifacts")
    p.add_argument("campaign_dir", help="directory written by fuzz --out")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--out", help="write the report here instead of stdout")

    return root


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    h, _, _ = _load_design(args, args.sources)
    print(f"parsed {len(h.modules)} module(s), top = {h.top}")
    for group in levelize(h):
        for path in group:
            inst = h.instance(path)
            print(f"  level {inst.level}: {path} ({inst.module_name})")
    if args.dump_ast:
        Path(args.dump_ast).write_text(ast_to_json(h) + "\n")
        print(f"AST written to {args.dump_ast}")
    return 0


def _cmd_graph(args) -> int:
    h, _, _ = _load_design(args, args.sources)
    megs = build_megs(h.modules)
    names = [args.module] if args.module else sorted(megs)
    dots = []
    jsons = []
    for name in names:
        if name not in megs:
            raise LeakscopeError(f"no module {name!r} in design")
        g = megs[name]
        print(f"{name}: {len(g.nodes)} nodes, {len(g.edges)} edges")
        if args.dot:
            dots.append(export_dot(g))
        if args.json:
            jsons.append(export_json(g))
        if args.meps:
            result = enumerate_meps(g, args.max_paths, args.max_len)
            flag = " (truncated)" if result.truncated else ""
            print(f"  {len(result.paths)} micro-event paths{flag}")
            for path in result.paths:
                print(f"    {path}")
    if args.dot:
        Path(args.dot).write_text("\n".join(dots))
        print(f"DOT written to {args.dot}")
    if args.json:
        Path(args.json).write_text(json.dumps(jsons, indent=2) + "\n")
        print(f"graph JSON written to {args.json}")
    return 0


def _cmd_sim(args) -> int:
    h, _, _ = _load_design(args, args.sources)
    stim = load_stimulus(args.stim)
    bundle = simulate(
        h, stim, max_cycles=args.max_cycles, init=_init_policy(args),
        quiescence_window=args.quiescence,
    )
    flag = " (max cycles reached)" if bundle.max_cycles_reached else ""
    print(f"simulated {bundle.cycles} cycles{flag}, start at {bundle.start_cycle}")
    for path in bundle.instances():
        t = measure(bundle, path)
        print(f"  {path}: execution time {t.cycles} cycles")
    if args.vcd:
        save_vcd(bundle, args.vcd)
        print(f"VCD written to {args.vcd}")
    return 0


def _cmd_analyze(args) -> int:
    h, _, _ = _load_design(args, args.sources)
    if args.vcd_a and args.vcd_b:
        a = load_vcd_file(args.vcd_a)
        b = load_vcd_file(args.vcd_b)
    elif args.stim_a and args.stim_b:
        init = _init_policy(args)
        a = simulate(h, load_stimulus(args.stim_a), init=init, seed_id="a")
        b = simulate(h, load_stimulus(args.stim_b), init=init, seed_id="b")
    else:
        raise LeakscopeError("need --stim-a/--stim-b or --vcd-a/--vcd-b")
    findings = analyze([(a, b)], h, min_delta=args.min_delta)
    for f in findings:
        marker = "*" if f.first_leaky_level else " "
        print(
            f"{marker} {f.instance_path}: {f.time_a} vs {f.time_b} cycles "
            f"(delta {f.delta})"
        )
    if not findings:
        print("no timing differences")
    if args.out:
        Path(args.out).write_text(findings_json(findings) + "\n")
    if findings and args.fail_on_finding:
        return 3
    return 0


def _cmd_diagnose(args) -> int:
    h, _, _ = _load_design(args, args.design)
    megs = build_megs(h.modules)
    a = load_vcd_file(args.vcd_a, expect=h)
    b = load_vcd_file(args.vcd_b, expect=h)

    if args.instance:
        targets = [args.instance]
    elif args.module:
        targets = [i.path for i in h.instances if i.module_name == args.module]
        if not targets:
            raise LeakscopeError(f"no instance of module {args.module!r}")
    elif args.all_levels:
        targets = [path for group in levelize(h) for path in group]
    else:
        targets = [h.top]

    rows = []
    for path in targets:
        module = h.instance(path).module_name
        diag = diagnose(a.trace(path), b.trace(path), megs[module])
        rows.append((path, args.vcd_a, args.vcd_b, diag))
        print(f"{path}: divergence at cycle {diag.divergence_cycle}")
        print(f"  instigators: {', '.join(sorted(diag.instigators))}")
        for signal, loc in sorted(diag.culprits, key=lambda c: (c[1].line, c[0])):
            print(f"  culprit {signal} at {loc.file}:{loc.line}")
    if args.out:
        Path(args.out).write_text(diagnoses_json(rows) + "\n")
    return 0


def _cmd_coverage(args) -> int:
    h, _, _ = _load_design(args, args.sources)
    megs = build_megs(h.modules)
    conditions = {}
    truncated = {}
    for name, g in megs.items():
        result = enumerate_meps(g, args.max_paths, args.max_len)
        conditions[name] = [path_condition(p, g) for p in result.paths]
        truncated[name] = result.truncated
    if args.emit_sva:
        chunks = [emit_sva_file(conditions[name], name) for name in sorted(conditions)]
        text = "\n".join(chunks)
        problems = sva_lint(text)
        if problems:
            raise LeakscopeError("emitted SVA failed lint: " + "; ".join(problems))
        Path(args.emit_sva).write_text(text)
        print(f"SVA properties written to {args.emit_sva}")

    if args.stim:
        report = CoverageReport()
        tries = {}
        for name in megs:
            report.add(ModuleCoverage(name, len(conditions[name]), set(), truncated[name]))
            tries[name] = PathTrie((pc.path_id, pc.steps) for pc in conditions[name])
        for stim_path in args.stim:
            bundle = simulate(h, load_stimulus(stim_path))
            for inst in h.instances:
                name = inst.module_name
                report.add(match_coverage(
                    bundle, tries[name], megs[name], inst.path, truncated=truncated[name]
                ))
        for name, m in sorted(report.per_module.items()):
            print(f"{name}: {m.covered_paths}/{m.total_paths} ({m.percent:.2f}%)")
        print(f"overall: {report.overall_percent:.2f}%")
        if args.out:
            Path(args.out).write_text(coverage_report_json(report) + "\n")
        if args.csv:
            Path(args.csv).write_text(coverage_report_csv(report))
    return 0


def _load_config(path: str) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError
        raise LeakscopeError(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise LeakscopeError(f"{path}: invalid JSON: nested too deeply")
    if not isinstance(doc, dict):
        raise LeakscopeError(f"{path}: campaign config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise LeakscopeError(
            f"{path}: unknown config key(s) {', '.join(unknown)}; "
            f"expected {', '.join(_CONFIG_KEYS)}"
        )
    for key in ("mutantsPerSeed", "maxRounds"):
        if key in doc and (type(doc[key]) is not int or doc[key] < 1):
            raise LeakscopeError(f"{path}: {key} must be a positive integer")
    return doc


def _cmd_fuzz(args) -> int:
    h, profile, refs = _load_design(args, args.sources)
    if args.profile:
        text = _read_text(args.profile)
        try:
            profile = corpus_mod.DutProfile.from_json(text)
        except LeakscopeError as exc:
            raise LeakscopeError(f"{args.profile}: {exc}")
    if profile is None:
        raise LeakscopeError("fuzzing needs --profile (or --dut with a bundled profile)")

    config_doc = _load_config(args.config) if args.config else {}
    for flag, value in (("--mutants", args.mutants), ("--rounds", args.rounds)):
        if value is not None and value < 1:
            raise LeakscopeError(f"{flag} must be a positive integer")

    def setting(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in config_doc:
            return config_doc[key]
        return default

    # Precedence: flags > config file > built-in defaults.
    default = FuzzConfig()
    cfg = FuzzConfig(
        mutants_per_seed=setting(args.mutants, "mutantsPerSeed", default.mutants_per_seed),
        rng_seed=args.seed,
        time_budget=_parse_duration(str(setting(args.budget, "timeBudget", default.time_budget))),
        max_rounds=setting(args.rounds, "maxRounds", default.max_rounds),
    )

    seed_corpus = []
    if args.seed_dir:
        if not Path(args.seed_dir).is_dir():
            raise LeakscopeError(f"{args.seed_dir}: not a directory")
        for path in sorted(Path(args.seed_dir).glob("*.json")):
            seed_corpus.append(load_stimulus(path))

    megs = build_megs(h.modules)
    result = fuzz_loop(h, megs, cfg, profile, seed_corpus or None, source_refs=refs)
    print(
        f"campaign done: {len(result.seeds)} seeds, {result.sims} sims, "
        f"{len(result.findings)} findings, stop: {result.stop_reason}"
    )
    if args.out:
        for fmt in (Format.JSON, Format.CSV, Format.DOT, Format.TEXT):
            render(result, fmt, args.out)
        print(f"artifacts written to {args.out}")
    else:
        sys.stdout.write(text_report(result))
    if result.findings and args.fail_on_finding:
        return 3
    return 0


def _cmd_report(args) -> int:
    name = "coverage.csv" if args.format == "csv" else "summary.txt"
    text = _read_text(Path(args.campaign_dir) / name)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "graph": _cmd_graph,
    "sim": _cmd_sim,
    "analyze": _cmd_analyze,
    "diagnose": _cmd_diagnose,
    "coverage": _cmd_coverage,
    "fuzz": _cmd_fuzz,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except LeakscopeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
