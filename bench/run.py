"""leakscope benchmark: one workload per fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the repository root or anywhere else: the program is imported from
`src/` and the oracles from `tests/` next to this directory. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. `--workload all` runs every workload, each in its
own process, and prints one such object per workload. See README.md for
the workloads, the metrics and what they should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

LAYER_TIMES = (
    "corpus.load_dut", "design.parse_design", "meg.build_megs", "meg.enumerate_meps",
    "coverage.path_condition", "simulator.compile_design", "simulator.simulate",
    "fuzz.covered_items", "coverage.match_coverage", "leakage.analyze",
    "diagnose.diagnose", "vcd.write_vcd", "vcd.load_vcd", "fuzz.mutate",
    "reports.render", "coverage.emit_sva", "coverage.sva_lint", "coverage.replay_sva",
)
LAYER_CALLS = (
    "coverage.match_coverage", "fuzz.covered_items", "simulator.simulate", "diagnose.diagnose",
)
LAYER_COUNTS = (
    "coverage.verdicts", "coverage.newly_covered", "simulator.cycles", "simulator.truncated",
    "vcd.bytes", "leakage.findings", "meg.paths",
)
GLUE = "fuzz.other"  # fuzz_loop's own time: loop glue, hashing, deduplication


def load_program() -> None:
    """Put the checkout's `src/` and `tests/` first on the path; refuse to
    run without them rather than pick up another copy of the program."""
    src, tests = ROOT / "src", ROOT / "tests"
    needed = [src / "leakscope" / "__init__.py", tests / "reference_sim.py", tests / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"bench/run.py: missing {', '.join(missing)}; run from a full checkout")
    sys.path[:0] = [str(src), str(tests)]
    import leakscope

    if Path(leakscope.__file__).resolve().parent != (src / "leakscope").resolve():
        sys.exit(f"bench/run.py: imported leakscope from {leakscope.__file__}, not {src}")


def install_tracer(api):
    import leakscope.corpus
    import leakscope.fuzz
    from tracer import Tracer

    def sims(bundle, args, kwargs, counts):
        counts["simulator.cycles"] += bundle.cycles
        counts["simulator.truncated"] += bundle.max_cycles_reached

    def matched(fragment, args, kwargs, counts):
        conditions = args[1] if len(args) > 1 else kwargs["conditions"]
        counts["coverage.verdicts"] += len(conditions)
        counts["coverage.newly_covered"] += len(fragment.covered)

    def paths(result, args, kwargs, counts):
        counts["meg.paths"] += len(result.paths)

    def vcd_bytes(text, args, kwargs, counts):
        counts["vcd.bytes"] += len(text)

    def findings(result, args, kwargs, counts):
        counts["leakage.findings"] += len(result)

    tracer = Tracer()
    fuzz = leakscope.fuzz
    # Where the program itself looks the layers up ...
    for owner, attr, layer, count in (
        (leakscope.corpus, "parse_design", "design.parse_design", None),
        (fuzz, "compile_design", "simulator.compile_design", None),
        (fuzz, "enumerate_meps", "meg.enumerate_meps", paths),
        (fuzz, "path_condition", "coverage.path_condition", None),
        (fuzz, "simulate", "simulator.simulate", sims),
        (fuzz, "match_coverage", "coverage.match_coverage", matched),
        (fuzz, "analyze", "leakage.analyze", findings),
        (fuzz, "diagnose", "diagnose.diagnose", None),
        (fuzz, "structural_mutate", "fuzz.mutate", None),
        (fuzz, "operand_mutate", "fuzz.mutate", None),
        (fuzz, "random_stimulus", "fuzz.mutate", None),
        (fuzz.CoverageProbes, "covered_items", "fuzz.covered_items", None),
        # ... and where the benchmark does.
        (api, "load_dut", "corpus.load_dut", None),
        (api, "parse_design", "design.parse_design", None),
        (api, "build_megs", "meg.build_megs", None),
        (api, "enumerate_meps", "meg.enumerate_meps", paths),
        (api, "path_condition", "coverage.path_condition", None),
        (api, "compile_design", "simulator.compile_design", None),
        (api, "simulate", "simulator.simulate", sims),
        (api, "analyze", "leakage.analyze", findings),
        (api, "diagnose", "diagnose.diagnose", None),
        (api, "write_vcd", "vcd.write_vcd", vcd_bytes),
        (api, "load_vcd", "vcd.load_vcd", None),
        (api, "match_coverage", "coverage.match_coverage", matched),
        (api, "emit_sva_file", "coverage.emit_sva", None),
        (api, "sva_lint", "coverage.sva_lint", None),
        (api, "replay_sva", "coverage.replay_sva", None),
        (api, "fuzz_loop", GLUE, None),
        (api, "render", "reports.render", None),
    ):
        tracer.wrap(owner, attr, layer, count)
    return tracer


def layer_metrics(run, tracer) -> dict[str, tuple[float, str]]:
    metrics = {f"{layer}.s": (float(tracer.self_s[layer]), "s") for layer in LAYER_TIMES}
    metrics["fuzz.other_s"] = (float(tracer.self_s[GLUE]), "s")
    for layer in LAYER_CALLS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    metrics["coverage.paths_covered"] = (run.layers.get("coverage.paths_covered", 0), "count")
    sim_s = tracer.self_s["simulator.simulate"]
    metrics["simulator.cycles_per_s"] = (
        tracer.counts["simulator.cycles"] / sim_s if sim_s else 0.0, "1/s"
    )
    attributed = tracer.attributed_s(run.windows, GLUE)
    metrics["trace.round_s"] = (statistics.median(e - s for s, e in run.windows), "s")
    metrics["trace.unattributed_s"] = (run.timed_s - attributed, "s")
    metrics["trace.attributed_pct"] = (100.0 * attributed / run.timed_s, "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    api = workloads.make_api()
    tracer = install_tracer(api) if trace else None
    out = OUT / f"{name}-{seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(seed=seed, seconds=seconds, out=out, api=api, tracer=tracer)
    try:
        workloads.WORKLOADS[name](run)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(out, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        metrics = layer_metrics(run, tracer)
        tracer.write(OUT / f"spans-{name}-{seed}.json")
        # Tracing overhead: the same run untraced, in its own fresh process.
        plain = child_result(name, seed, seconds, trace=False, echo=False)
        plain_rate = plain["metrics"]["items_per_s"]["value"]
        metrics["trace.overhead_pct"] = (
            100.0 * (plain_rate / statistics.median(run.rates) - 1.0), "%"
        )
    else:
        metrics = {
            "setup_s": (statistics.median(run.setup), "s"),
            "items_per_s": (statistics.median(run.rates), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    print(f"workload {name} seed {seed}: {len(run.windows)} timed sections, "
          f"{run.timed_s:.3f} s timed, {run.attempted} attempted, {run.failed} failed")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(run.problems) > 20:
        print(f"  ... {len(run.problems) - 20} more failed checks")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def child_result(name: str, seed: int, seconds: float, trace: bool, echo: bool = True) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    load_program()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="feed every correctness check a corrupted result")
    args = p.parse_args(argv)
    if not args.self_check and not args.workload:
        p.error("give --workload or --self-check")

    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.workload == "all":
        results = {
            name: child_result(name, args.seed, args.seconds, bool(args.trace))
            for name in workloads.WORKLOADS
        }
        print(json.dumps(results, sort_keys=True))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
