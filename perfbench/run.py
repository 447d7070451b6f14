"""edforecast benchmark: drives the public CLI (``edforecast.cli.main``)
over the workloads defined in workloads.py and prints the metrics named in
BENCHMARK.json.

    python3 perfbench/run.py --workload forecast --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-check            # the output checks catch corruption
    python3 perfbench/run.py --record-expected       # re-record expected.json

Run from anywhere; the repository root is this file's parent directory.
Each workload runs in one fresh worker interpreter.  ``--trace 0``
reports the end-to-end metrics of untraced passes; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
``setup_s`` is the median, over fresh interpreters started one before each
pass (at least 10), of the time to import ``edforecast.cli`` and write the
workload's configs.  ``wall_ref`` and ``cpu_ref`` are the medians, over
untraced passes, of the pass's wall and CPU time divided by the time of the
workload's hostspeed kernel, timed right before and after the pass: on a
shared host those ratios hold still while the raw seconds (``wall_s``,
``cpu_s``) swing with the neighbours' load.  The last line
of standard output is one JSON object; the lines before it are for people.
Exits 2, without a result, when the repository's ``src/edforecast`` or
BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
WORKLOADS = tuple(workloads.WHY)
TIME_LIMIT_S = 170.0  # a run must end within 180 s
COMPUTED = ("network.dense_macs", "network.nnz_macs", "network.peak_dense_entries")


class BenchError(RuntimeError):
    pass


def _worker(mode, work: Path, timeout, *extra):
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    work = WORK / name / "run"
    work.mkdir(parents=True)
    _worker("run", work, deadline - time.perf_counter(), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace))
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def metric_values(result) -> dict:
    """Every metric BENCHMARK.json names, by name."""
    values = {"setup_s": result["setup_s"], "wall_s": result["wall_s"],
              "cpu_s": result["cpu_s"], "wall_ref": result["wall_ref"],
              "cpu_ref": result["cpu_ref"], "peak_rss_mb": result["peak_rss_mb"],
              "ops": result["ops"], "ops_failed": result["failed"],
              "cli.bytes_out": result["cli.bytes_out"]}
    for metric in workloads.COMMAND_METRICS:
        values[metric] = result["commands"].get(metric, 0.0)
    if "layers" in result:
        values.update(result["layers"])
        values["trace.overhead"] = result["trace_overhead"]
    return values


def report(name, result, spec, trace) -> dict:
    values = metric_values(result)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    print(f"== workload {name}: {result['passes']} untraced and "
          f"{result['traced_passes']} traced passes")
    print("environment: " + json.dumps(result["env"], sort_keys=True))
    for m in group:
        note = " (computed from array shapes, not measured traffic)" if m["name"] in COMPUTED else ""
        print(f"  {m['name']:32s} {values[m['name']]:>16.6g} {m['unit']}{note}")
    print("  samples: setup_s " + " ".join(f"{v:.4g}" for v in result["setup_samples"])
          + "; wall_s per untraced pass " + " ".join(f"{v:.4g}" for v in result["pass_walls"]))
    print(f"  reference kernel {workloads.REFERENCE[name]}: median {result['ref_s']:.4g} s; "
          "per untraced pass " + " ".join(f"{v:.4g}" for v in result["pass_refs"]))
    if not trace:
        print("  per command (untraced medians): " + ", ".join(
            f"{k}={v:.4g} s" for k, v in sorted(result["commands"].items())))
    for line in result["failures"]:
        print(f"  FAILED {line}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    if not (ROOT / "src" / "edforecast" / "cli.py").is_file():
        print(f"error: no edforecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        print(f"error: {bench_json} is missing", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    deadline = start + TIME_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)

    try:
        if args.self_check or args.record_expected:
            mode = "selfcheck" if args.self_check else "record"
            return subprocess.run([sys.executable, str(WORKER), "--mode", mode,
                                   "--work", str(WORK / mode)]).returncode
        print(f"git commit: {git_commit()}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed, correct = {}, 0, 0, True
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            shown = report(name, result, spec, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in shown.items()})
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and not result["failures"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
