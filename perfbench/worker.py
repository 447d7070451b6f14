"""Benchmark worker: runs one workload through ``edforecast.cli.main`` in a
fresh interpreter and writes its measurements to ``<work>/result.json``.

run.py starts it; it is not meant to be run by hand.  Modes:

* ``setup``: import ``edforecast.cli`` and write the workload's configs;
  the ``run`` mode starts one before each pass and times it from process
  start to exit.
* ``run``: repeat passes of the workload until ``--seconds`` have elapsed.
  With ``--trace 1`` untraced and traced passes alternate.
* ``selfcheck``: corrupt one output of each kind and show that the checks
  count it as failed.
* ``record``: recompute the rates tables stored in ``expected.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_cli():
    import edforecast
    import edforecast.cli as cli

    if Path(edforecast.__file__).resolve().parent != (SRC / "edforecast").resolve():
        raise SystemExit(f"edforecast imported from {edforecast.__file__}, not from {SRC}")
    return cli


def write_configs(wl, d: Path):
    for cmd in wl.commands:
        (d / f"{cmd.name}.json").write_text(json.dumps(cmd.config, indent=1), encoding="utf-8")


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cli, wl, d: Path, ctx) -> dict:
    """One pass: every command of the workload, timed, then checked."""
    d.mkdir(parents=True)
    write_configs(wl, d)
    os.chdir(d)
    results = []
    try:
        cpu0 = _cpu_seconds()
        for cmd in wl.commands:
            log = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rc = cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash of the program under test is a failed command
                rc = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            results.append((cmd, rc, time.perf_counter() - t0))
        cpu = _cpu_seconds() - cpu0
    finally:
        os.chdir(ROOT)
    per_metric = {}
    for cmd, _, dt in results:
        per_metric[cmd.metric] = per_metric.get(cmd.metric, 0.0) + dt
    return {
        "wall": sum(dt for _, _, dt in results),
        "cpu": cpu,
        "commands": per_metric,
        "problems": {cmd.name: checks.check_command(cmd, rc, d, ctx) for cmd, rc, _ in results},
        "digests": {cmd.name: checks.digests(cmd, d) for cmd in wl.commands},
        "bytes_out": sum((d / out).stat().st_size for cmd in wl.commands
                         for out in cmd.outputs if (d / out).is_file()),
    }


def load_ctx():
    return {"rates": json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["rates"]}


def blas_info():
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (KeyError, TypeError):
        pass
    # thread count from the loaded OpenBLAS itself
    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def environment(wl) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": wl.name,
        "seed": wl.seed,
        "derived_seeds": wl.seeds,
        "why": workloads.WHY[wl.name],
    }


SETUP_MIN = 10  # set-up samples per run, at least


def setup_sample(wl, work: Path, i: int) -> float:
    """Wall time of a fresh interpreter that imports the CLI and writes the
    workload's configs."""
    d = work / f"setup{i}"
    d.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--mode", "setup", "--work", str(d),
           "--workload", wl.name, "--seed", str(wl.seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(cli, wl, work: Path, seconds: float, trace: bool) -> dict:
    ctx = load_ctx()
    kernel = workloads.REFERENCE[wl.name]
    tracer = tracing.Tracer()
    plain, traced, failures, setup = [], [], [], []
    attempted = failed = 0
    reference = None
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline or (trace and not traced):
        is_traced = trace and k % 2 == 1
        # one set-up sample per pass, so that their median spans the same
        # stretch of machine time as the passes
        setup.append(setup_sample(wl, work, k))
        gc.collect()  # so that no pass pays for the garbage of the one before
        hostspeed.time_kernel(kernel)  # wakes the BLAS threads that slept during set-up
        ref0 = hostspeed.time_kernel(kernel)
        if is_traced:
            tracer.reset()
            tracer.install()
        try:
            p = run_pass(cli, wl, work / f"pass{k}", ctx)
        finally:
            tracer.uninstall()
        p["ref"] = (ref0 + hostspeed.time_kernel(kernel)) / 2
        if reference is None:
            reference = p["digests"]
        for cmd in wl.commands:
            problems = p["problems"][cmd.name]
            if p["digests"][cmd.name] != reference[cmd.name]:
                problems.append("artifacts differ from the first pass")
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"pass {k} {'traced' if is_traced else 'untraced'} "
                                f"{cmd.name}: {'; '.join(problems)}")
        if is_traced:
            p["layers"] = tracing.layer_metrics(tracer.spans)
            p["layers"]["cli.bytes_out"] = p["bytes_out"]
            for name, want in wl.exact_counts.items():
                if p["layers"][name] != want:
                    failures.append(f"pass {k} count {name} = {p['layers'][name]}, "
                                    f"derived from the config: {want}")
            traced.append(p)
        else:
            plain.append(p)
        k += 1

    while len(setup) < SETUP_MIN:
        setup.append(setup_sample(wl, work, len(setup)))

    result = {
        "setup_samples": setup,
        "setup_s": _median(setup),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pass_walls": [p["wall"] for p in plain],
        "pass_refs": [p["ref"] for p in plain],
        "wall_s": _median([p["wall"] for p in plain]),
        "cpu_s": _median([p["cpu"] for p in plain]),
        "ref_s": _median([p["ref"] for p in plain]),
        "wall_ref": _median([p["wall"] / p["ref"] for p in plain]),
        "cpu_ref": _median([p["cpu"] / p["ref"] for p in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": len(wl.commands),
        "commands": {m: _median([p["commands"][m] for p in plain])
                     for m in plain[0]["commands"]},
        "cli.bytes_out": plain[0]["bytes_out"],
    }
    if trace:
        result["layers"] = {name: _median([p["layers"][name] for p in traced])
                            for name in traced[0]["layers"]}
        result["trace_overhead"] = (_median([p["wall"] / p["ref"] for p in traced])
                                    / result["wall_ref"] - 1.0)
    return result


def record(cli, work: Path):
    """Recompute every rates table the rates workload can produce."""
    tables = {}
    for variant in range(len(workloads.RATE_X_MIN_EXPONENTS)):
        for kind, spec in workloads.RATE_KINDS:
            d = work / f"v{variant}_{kind}"
            d.mkdir(parents=True)
            (d / "cfg.json").write_text(json.dumps(workloads.rate_config(spec, variant)))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["rates", "--config", str(d / "cfg.json"), "--out", str(d)])
            if rc != 0:
                raise SystemExit(f"rates {kind} variant {variant} exited {rc}")
            lam = [[float(v) for v in row] for row in checks.csv_rows(d / "lambda.csv")]
            rates = [[int(n), int(N), float(r), float(b)]
                     for n, N, r, b in checks.csv_rows(d / "rates.csv")]
            tables.setdefault(str(variant), {})[kind] = {"lambda": lam, "rates": rates}
    doc = {"note": "rates tables recorded from the CLI; regenerate with "
                   "python3 perfbench/run.py --record-expected",
           "rates": tables}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run", "selfcheck", "record"], required=True)
    ap.add_argument("--workload", default="forecast")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    work = Path(args.work).resolve()
    cli = import_cli()
    if args.mode == "setup":
        wl = workloads.build(args.workload, args.seed)
        write_configs(wl, work)
        return 0
    if args.mode == "record":
        record(cli, work)
        return 0
    if args.mode == "selfcheck":
        import selfcheck
        return selfcheck.run(cli, work, load_ctx())
    wl = workloads.build(args.workload, args.seed)
    result = measure(cli, wl, work, args.seconds, bool(args.trace))
    result["env"] = environment(wl)
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
