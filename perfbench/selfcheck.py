"""Self-check of the output checks: runs one pass of each workload, then
corrupts one output of each kind in a copy and asserts that the check of
the command that wrote it reports a problem.

Run it with ``python3 perfbench/run.py --self-check``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import checks
import workloads
from worker import run_pass


def _edit_json(name, edit):
    def corrupt(d: Path):
        doc = json.loads((d / name).read_text(encoding="utf-8"))
        edit(doc)
        (d / name).write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def _edit_csv_cell(name, row, col, edit):
    def corrupt(d: Path):
        lines = (d / name).read_text(encoding="utf-8").splitlines()
        data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
        cells = lines[data[row]].split(",")
        cells[col] = edit(cells[col])
        lines[data[row]] = ",".join(cells)
        (d / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corrupt


def _drop_last_line(name):
    def corrupt(d: Path):
        lines = (d / name).read_text(encoding="utf-8").splitlines()
        (d / name).write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    return corrupt


def _set(key, fn):
    def edit(doc):
        doc[key] = fn(doc)
    return edit


def _sweep_best_not_below_naive(doc):
    doc["best"]["risk"] = doc["naive_risk"] * 2.0


# (workload, command, corruption, what it breaks)
CORRUPTIONS = [
    ("forecast", "sim_seasonal", _drop_last_line("seasonal.csv"), "series row count"),
    ("forecast", "sweep", _edit_json("sweep.summary.json", _sweep_best_not_below_naive),
     "sweep best risk >= naive risk"),
    ("forecast", "sweep", _edit_csv_cell("sweep.csv", 1, 2, lambda v: "nan"),
     "sweep risk not finite"),
    ("forecast", "train_highd", _edit_json("model.meta.json", _set(
        "final_train_risk", lambda doc: float("inf"))), "train risk not finite"),
    ("forecast", "evaluate", _edit_json("metrics.json", _set(
        "empirical_risk", lambda doc: float("nan"))), "evaluate risk not finite"),
    ("certify", "cert_product2_N23", _edit_json("cert_product2_N23.out.json", _set(
        "measured_sup", lambda doc: doc["sup_bound"] * 1.5)), "measured_sup > sup_bound"),
    ("certify", "cert_product2_N23", _edit_json("cert_product2_N23.out.json", _set(
        "measured_lip", lambda doc: doc["lip_bound"] * 1.5)), "measured_lip > lip_bound"),
    ("certify", "cert_linear_N10", _edit_json("cert_linear_N10.out.json", _set(
        "depth", lambda doc: doc["depth"] + 1)), "certificate depth"),
    ("certify", "cert_sinsum_N25", _edit_json("cert_sinsum_N25.out.json", _set(
        "sparsity", lambda doc: doc["sparsity"] - 1)), "certificate sparsity"),
    ("rates", "rates_fdm_exponential", _edit_csv_cell(
        "lambda_fdm_exponential.csv", 2, 1, lambda v: repr(float(v) * (1 + 1e-4))),
     "lambda off by 1e-4 relative"),
    ("rates", "rates_mixing_polynomial", _edit_csv_cell(
        "rates_mixing_polynomial.csv", 0, 1, lambda v: str(int(v) + 1)), "rates N off by one"),
]


def run(cli, work: Path, ctx) -> int:
    ok = True

    def report(passed, what):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}")

    for name in workloads.WHY:
        wl = workloads.build(name, 0)
        d = work / name
        p = run_pass(cli, wl, d, ctx)
        clean = not any(p["problems"].values())
        report(clean, f"{name}: unmodified outputs pass every check {p['problems']}")
        cmds = {cmd.name: cmd for cmd in wl.commands}
        report(bool(checks.check_command(wl.commands[0], 2, d, ctx)),
               f"{name}: exit code 2 counts as failed")
        for wname, cname, corrupt, what in CORRUPTIONS:
            if wname != name:
                continue
            copy = work / f"{name}_corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(d, copy)
            corrupt(copy)
            problems = checks.check_command(cmds[cname], 0, copy, ctx)
            report(bool(problems), f"{name}/{cname}: {what} -> {problems}")
            changed = checks.digests(cmds[cname], copy) != p["digests"][cname]
            report(changed, f"{name}/{cname}: corrupted artifact fails the determinism digest")
    return 0 if ok else 1
