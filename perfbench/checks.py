"""Output checks: each returns the problems found in one command's artifacts.

A command counts as failed when it exits non-zero, misses an artifact, or
any check below finds a problem.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Rates tables must match the recorded values to this relative tolerance.
# It is loose enough for a faster solver that stops at a relative
# tolerance, and tight enough to catch a wrong tail or conjugate.
RATES_REL_TOL = 1e-6


def csv_rows(path: Path):
    """Data rows of a CSV with '# key=value' provenance lines and a header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _simulate(cmd, d: Path, ctx):
    rows = csv_rows(d / cmd.outputs[0])
    if len(rows) != cmd.check["rows"]:
        return [f"{len(rows)} series rows, expected {cmd.check['rows']}"]
    if not all(_finite(*map(float, row[1:])) for row in rows):
        return ["series has non-finite values"]
    return []


def _sweep(cmd, d: Path, ctx):
    problems = []
    rows = csv_rows(d / "sweep.csv")
    if len(rows) != cmd.check["cells"]:
        problems.append(f"{len(rows)} sweep rows, expected {cmd.check['cells']}")
    if not all(_finite(*map(float, row[2:])) for row in rows):
        problems.append("sweep table has non-finite risks")
    summary = json.loads((d / "sweep.summary.json").read_text(encoding="utf-8"))
    best, naive = summary["best"]["risk"], summary["naive_risk"]
    if not _finite(best, naive):
        problems.append("sweep summary has non-finite risks")
    elif not best < naive:
        problems.append(f"best sweep risk {best!r} not below naive {naive!r}")
    return problems


def _train(cmd, d: Path, ctx):
    meta = json.loads((d / "model.meta.json").read_text(encoding="utf-8"))
    if not _finite(meta["final_train_risk"], meta["final_test_risk"]):
        return ["final train/test risk not finite"]
    return []


def _evaluate(cmd, d: Path, ctx):
    metrics = json.loads((d / cmd.outputs[0]).read_text(encoding="utf-8"))
    problems = []
    if not _finite(metrics["empirical_risk"], metrics["naive_risk"]):
        problems.append("risk not finite")
    ks = cmd.check["k_steps"]
    k_mse = metrics["k_step_mse"]
    if sorted(k_mse, key=int) != [str(k) for k in ks]:
        problems.append(f"k-step horizons {sorted(k_mse)} != {ks}")
    elif not all(len(k_mse[str(k)]) == k and _finite(*k_mse[str(k)]) for k in ks):
        problems.append("k-step errors missing or not finite")
    return problems


def _certify(cmd, d: Path, ctx):
    cert = json.loads((d / cmd.outputs[0]).read_text(encoding="utf-8"))
    problems = []
    if not cert["measured_sup"] <= cert["sup_bound"]:
        problems.append(f"measured_sup {cert['measured_sup']!r} > sup_bound")
    if not cert["measured_lip"] <= cert["lip_bound"]:
        problems.append(f"measured_lip {cert['measured_lip']!r} > lip_bound")
    for key in ("depth", "sparsity"):
        if cert[key] != cmd.check[key]:
            problems.append(f"{key} {cert[key]} != recorded {cmd.check[key]}")
    return problems


def _table_problems(name, got, want):
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, recorded {len(want)}"]
    for i, (row, ref) in enumerate(zip(got, want)):
        for j, (g, r) in enumerate(zip(row, ref)):
            same = int(g) == r if isinstance(r, int) else \
                math.isclose(float(g), r, rel_tol=RATES_REL_TOL, abs_tol=0.0)
            if not same:
                return [f"{name} row {i} column {j}: {g} != recorded {r!r}"]
    return []


def _rates(cmd, d: Path, ctx):
    ref = ctx["rates"][str(cmd.check["variant"])][cmd.check["kind"]]
    return (_table_problems(cmd.outputs[0], csv_rows(d / cmd.outputs[0]), ref["lambda"])
            + _table_problems(cmd.outputs[1], csv_rows(d / cmd.outputs[1]), ref["rates"]))


CHECKS = {
    "simulate_s": _simulate,
    "sweep_s": _sweep,
    "train_s": _train,
    "evaluate_s": _evaluate,
    "certify_s": _certify,
    "rates_s": _rates,
}


def check_command(cmd, rc, d: Path, ctx) -> list:
    """Problems with one command's run; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [out for out in cmd.outputs if not (d / out).is_file()]
    if missing:
        return [f"missing {missing}"]
    try:
        return CHECKS[cmd.metric](cmd, d, ctx)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def digests(cmd, d: Path) -> dict:
    return {out: hashlib.sha256((d / out).read_bytes()).hexdigest()
            for out in cmd.outputs if (d / out).is_file()}
