"""In-memory span tracing of edforecast's public functions.

``Tracer.install`` wraps every public function of the seven modules, plus
``Network.eval_batch``, and patches each wrapper wherever the original is
looked up: in its defining module, in every module that imported it by
name, and in module-level dicts such as the CLI's command table.
``Tracer.uninstall`` restores the originals, so untraced and traced passes
can alternate in one interpreter.

A span records its name, its parent span and its duration.  Bookkeeping a
wrapper does after its clock stops (counting nonzero weights) is timed
separately and subtracted from every enclosing span, so it does not show
up as time in the layers.  ``layer_metrics`` turns one pass's spans into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "data", "simulate", "train", "network", "approx", "rates")
STRUCTURE = ("network.compose", "network.parallel", "network.deepen",
             "network.precompose_affine", "network.postcompose_affine")
GADGETS = ("approx.mult_net", "approx.multiprod_net", "approx.hat_net")
JSON_IO = ("network.save_json", "network.load_json")

# span record fields
NAME, PARENT, T0, T1, PAUSED0, PAUSED1, EXTRA = range(7)


def _rows_in(fn):
    return lambda args, kwargs, result: int(np.shape(args[1])[0])


def _rows_out(fn):
    return lambda args, kwargs, result: int(result.shape[0])


def _generate_steps(fn):
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n"] + bound.arguments["burn_in"]
    return extra


def _eval_batch_shapes(fn):
    """Rows, weight entries, nonzero weight entries and all stored entries:
    computed from array shapes and contents, not measured memory traffic."""
    def extra(args, kwargs, result):
        net = args[0]
        dense = sum(w.size for w in net.weights)
        nnz = sum(int(np.count_nonzero(w)) for w in net.weights)
        entries = dense + sum(b.size for b in net.biases)
        return (result.shape[0], dense, nnz, entries)
    return extra


# span name -> factory of the extra value recorded after the call returns
EXTRAS = {
    "data.save_series_csv": _rows_in,
    "data.load_series_csv": _rows_out,
    "simulate.generate": _generate_steps,
    "network.eval_batch": _eval_batch_shapes,
}
ROW_IO = ("data.save_series_csv", "data.load_series_csv")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._paused = 0.0
        self._patches = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        extra = EXTRAS[name](fn) if name in EXTRAS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self._paused, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                rec[PAUSED1] = self._paused
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, result)
                self._paused += clock() - rec[T1]
            return result
        return wrapper

    def install(self):
        import edforecast
        from edforecast.network import Network

        modules = {layer: importlib.import_module(f"edforecast.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # every place the name is looked up: module globals and module-level dicts
        for mod in (edforecast, *modules.values()):
            for container in [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]:
                for key, val in list(container.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        self._patch(container.__setitem__, key, val, wrapped[val])
        original = Network.__dict__["eval_batch"]
        self._patch(lambda k, v: setattr(Network, k, v), "eval_batch", original,
                    self.wrap("network.eval_batch", original))

    def _patch(self, setter, key, original, value):
        self._patches.append((setter, key, original))
        setter(key, value)

    def uninstall(self):
        while self._patches:
            setter, key, original = self._patches.pop()
            setter(key, original)

    def reset(self):
        self.spans = []
        self._stack = []
        self._paused = 0.0


def _durations(spans):
    """Adjusted duration and self time of every span."""
    dur = [(s[T1] - s[T0]) - (s[PAUSED1] - s[PAUSED0]) for s in spans]
    self_t = list(dur)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= dur[i]
    return dur, self_t


def _has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass; a layer that did no work reads 0."""
    dur, self_t = _durations(spans)
    names = [s[NAME] for s in spans]

    def total(group):
        group = set(group)
        return sum(dur[i] for i, n in enumerate(names)
                   if n in group and not _has_ancestor(spans, i, group))

    def calls(group):
        group = set(group)
        return sum(1 for n in names if n in group)

    def parent_is(i, name):
        p = spans[i][PARENT]
        return p >= 0 and names[p] == name

    evals = [i for i, n in enumerate(names) if n == "network.eval_batch"]
    rows = sum(spans[i][EXTRA][0] for i in evals)
    dense_macs = sum(spans[i][EXTRA][0] * spans[i][EXTRA][1] for i in evals)
    nnz_macs = sum(spans[i][EXTRA][0] * spans[i][EXTRA][2] for i in evals)
    grid = [i for i in evals if parent_is(i, "approx.build_approximator")]
    pair_evals = [i for i in evals if parent_is(i, "network.lipschitz_empirical")
                  and parent_is(spans[i][PARENT], "approx.build_approximator")]
    pairs = [i for i, n in enumerate(names) if n == "network.lipschitz_empirical"
             and parent_is(i, "approx.build_approximator")]
    builds = {"approx.build_approximator"}
    in_build = [i for i, n in enumerate(names) if n.startswith("approx.")
                and (n in builds or _has_ancestor(spans, i, builds))]
    gradients = [i for i, n in enumerate(names) if n == "train.gradient"
                 and parent_is(i, "train.train_sgd")]

    gen_s = total(["simulate.generate"])
    steps = sum(spans[i][EXTRA] for i, n in enumerate(names) if n == "simulate.generate")
    grad_s = total(["train.gradient"])
    grad_calls = calls(["train.gradient"])
    dep_s, dep_calls = total(["rates.lambda_dep"]), calls(["rates.lambda_dep"])
    mix_s, mix_calls = total(["rates.lambda_mix"]), calls(["rates.lambda_mix"])

    return {
        "cli.self_s": sum(self_t[i] for i, n in enumerate(names) if n.startswith("cli.")),
        "data.load_series_csv_s": total(["data.load_series_csv"]),
        "data.save_series_csv_s": total(["data.save_series_csv"]),
        "data.lag_embed_s": total(["data.lag_embed"]),
        "data.rows_io": sum(spans[i][EXTRA] for i, n in enumerate(names) if n in ROW_IO),
        "simulate.generate_s": gen_s,
        "simulate.steps": steps,
        "simulate.generate_us_per_step": _ratio(gen_s, steps, 1e6),
        "train.train_sgd_s": total(["train.train_sgd"]),
        "train.runs": calls(["train.train_sgd"]),
        "train.sgd_steps": len(gradients),
        "train.gradient_s": grad_s,
        "train.gradient_us": _ratio(grad_s, grad_calls, 1e6),
        "train.update_s": sum(self_t[i] for i, n in enumerate(names) if n == "train.train_sgd"),
        "train.empirical_risk_s": total(["train.empirical_risk"]),
        "train.empirical_risk_calls": calls(["train.empirical_risk"]),
        "network.eval_batch_s": total(["network.eval_batch"]),
        "network.eval_batch_calls": len(evals),
        "network.eval_rows": rows,
        "network.dense_macs": dense_macs,
        "network.nnz_macs": nnz_macs,
        "network.useful_ratio": _ratio(nnz_macs, dense_macs),
        "network.peak_dense_entries": max((spans[i][EXTRA][3] for i in evals), default=0),
        "network.structure_s": total(STRUCTURE),
        "network.structure_calls": calls(STRUCTURE),
        "network.lipschitz_empirical_s": total(["network.lipschitz_empirical"]),
        "network.json_io_s": total(JSON_IO),
        "approx.build_approximator_s": total(builds),
        "approx.assemble_s": sum(self_t[i] for i in in_build),
        "approx.verify_grid_s": sum(dur[i] for i in grid),
        "approx.verify_pairs_s": sum(dur[i] for i in pairs),
        "approx.gadget_calls": calls(GADGETS),
        "approx.grid_points": sum(spans[i][EXTRA][0] for i in grid),
        "approx.pair_rows": sum(spans[i][EXTRA][0] for i in pair_evals),
        "rates.lambda_dep_s": dep_s,
        "rates.lambda_dep_calls": dep_calls,
        "rates.lambda_dep_ms": _ratio(dep_s, dep_calls, 1e3),
        "rates.lambda_mix_s": mix_s,
        "rates.lambda_mix_calls": mix_calls,
        "rates.lambda_mix_ms": _ratio(mix_s, mix_calls, 1e3),
        "rates.v_tilde_calls": calls(["rates.v_tilde"]),
        "rates.beta_dep_calls": calls(["rates.beta_dep"]),
        "rates.conjugate_calls": calls(["rates.conjugate"]),
        "rates.oracle_bound_s": total(["rates.oracle_bound"]),
    }
