"""Spans around the library's layer boundaries, recorded from outside.

`Tracer.install()` replaces the names that `pipeline._run_stages`,
`refine`, `decompose` and `optimize_generating` look up at call time with
timing wrappers, and `restore()` puts the originals back.  A span is
[name, start, end, parent span, operation id, note]; the note holds
counts read from the call's arguments or result.  Spans stay in memory
until `write()`.  Wrappers pass arguments and results through untouched,
so a traced run computes exactly what an untraced one does.

`layer_metrics()` turns the spans of the timed operations into the
per-layer metrics: per-operation means of summed span times and counts.
A layer's self time is its span time minus the time of its child spans.
"""

import functools
import importlib
import json
import time

import numpy as np

# (module, attribute, span name, note): the call-time lookups to wrap
PATCHES = [
    ("symlra.pipeline", "approximate", "pipeline.approx",
     lambda a, k, out: {"shuffle": int(bool(out.diagnostics.get("auto_shuffled")))}),
    ("symlra.pipeline", "decompose", "pipeline.decompose",
     lambda a, k, out: {"attempts": int(out.attempts)}),
    ("symlra.pipeline", "refine", "pipeline.refine", None),
    ("symlra.pipeline", "monomial_basis", "genfit.basis", None),
    ("symlra.pipeline", "fit_generating", "genfit.fit", None),
    ("symlra.pipeline", "optimize_generating", "genfit.optimize", None),
    ("symlra.pipeline", "companion_matrices", "genfit.companion", None),
    ("symlra.pipeline", "commutation_gram", "zerosolve.gram", None),
    ("symlra.pipeline", "select_mixing", "zerosolve.mixing",
     lambda a, k, out: {"fallback": int(bool(out.fallback))}),
    ("symlra.pipeline", "extract_zeros", "zerosolve.extract",
     lambda a, k, out: {"repeated": int(bool(out.repeated))}),
    ("symlra.pipeline", "fit_coefficients", "pipeline.coeffs", None),
    ("symlra.pipeline", "terms_from_zeros", "pipeline.terms", None),
    ("symlra.pipeline", "catalecticant_spectrum", "catalecticant.spectrum", None),
    ("symlra.catalecticant", "catalecticant_spectrum", "catalecticant.spectrum", None),
    ("symlra.genfit", "generating_system", "genfit.gather", None),
]
# minnorm_lstsq: U of a full SVD of the p x q system is p x p complex
LSTSQ = [("symlra.pipeline", "pipeline.lstsq"), ("symlra.genfit", "genfit.lstsq")]
LM = [("symlra.pipeline", "pipeline.lm"), ("symlra.genfit", "genfit.lm")]


def _lstsq_note(args, kwargs, out):
    return {"u_bytes": 16 * int(np.shape(args[0])[0]) ** 2}


def _lm_note(args, kwargs, out):
    x0 = next((a for a in args if isinstance(a, np.ndarray)), np.zeros(0))
    iterations = int(getattr(out, "iterations", 0))
    evaluations = int(getattr(out, "residual_evaluations", 0))
    # every iteration ends in an accepted step, except a last one that stops
    # on a tiny step or the evaluation budget
    stopped = getattr(out, "status", "") in ("converged-step", "max-evaluations")
    return {"iterations": iterations, "evaluations": evaluations,
            "trials": max(evaluations - 1, 0),
            "accepted": iterations - int(stopped and iterations > 0),
            "dim": int(x0.size)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None        # id of the running operation; None in set-up
        self.missing = []     # patch targets the library no longer has
        self._stack = []
        self._originals = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, out)
            return out
        return traced

    def _wrap_lm(self, name, fn):
        inner = self.wrap(name, fn, _lm_note)

        def traced_lm(residual, jacobian, *rest, **kwargs):
            return inner(self.wrap(name + ".residual", residual),
                         self.wrap(name + ".jacobian", jacobian), *rest, **kwargs)
        return traced_lm

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        for mod, attr, name, note in PATCHES:
            self._patch(importlib.import_module(mod), attr,
                        lambda fn, name=name, note=note: self.wrap(name, fn, note))
        for mod, name in LSTSQ:
            self._patch(importlib.import_module(mod), "minnorm_lstsq",
                        lambda fn, name=name: self.wrap(name, fn, _lstsq_note))
        for mod, name in LM:
            self._patch(importlib.import_module(mod), "levenberg_marquardt",
                        lambda fn, name=name: self._wrap_lm(name, fn))
        table_cls = importlib.import_module("symlra.tensors").ExponentTable
        self._patch(table_cls, "__init__",
                    lambda fn: self.wrap("tensors.table", fn))
        return self

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i, *rec]) + "\n")


def layer_metrics(spans, n_ops):
    """Per-layer metrics of the timed operations (spans with an operation
    id), as per-operation means; `tensors.table.s` sums the whole run,
    set-up included, because tables are built once per process."""
    dur = {}
    child = {}
    for i, (name, t0, t1, parent, op, note) in enumerate(spans):
        dur[i] = t1 - t0
        child[parent] = child.get(parent, 0.0) + t1 - t0
    timed = [(i, s) for i, s in enumerate(spans) if s[4] is not None]

    def total(name):
        return sum(dur[i] for i, s in timed if s[0] == name)

    def count(name):
        return sum(1 for _, s in timed if s[0] == name)

    def noted(name, key):
        return sum(s[5][key] for _, s in timed if s[0] == name)

    def self_time(name):
        return sum(dur[i] - child.get(i, 0.0) for i, s in timed if s[0] == name)

    per_op = {
        "catalecticant.spectrum.s": total("catalecticant.spectrum"),
        "genfit.basis.s": total("genfit.basis"),
        "genfit.fit.s": total("genfit.fit"),
        "genfit.fit.calls": count("genfit.fit"),
        "genfit.gather.s": total("genfit.gather"),
        "genfit.gather.calls": count("genfit.gather"),
        "genfit.lstsq.s": total("genfit.lstsq"),
        "genfit.lstsq.u_bytes": noted("genfit.lstsq", "u_bytes"),
        "genfit.companion.s": total("genfit.companion"),
        "zerosolve.s": (total("zerosolve.gram") + total("zerosolve.mixing")
                        + total("zerosolve.extract")),
        "zerosolve.mixing_fallback": noted("zerosolve.mixing", "fallback"),
        "zerosolve.schur_repeated": noted("zerosolve.extract", "repeated"),
        "pipeline.coeffs.s": total("pipeline.coeffs"),
        "pipeline.lstsq.s": total("pipeline.lstsq"),
        "pipeline.lstsq.u_bytes": noted("pipeline.lstsq", "u_bytes"),
        "pipeline.refine.s": total("pipeline.refine"),
        "pipeline.refine.runs": count("pipeline.refine"),
        "pipeline.shuffle": noted("pipeline.approx", "shuffle"),
        "pipeline.decompose.attempts": noted("pipeline.decompose", "attempts"),
        "pipeline.approx.self.s": self_time("pipeline.approx"),
    }
    for prefix, span in (("genfit.lm", "genfit.lm"), ("pipeline.refine", "pipeline.lm")):
        per_op.update({
            f"{prefix}.iterations": noted(span, "iterations"),
            f"{prefix}.evaluations": noted(span, "evaluations"),
            f"{prefix}.residual.s": total(span + ".residual"),
            f"{prefix}.jacobian.s": total(span + ".jacobian"),
            f"{prefix}.solve.s": self_time(span),
        })
    per_op["genfit.lm.s"] = total("genfit.lm")
    per_op["genfit.lm.runs"] = count("genfit.lm")
    out = {k: v / n_ops for k, v in per_op.items()}
    for prefix, span in (("genfit.lm", "genfit.lm"), ("pipeline.refine", "pipeline.lm")):
        runs = count(span)
        trials = noted(span, "trials")
        out[f"{prefix}.accept_ratio"] = noted(span, "accepted") / trials if trials else 0.0
        out[f"{prefix}.dim"] = noted(span, "dim") / runs if runs else 0.0
    out["tensors.table.s"] = sum(dur[i] for i, s in enumerate(spans)
                                 if s[0] == "tensors.table")
    return out
