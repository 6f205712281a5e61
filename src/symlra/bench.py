"""Batch experiment harnesses.

Three drivers, all deterministic in (seed, parameters), that run their
trials one after another.  Every BLAS call of a trial is made inside
`approximate`, `decompose` or `refine`, which run BLAS on one thread
(`numerics.one_blas_thread`) and restore the caller's counts; the
instance building and the order statistics call no BLAS.  `environment`
records the BLAS thread counts in effect inside a run, the usable cores
and the numpy and scipy versions.

* `run_table`: random rank-r instances perturbed to a known noise norm;
  distribution of the algebraic and refined errors relative to the
  noise level.
* `run_nls_comparison`: paired trials on scaled instances (term i
  carries weight tau^i) comparing the pipeline against plain
  random-start nonlinear least squares on the same tensor.
* `run_decomposition_table(n, m, r, ...)`: exact-rank instances;
  fraction of trials whose relative residual clears a tolerance.

Each driver runs one case, (n, m, r) and for the first two a noise norm
eps, and returns one `BenchStats`: `row` holds the JSON fields in
output order, `timing` the wall-clock fields `--timing` appends, and
`samples` the per-trial arrays behind both.  The `format_*_table`
functions print a list of them as fixed-width text through one writer.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .numerics import LMConfig, blas_threads, one_blas_thread
from .tensors import Decomposition, random_low_rank, perturb
from .pipeline import approximate, decompose, refine, seed_key

QUANTS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Budget/tolerances a stock least-squares solver ships with; the random-start
# leg of the comparison runs under these so it measures what a practitioner
# doing plain multistart NLS would actually get.
STOCK_NLS_CONFIG = LMConfig(max_iterations=400,
                            step_tolerance=1e-6,
                            function_tolerance=1e-6)


def _order_stats(x):
    # exact order statistics (1st/5th/10th/15th/20th for 20 trials)
    return [float(v) for v in np.quantile(x, QUANTS, method="lower")]


def environment():
    """Where a run executes: the BLAS thread counts in effect inside symlra
    calls, the usable cores, and the numpy and scipy versions."""
    with one_blas_thread:
        counts = blas_threads()
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"blas_threads": counts, "nproc": nproc,
            "numpy": np.__version__, "scipy": scipy.__version__}


def _table(columns, rows):
    """Fixed-width text: a line of column titles, then one line per row.
    Each column is (title, width, format spec); every cell is right-aligned
    to its column's width, and the cells are joined by one space."""
    lines = [" ".join(f"{title:>{width}}" for title, width, _ in columns)]
    for row in rows:
        lines.append(" ".join(f"{value:>{width}{spec}}"
                              for value, (_, width, spec) in zip(row, columns)))
    return "\n".join(lines)


# the columns the tables share
_CASE = [("n", 3, ""), ("m", 3, ""), ("r", 3, "")]
_EPS = ("eps", 9, ".1e")
_TIME = ("time", 8, ".2f")


def _quantile_columns(name):
    return [(f"{name}-{q}", 10, ".4g") for q in ("min", "25%", "med", "75%", "max")]


def _case(st, *keys):
    # the row's n, m and r, then its fields `keys`
    return [st.row[k] for k in ("n", "m", "r", *keys)]


def _check_count(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _map_trials(worker, trials, *names):
    # worker(t) returns one value per name; the result maps each name to
    # its array over the trials
    _check_count("trials", trials)
    rows = [worker(t) for t in range(trials)]
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}


@dataclass(eq=False)
class BenchStats:
    """One experiment case: the JSON `row`, the `timing` fields and the
    per-trial `samples` arrays."""
    row: dict
    timing: dict
    samples: dict

    def to_dict(self, include_timing=False):
        return {**self.row, **(self.timing if include_timing else {})}


def _approx_trial(n, m, r, eps, tau, seed, t, lm_config):
    # trial t's perturbed instance and `approximate` on it
    F0, _ = random_low_rank(n, m, r, seed=seed_key(seed, t, 0), tau=tau)
    F = perturb(F0, eps, seed=seed_key(seed, t, 1))
    return F, approximate(F, r, seed=seed_key(seed, t, 2), lm_config=lm_config)


def run_table(n, m, r, eps, trials, seed=0, tau=None, lm_config=None):
    """Error distribution of `approximate` over random perturbed instances;
    errors are relative to eps, or absolute when eps == 0."""
    scale = eps if eps > 0 else 1.0

    def worker(t):
        _, res = _approx_trial(n, m, r, eps, tau, seed, t, lm_config)
        return res.err_gp / scale, res.err_opt / scale, res.diagnostics["wall_time"]

    s = _map_trials(worker, trials, "err_gp", "err_opt", "time")
    return BenchStats(
        {"n": n, "m": m, "r": r, "eps": eps, "trials": trials,
         "relative": eps > 0, "err_gp": _order_stats(s["err_gp"]),
         "err_opt": _order_stats(s["err_opt"]), "quantiles": list(QUANTS)},
        {"mean_time": float(s["time"].mean())}, s)


def format_trial_table(stats_list):
    columns = [*_CASE, _EPS, *_quantile_columns("gp"),
               *_quantile_columns("opt")[::2], _TIME]
    rows = ([*_case(st, "eps"), *st.row["err_gp"], *st.row["err_opt"][::2],
             st.timing["mean_time"]] for st in stats_list)
    return _table(columns, rows)


def run_nls_comparison(n, m, r, eps, trials, nls_restarts=10, seed=0,
                       tau=None, lm_config=None):
    """Paired comparison on scaled instances: pipeline vs. best of
    `nls_restarts` random-start joint refinements of the same tensor.

    The random starts are complex standard normal and each restart runs
    under `STOCK_NLS_CONFIG`; `lm_config` governs the pipeline leg as
    everywhere else."""
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if tau is None:
        tau = 1000.0 ** (1.0 / r)
    scale = eps if eps > 0 else 1.0

    def worker(t):
        # checked here, so that `_map_trials` checks trials first
        _check_count("nls_restarts", nls_restarts)
        F, res = _approx_trial(n, m, r, eps, tau, seed, t, lm_config)
        t0 = time.perf_counter()
        err_nls = np.inf
        for k in range(nls_restarts):
            rng = np.random.default_rng(seed_key(seed, t, 3, k))
            start = Decomposition(
                m, rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
            err_nls = min(err_nls, refine(F, start, STOCK_NLS_CONFIG).error)
        nls_time = time.perf_counter() - t0
        ratio = err_nls / res.err_opt if res.err_opt > 0 else np.inf
        return (ratio, res.err_opt / scale, err_nls / scale,
                res.diagnostics["wall_time"], nls_time)

    s = _map_trials(worker, trials, "ratio", "err_opt", "err_nls", "gp_time", "nls_time")
    return BenchStats(
        {"n": n, "m": m, "r": r, "eps": eps, "tau": float(tau),
         "trials": trials, "nls_restarts": nls_restarts,
         **{k: _order_stats(s[k]) for k in ("ratio", "err_opt", "err_nls")},
         "quantiles": list(QUANTS)},
        {k: _order_stats(s[k]) for k in ("gp_time", "nls_time")}, s)


def format_nls_table(stats_list):
    columns = [*_CASE, _EPS, *_quantile_columns("ratio"),
               ("t-gp", 8, ".2f"), ("t-nls", 8, ".2f")]
    rows = ([*_case(st, "eps"), *st.row["ratio"], np.median(st.samples["gp_time"]),
             np.median(st.samples["nls_time"])] for st in stats_list)
    return _table(columns, rows)


def run_decomposition_table(n, m, r, trials=20, seed=0, restarts=0,
                            residual_tol=1e-6, lm_config=None):
    """Decomposition success rate of `decompose` on exact rank-r
    instances."""

    def worker(t):
        F, _ = random_low_rank(n, m, r, seed=seed_key(seed, n, m, r, t))
        dres = decompose(F, r, residual_tol=residual_tol, restarts=restarts,
                         seed=seed_key(seed, n, m, r, t, 1), lm_config=lm_config)
        return dres.success, dres.relative_residual, dres.diagnostics["wall_time"]

    s = _map_trials(worker, trials, "success", "residual", "time")
    successes = int(s["success"].sum())
    return BenchStats(
        {"n": n, "m": m, "r": r, "trials": trials, "restarts": restarts,
         "successes": successes, "success_rate": successes / trials},
        {"mean_time": float(s["time"].mean())}, s)


def format_decomp_table(stats_list):
    columns = [*_CASE, ("trials", 7, ""), ("restarts", 9, ""), ("success", 8, ""),
               ("rate", 7, ".2f"), _TIME]
    rows = ([*_case(st, "trials", "restarts", "successes", "success_rate"),
             st.timing["mean_time"]] for st in stats_list)
    return _table(columns, rows)
