"""Batch experiment harnesses.

Three drivers, all deterministic in (seed, parameters) and independent
of the thread count.  `threads` runs that many trials at once on one
thread pool (a single worker at threads=1).  Every BLAS call of a trial
is made inside `approximate`, `decompose` or `refine`, which run BLAS on
one thread (`numerics.one_blas_thread`) and restore the caller's counts,
so the trials, not the BLAS pools, share the cores; the instance
building and the order statistics call no BLAS.  `environment` records
the BLAS thread counts in effect inside a run, the usable cores and the
numpy and scipy versions.

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
`samples` the per-trial arrays behind both.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
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
        threads = blas_threads()
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"blas_threads": threads, "nproc": nproc,
            "numpy": np.__version__, "scipy": scipy.__version__}


def _check_count(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _map_trials(worker, trials, threads, *names):
    # worker(t) returns one value per name; the result maps each name to
    # its array over the trials
    _check_count("trials", trials)
    _check_count("threads", threads)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        rows = list(ex.map(worker, range(trials)))
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


def run_table(n, m, r, eps, trials, seed=0, tau=None, threads=1,
              lm_config=None):
    """Error distribution of `approximate` over random perturbed instances;
    errors are relative to eps, or absolute when eps == 0."""
    scale = eps if eps > 0 else 1.0

    def worker(t):
        _, res = _approx_trial(n, m, r, eps, tau, seed, t, lm_config)
        return res.err_gp / scale, res.err_opt / scale, res.diagnostics["wall_time"]

    s = _map_trials(worker, trials, threads, "err_gp", "err_opt", "time")
    return BenchStats(
        {"n": n, "m": m, "r": r, "eps": eps, "trials": trials,
         "relative": eps > 0, "err_gp": _order_stats(s["err_gp"]),
         "err_opt": _order_stats(s["err_opt"]), "quantiles": list(QUANTS)},
        {"mean_time": float(s["time"].mean())}, s)


def format_trial_table(stats_list):
    head = (f"{'n':>3} {'m':>3} {'r':>3} {'eps':>9} "
            f"{'gp-min':>10} {'gp-25%':>10} {'gp-med':>10} {'gp-75%':>10} {'gp-max':>10} "
            f"{'opt-min':>10} {'opt-med':>10} {'opt-max':>10} {'time':>8}")
    lines = [head]
    for st in stats_list:
        d, g, o = st.row, st.row["err_gp"], st.row["err_opt"]
        lines.append(
            f"{d['n']:>3} {d['m']:>3} {d['r']:>3} {d['eps']:>9.1e} "
            f"{g[0]:>10.4g} {g[1]:>10.4g} {g[2]:>10.4g} {g[3]:>10.4g} {g[4]:>10.4g} "
            f"{o[0]:>10.4g} {o[2]:>10.4g} {o[4]:>10.4g} {st.timing['mean_time']:>8.2f}")
    return "\n".join(lines)


def run_nls_comparison(n, m, r, eps, trials, nls_restarts=10, seed=0,
                       tau=None, threads=1, lm_config=None):
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
        # checked here so that trials and threads are checked first
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

    s = _map_trials(worker, trials, threads,
                    "ratio", "err_opt", "err_nls", "gp_time", "nls_time")
    return BenchStats(
        {"n": n, "m": m, "r": r, "eps": eps, "tau": float(tau),
         "trials": trials, "nls_restarts": nls_restarts,
         **{k: _order_stats(s[k]) for k in ("ratio", "err_opt", "err_nls")},
         "quantiles": list(QUANTS)},
        {k: _order_stats(s[k]) for k in ("gp_time", "nls_time")}, s)


def format_nls_table(stats_list):
    head = (f"{'n':>3} {'m':>3} {'r':>3} {'eps':>9} "
            f"{'ratio-min':>10} {'ratio-25%':>10} {'ratio-med':>10} "
            f"{'ratio-75%':>10} {'ratio-max':>10} {'t-gp':>8} {'t-nls':>8}")
    lines = [head]
    for st in stats_list:
        d, q, s = st.row, st.row["ratio"], st.samples
        lines.append(
            f"{d['n']:>3} {d['m']:>3} {d['r']:>3} {d['eps']:>9.1e} "
            f"{q[0]:>10.4g} {q[1]:>10.4g} {q[2]:>10.4g} {q[3]:>10.4g} {q[4]:>10.4g} "
            f"{np.median(s['gp_time']):>8.2f} {np.median(s['nls_time']):>8.2f}")
    return "\n".join(lines)


def run_decomposition_table(n, m, r, trials=20, seed=0, restarts=0,
                            residual_tol=1e-6, threads=1, lm_config=None):
    """Decomposition success rate of `decompose` on exact rank-r
    instances."""

    def worker(t):
        F, _ = random_low_rank(n, m, r, seed=seed_key(seed, n, m, r, t))
        dres = decompose(F, r, residual_tol=residual_tol, restarts=restarts,
                         seed=seed_key(seed, n, m, r, t, 1), lm_config=lm_config)
        return dres.success, dres.relative_residual, dres.diagnostics["wall_time"]

    s = _map_trials(worker, trials, threads, "success", "residual", "time")
    successes = int(s["success"].sum())
    return BenchStats(
        {"n": n, "m": m, "r": r, "trials": trials, "restarts": restarts,
         "successes": successes, "success_rate": successes / trials},
        {"mean_time": float(s["time"].mean())}, s)


def format_decomp_table(stats_list):
    head = (f"{'n':>3} {'m':>3} {'r':>3} {'trials':>7} {'restarts':>9} "
            f"{'success':>8} {'rate':>7} {'time':>8}")
    lines = [head]
    for st in stats_list:
        d = st.row
        lines.append(
            f"{d['n']:>3} {d['m']:>3} {d['r']:>3} {d['trials']:>7} {d['restarts']:>9} "
            f"{d['successes']:>8} {d['success_rate']:>7.2f} {st.timing['mean_time']:>8.2f}")
    return "\n".join(lines)
