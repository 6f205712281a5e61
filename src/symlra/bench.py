"""Batch experiment harnesses.

Three drivers, all deterministic in (seed, parameters) and independent
of the thread count.  `threads` runs that many trials at once; BLAS stays
on one thread for the whole run (`numerics.one_blas_thread`), so the
trials, not the BLAS pools, share the cores, and the caller's BLAS
thread counts are restored on return.  `environment` records the BLAS
thread counts in effect inside a run, the usable cores and the numpy and
scipy versions.

* `run_table`: random rank-r instances perturbed to a known noise norm;
  distribution of the algebraic and refined errors relative to the
  noise level.
* `run_nls_comparison`: paired trials on scaled instances (term i
  carries weight tau^i) comparing the pipeline against plain
  random-start nonlinear least squares on the same tensor.
* `run_decomposition_table`: exact-rank instances; fraction of trials
  whose relative residual clears a tolerance.
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


def _map_trials(worker, trials, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(worker, range(trials)))
    return [worker(t) for t in range(trials)]


@dataclass(eq=False)
class TrialStats:
    n: int
    m: int
    r: int
    eps: float
    trials: int
    relative: bool          # False when eps == 0: errors are absolute
    err_gp: np.ndarray      # per-trial err / eps (or absolute)
    err_opt: np.ndarray
    times: np.ndarray

    def summary(self):
        return {
            "n": self.n, "m": self.m, "r": self.r, "eps": self.eps,
            "trials": self.trials, "relative": self.relative,
            "err_gp": _order_stats(self.err_gp),
            "err_opt": _order_stats(self.err_opt),
        }

    def to_dict(self, include_timing=False):
        out = self.summary()
        out["quantiles"] = list(QUANTS)
        if include_timing:
            out["mean_time"] = float(self.times.mean())
        return out


@one_blas_thread
def run_table(n, m, r, eps, trials, seed=0, tau=None, threads=1,
              lm_config=None):
    """Error distribution of `approximate` over random perturbed instances."""
    _check_count("trials", trials)

    def worker(t):
        F0, _ = random_low_rank(n, m, r, seed=seed_key(seed, t, 0), tau=tau)
        F = perturb(F0, eps, seed=seed_key(seed, t, 1))
        t0 = time.perf_counter()
        res = approximate(F, r, seed=seed_key(seed, t, 2), lm_config=lm_config)
        dt = time.perf_counter() - t0
        scale = eps if eps > 0 else 1.0
        return res.err_gp / scale, res.err_opt / scale, dt

    rows = _map_trials(worker, trials, threads)
    eg, eo, ts = (np.array(col) for col in zip(*rows))
    return TrialStats(n=n, m=m, r=r, eps=eps, trials=trials,
                      relative=eps > 0, err_gp=eg, err_opt=eo, times=ts)


def format_trial_table(stats_list):
    head = (f"{'n':>3} {'m':>3} {'r':>3} {'eps':>9} "
            f"{'gp-min':>10} {'gp-25%':>10} {'gp-med':>10} {'gp-75%':>10} {'gp-max':>10} "
            f"{'opt-min':>10} {'opt-med':>10} {'opt-max':>10} {'time':>8}")
    lines = [head]
    for st in stats_list:
        g = _order_stats(st.err_gp)
        o = _order_stats(st.err_opt)
        lines.append(
            f"{st.n:>3} {st.m:>3} {st.r:>3} {st.eps:>9.1e} "
            f"{g[0]:>10.4g} {g[1]:>10.4g} {g[2]:>10.4g} {g[3]:>10.4g} {g[4]:>10.4g} "
            f"{o[0]:>10.4g} {o[2]:>10.4g} {o[4]:>10.4g} {st.times.mean():>8.2f}")
    return "\n".join(lines)


@dataclass(eq=False)
class NlsStats:
    n: int
    m: int
    r: int
    eps: float
    tau: float
    trials: int
    nls_restarts: int
    ratios: np.ndarray      # err_nls / err_opt per trial
    err_opt: np.ndarray     # relative to eps when eps > 0
    err_nls: np.ndarray
    gp_times: np.ndarray
    nls_times: np.ndarray

    def to_dict(self, include_timing=False):
        out = {
            "n": self.n, "m": self.m, "r": self.r, "eps": self.eps,
            "tau": self.tau, "trials": self.trials,
            "nls_restarts": self.nls_restarts,
            "ratio": _order_stats(self.ratios),
            "err_opt": _order_stats(self.err_opt),
            "err_nls": _order_stats(self.err_nls),
            "quantiles": list(QUANTS),
        }
        if include_timing:
            out["gp_time"] = _order_stats(self.gp_times)
            out["nls_time"] = _order_stats(self.nls_times)
        return out


@one_blas_thread
def run_nls_comparison(n, m, r, eps, trials, nls_restarts=10, seed=0,
                       tau=None, threads=1, lm_config=None, nls_config=None):
    """Paired comparison on scaled instances: pipeline vs. best of
    `nls_restarts` random-start joint refinements of the same tensor.

    The random starts are complex standard normal and each restart runs
    under `nls_config` (default `STOCK_NLS_CONFIG`); `lm_config` governs
    the pipeline leg as everywhere else."""
    _check_count("trials", trials)
    _check_count("nls_restarts", nls_restarts)
    if tau is None:
        tau = 1000.0 ** (1.0 / r)
    if nls_config is None:
        nls_config = STOCK_NLS_CONFIG

    def worker(t):
        F0, _ = random_low_rank(n, m, r, seed=seed_key(seed, t, 0), tau=tau)
        F = perturb(F0, eps, seed=seed_key(seed, t, 1))
        t0 = time.perf_counter()
        res = approximate(F, r, seed=seed_key(seed, t, 2), lm_config=lm_config)
        gp_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        err_nls = np.inf
        for k in range(nls_restarts):
            rng = np.random.default_rng(seed_key(seed, t, 3, k))
            start = Decomposition(
                m, rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
            err_nls = min(err_nls, refine(F, start, nls_config).error)
        nls_time = time.perf_counter() - t0
        ratio = err_nls / res.err_opt if res.err_opt > 0 else np.inf
        scale = eps if eps > 0 else 1.0
        return ratio, res.err_opt / scale, err_nls / scale, gp_time, nls_time

    rows = _map_trials(worker, trials, threads)
    ratio, eo, en, tg, tn = (np.array(col) for col in zip(*rows))
    return NlsStats(n=n, m=m, r=r, eps=eps, tau=float(tau), trials=trials,
                    nls_restarts=nls_restarts, ratios=ratio, err_opt=eo,
                    err_nls=en, gp_times=tg, nls_times=tn)


def format_nls_table(stats_list):
    head = (f"{'n':>3} {'m':>3} {'r':>3} {'eps':>9} "
            f"{'ratio-min':>10} {'ratio-25%':>10} {'ratio-med':>10} "
            f"{'ratio-75%':>10} {'ratio-max':>10} {'t-gp':>8} {'t-nls':>8}")
    lines = [head]
    for st in stats_list:
        q = _order_stats(st.ratios)
        lines.append(
            f"{st.n:>3} {st.m:>3} {st.r:>3} {st.eps:>9.1e} "
            f"{q[0]:>10.4g} {q[1]:>10.4g} {q[2]:>10.4g} {q[3]:>10.4g} {q[4]:>10.4g} "
            f"{np.median(st.gp_times):>8.2f} {np.median(st.nls_times):>8.2f}")
    return "\n".join(lines)


@dataclass(eq=False)
class CaseStats:
    n: int
    m: int
    r: int
    trials: int
    restarts: int
    successes: int
    residuals: np.ndarray   # best relative residual per trial
    times: np.ndarray

    @property
    def success_rate(self):
        return self.successes / self.trials

    def to_dict(self, include_timing=False):
        out = {"n": self.n, "m": self.m, "r": self.r, "trials": self.trials,
               "restarts": self.restarts, "successes": self.successes,
               "success_rate": self.success_rate}
        if include_timing:
            out["mean_time"] = float(self.times.mean())
        return out


@one_blas_thread
def run_decomposition_table(cases, trials=20, seed=0, restarts=0,
                            residual_tol=1e-6, threads=1, lm_config=None):
    """Decomposition success rates on exact rank-r instances.

    `cases` is an iterable of (n, m, r) triples; returns one CaseStats per
    case, in order."""
    _check_count("trials", trials)
    out = []
    for (n, m, r) in cases:

        def worker(t, n=n, m=m, r=r):
            F, _ = random_low_rank(n, m, r, seed=seed_key(seed, n, m, r, t))
            t0 = time.perf_counter()
            dres = decompose(F, r, residual_tol=residual_tol, restarts=restarts,
                             seed=seed_key(seed, n, m, r, t, 1),
                             lm_config=lm_config)
            return dres.success, dres.relative_residual, time.perf_counter() - t0

        rows = _map_trials(worker, trials, threads)
        ok, res, ts = zip(*rows)
        out.append(CaseStats(n=n, m=m, r=r, trials=trials, restarts=restarts,
                             successes=int(sum(ok)), residuals=np.array(res),
                             times=np.array(ts)))
    return out


def format_decomp_table(stats_list):
    head = (f"{'n':>3} {'m':>3} {'r':>3} {'trials':>7} {'restarts':>9} "
            f"{'success':>8} {'rate':>7} {'time':>8}")
    lines = [head]
    for st in stats_list:
        lines.append(
            f"{st.n:>3} {st.m:>3} {st.r:>3} {st.trials:>7} {st.restarts:>9} "
            f"{st.successes:>8} {st.success_rate:>7.2f} {st.times.mean():>8.2f}")
    return "\n".join(lines)
