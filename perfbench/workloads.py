"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload turns a seed into a list of instances during set-up, then
the timed loop calls `run(instance)` once per operation.  `run` returns
the wall and process CPU time of the library calls, then a record.  The record holds the accuracy
values the summary needs and `ok`, which is False when an output check
failed.  Every call into the library goes through the module attribute
(`pipeline.approximate`, not a name bound at import), so the traced run's
wrappers see it.

`tiny=True` builds small instances on the same code paths; the warm-up
in set-up and the benchmark's own tests use them.
"""

import importlib
import itertools
import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from symlra import bench, pipeline, tensors
from symlra.tensors import Decomposition, perturb, random_low_rank

# the package re-exports the function `catalecticant` under the module's name
catalecticant = importlib.import_module("symlra.catalecticant")

DECOMP_TOL = 1e-6   # residual_tol of `decompose`; its default
NLS_RESTARTS = 3    # random-start refine runs per nls-scaled trial
# nls-leg's budget: the stock tolerances with a short iteration cap, which
# random starts on the scaled (10,3,12) tensors reach, so every
# operation does the same number of LM iterations
NLS_LEG_CONFIG = replace(bench.STOCK_NLS_CONFIG, max_iterations=40)


@lru_cache(maxsize=None)
def _layout(n, m):
    # every multiset of m positions, its multiplicity m!/prod(c_j!) and the
    # compact index of its exponent; only the index lookup is the library's
    pos = np.array(list(itertools.combinations_with_replacement(range(n), m)),
                   dtype=np.intp).reshape(-1, m)
    counts = np.stack([(pos == j).sum(axis=1) for j in range(n)], axis=1)
    fact = np.array([math.factorial(c) for c in range(m + 1)], dtype=float)
    weights = math.factorial(m) / fact[counts].prod(axis=1)
    index = tensors.table(n, m).index
    rows = np.array([index[tuple(c[1:])] for c in counts], dtype=np.intp)
    return pos, weights, rows


def hs_error(vectors, F):
    """||sum_i u_i^(m) - F|| in the Hilbert-Schmidt norm, evaluated entry by
    entry from the vectors, independently of `Decomposition.tensor` and
    `SymTensor.norm`.  An empty `vectors` gives ||F||."""
    pos, weights, rows = _layout(F.n, F.m)
    U = np.asarray(vectors, dtype=complex).reshape(-1, F.n)
    diff = np.prod(U[:, pos], axis=2).sum(axis=0) - F.values[rows]
    return float(np.sqrt(np.sum(weights * (diff.real ** 2 + diff.imag ** 2))))


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a)).all() for a in arrays)


def _roundoff(F):
    # absolute round-off allowance for errors of a fit to F
    return 1e-12 * (1.0 + hs_error(np.zeros((0, F.n)), F))


def _error_matches(F, vectors, err):
    """The reported error equals the recomputed one up to round-off."""
    return (_finite(vectors, err)
            and abs(hs_error(vectors, F) - err) <= 1e-6 * err + _roundoff(F))


def check_approx(F, res):
    """Output check for `approximate`: finite vectors, err_opt matching an
    independent recomputation, and err_opt <= err_gp up to round-off."""
    return (_error_matches(F, res.refined.vectors, res.err_opt)
            and _finite(res.gp.vectors, res.err_gp)
            and res.err_opt <= res.err_gp * (1.0 + 1e-9) + _roundoff(F))


def check_decompose(F, res):
    """Output check for `decompose`: a reported success must hold when the
    relative residual is recomputed from every returned decomposition."""
    if not _finite(res.relative_residual):
        return False
    if not res.success:
        return res.relative_residual > DECOMP_TOL
    scale = 1.0 + hs_error(np.zeros((0, F.n)), F)
    found = [res.decomposition, *res.decompositions]
    rel = [hs_error(d.vectors, F) / scale for d in found]
    return (all(_finite(d.vectors) for d in found)
            and max(rel) <= DECOMP_TOL
            and abs(rel[0] - res.relative_residual) <= 1e-12)


def _timed(fn, *args, **kwargs):
    """fn's result, wall time and process CPU time (all threads)."""
    t0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0, time.process_time() - c0


# ---------------------------------------------------------------- table-small

TABLE_GRID = [(n, m, r, eps) for n, m in ((10, 3), (10, 4))
              for r in (1, 3, 5) for eps in (1e-2, 1e-4)]


def table_inputs(seed, tiny=False):
    grid = [(4, 3, 2, 1e-3)] if tiny else TABLE_GRID
    sweeps = []
    for i in range(1 if tiny else 32):
        sweep = []
        for c, (n, m, r, eps) in enumerate(grid):
            F0, _ = random_low_rank(n, m, r, seed=[seed, c, i, 0])
            sweep.append((perturb(F0, eps, seed=[seed, c, i, 1]), r, eps,
                          [seed, c, i, 2]))
        sweeps.append(sweep)
    return sweeps


def table_run(inst):
    """One sweep: `approximate` once on each grid cell.  A sweep, not a
    single call, is the operation because call times differ by cell, and the
    median of a mix of cells would fall between two cells' times."""
    wall = cpu = 0.0
    ok = True
    err_gp, err_opt = [], []
    for F, r, eps, key in inst:
        res, w, c = _timed(pipeline.approximate, F, r, seed=key)
        wall += w
        cpu += c
        ok = ok and check_approx(F, res)
        err_gp.append(res.err_gp / eps)
        err_opt.append(res.err_opt / eps)
    return wall, cpu, {"ok": ok, "err_gp": err_gp, "err_opt": err_opt}


# ----------------------------------------------------- nls-scaled and nls-leg

def _scaled(seed, t, n, m, r):
    """Criterion 6's instance: term i carries weight tau^i with
    tau = 1000^(1/r), plus noise of norm 1e-4."""
    F0, _ = random_low_rank(n, m, r, seed=[seed, t, 0], tau=1000.0 ** (1.0 / r))
    return perturb(F0, 1e-4, seed=[seed, t, 1])


def _random_start(m, r, n, key):
    rng = np.random.default_rng(key)
    return Decomposition(m, rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))


def nls_inputs(seed, tiny=False):
    n, m, r = (4, 3, 3) if tiny else (10, 3, 12)
    return [(_scaled(seed, t, n, m, r), r, 1e-4, [seed, t, 2],
             [_random_start(m, r, n, [seed, t, 3, k])
              for k in range(1 if tiny else NLS_RESTARTS)])
            for t in range(2 if tiny else 8)]


def nls_run(inst):
    """One paired trial as in `bench.run_nls_comparison`: the pipeline, then
    the best of several random-start refinements under the stock budget."""
    F, r, eps, key, starts = inst
    res, gp_s, gp_cpu = _timed(pipeline.approximate, F, r, seed=key)
    legs, nls_s, nls_cpu = _timed(
        lambda: [pipeline.refine(F, s, bench.STOCK_NLS_CONFIG) for s in starts])
    err_nls = min(leg.error for leg in legs)
    ratio = err_nls / res.err_opt if res.err_opt > 0 else float("inf")
    ok = (check_approx(F, res) and _finite(ratio)
          and all(_error_matches(F, leg.decomposition.vectors, leg.error)
                  for leg in legs))
    return gp_s + nls_s, gp_cpu + nls_cpu, {
        "ok": ok, "err_gp": [res.err_gp / eps], "err_opt": [res.err_opt / eps],
        "gp_s": gp_s, "nls_s": nls_s, "nls_ratio": ratio}


def nls_leg_inputs(seed, tiny=False):
    n, m, r = (4, 3, 3) if tiny else (10, 3, 12)
    return [(_scaled(seed, t, n, m, r), 1e-4, _random_start(m, r, n, [seed, t, 3]))
            for t in range(2 if tiny else 16)]


def nls_leg_run(inst):
    """One random-start refinement, the start of a leg of the nls-scaled
    baseline, capped at NLS_LEG_CONFIG's 40 iterations: the same LM work
    in every operation, and enough operations in a run for a steady
    median."""
    F, eps, start = inst
    leg, wall, cpu = _timed(pipeline.refine, F, start, NLS_LEG_CONFIG)
    ok = (_error_matches(F, leg.decomposition.vectors, leg.error)
          and leg.error <= hs_error(start.vectors, F) * (1.0 + 1e-9) + _roundoff(F))
    return wall, cpu, {"ok": ok, "err_nls": leg.error / eps}


# ------------------------------------------------------------------ large-fit

def large_inputs(seed, tiny=False):
    n, m, r = (4, 4, 3) if tiny else (10, 6, 20)
    out = []
    for t in range(4):
        F0, _ = random_low_rank(n, m, r, seed=[seed, t, 0])
        out.append((perturb(F0, 1e-4, seed=[seed, t, 1]), r, 1e-4, [seed, t, 2]))
    return out


def large_run(inst):
    F, r, eps, key = inst
    (sv, res), wall, cpu = _timed(lambda: (catalecticant.catalecticant_spectrum(F),
                                           pipeline.approximate(F, r, seed=key)))
    ok = (_finite(sv) and np.all(sv >= 0) and np.all(np.diff(sv) <= 0)
          and sv.size >= r and check_approx(F, res))
    return wall, cpu, {"ok": bool(ok), "err_gp": [res.err_gp / eps],
                       "err_opt": [res.err_opt / eps]}


# -------------------------------------------------------------- decomp-search

# (n, m, r, restarts, distinct): the criterion-7 cases, then a distinct-mode
# search whose every start refits and runs the commutator LM
DECOMP_CASES = [(6, 3, 4, 0, False), (4, 5, 10, 0, False),
                (3, 4, 5, 5, False), (3, 5, 8, 5, True)]
DECOMP_TINY = [(3, 4, 5, 1, False), (3, 4, 6, 1, True)]


def decomp_inputs(seed, tiny=False):
    cases = DECOMP_TINY if tiny else DECOMP_CASES
    rounds = []
    for i in range(1 if tiny else 128):
        rounds.append([(random_low_rank(n, m, r, seed=[seed, c, i, 0])[0], r,
                        restarts, distinct, [seed, c, i, 1])
                       for c, (n, m, r, restarts, distinct) in enumerate(cases)])
    return rounds


def decomp_run(inst):
    """One round: `decompose` once on each case."""
    wall = cpu = 0.0
    ok = True
    successes = []
    for F, r, restarts, distinct, key in inst:
        res, w, c = _timed(pipeline.decompose, F, r, residual_tol=DECOMP_TOL,
                           restarts=restarts, seed=key, distinct=distinct)
        wall += w
        cpu += c
        ok = ok and check_decompose(F, res)
        successes.append(bool(res.success))
    return wall, cpu, {"ok": ok, "successes": successes}


# ------------------------------------------------------------------ summaries

def _p50(records, key):
    return float(np.median([rec[key] for rec in records]))


def _approx_accuracy(records):
    # errors are lists: a table-small sweep holds one per grid cell
    err_gp = [e for rec in records for e in rec["err_gp"]]
    err_opt = [e for rec in records for e in rec["err_opt"]]
    return {"err_gp.p50": (float(np.median(err_gp)), "eps"),
            "err_opt.p50": (float(np.median(err_opt)), "eps"),
            "err_opt.max": (float(max(err_opt)), "eps")}


def _nls_accuracy(records):
    out = _approx_accuracy(records)
    out.update({"gp_s.p50": (_p50(records, "gp_s"), "s"),
                "nls_s.p50": (_p50(records, "nls_s"), "s"),
                "nls_ratio.p50": (_p50(records, "nls_ratio"), "ratio")})
    return out


def _nls_leg_accuracy(records):
    return {"err_nls.p50": (_p50(records, "err_nls"), "eps")}


def _decomp_accuracy(records):
    flags = [s for rec in records for s in rec["successes"]]
    return {"success_rate": (sum(flags) / len(flags), "ratio")}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object      # (seed, tiny=False) -> list of instances
    run: object         # instance -> (wall s, cpu s, record)
    accuracy: object    # records of operations that passed -> {name: (value, unit)}
    # accuracy metric names, all of them deterministic in the seed; the traced
    # run must reproduce them bit for bit
    accuracy_names: tuple


WORKLOADS = {w.name: w for w in (
    Workload("table-small", table_inputs, table_run, _approx_accuracy,
             ("err_gp.p50", "err_opt.p50", "err_opt.max")),
    Workload("nls-scaled", nls_inputs, nls_run, _nls_accuracy,
             ("err_gp.p50", "err_opt.p50", "err_opt.max", "nls_ratio.p50")),
    Workload("nls-leg", nls_leg_inputs, nls_leg_run, _nls_leg_accuracy,
             ("err_nls.p50",)),
    Workload("large-fit", large_inputs, large_run, _approx_accuracy,
             ("err_gp.p50", "err_opt.p50", "err_opt.max")),
    Workload("decomp-search", decomp_inputs, decomp_run, _decomp_accuracy,
             ("success_rate",)),
)}
