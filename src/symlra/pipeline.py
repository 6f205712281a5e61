"""End-to-end low-rank approximation and decomposition.

Stages, given a target rank r (estimated from the flattening spectrum
when not supplied):

1. fit the generating matrix columns by least squares (`genfit`),
   tuning any free parameters to make the multiplication matrices
   commute;
2. extract candidate zeros through a mixed Schur decomposition
   (`zerosolve`);
3. fit one coefficient per zero by weighted least squares and fold the
   m-th root of each coefficient into its vector: this is the algebraic
   approximation;
4. refine all vector entries jointly by damped least squares on the
   Hilbert-Schmidt error: this is the optimized approximation, never
   worse than the algebraic one.

`approximate` runs the stages once; `decompose` repeats them over
several starting points of the commutator minimization and accepts runs
whose relative residual clears a tolerance, optionally collecting all
distinct decompositions found.  `approximate`, `decompose` and `refine`
run BLAS on one thread and restore the caller's thread counts on return
(`numerics.one_blas_thread`).
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .tensors import SymTensor, Decomposition, table, compact_size, transform
from .catalecticant import catalecticant_spectrum, estimate_rank
from .genfit import monomial_basis, fit_generating, optimize_generating, \
    companion_matrices
from .zerosolve import commutation_gram, select_mixing, extract_zeros
from .numerics import (LMConfig, levenberg_marquardt, minnorm_lstsq,
                       one_blas_thread)

# zeros with coordinates beyond this are treated as an artifact of a leading
# vector entry near zero; a random unitary change of coordinates fixes it
SHUFFLE_TRIGGER = 1e6

# every diagnostics key after `rank`, `coordinate_shuffle` and
# `beyond_flattening`, at its value for a stage that did not run
_NOT_RUN = {"n_free_params": 0, "generating_residual": None,
            "commutator_objective": None, "omega_status": None,
            "omega_start_objectives": None, "omega_start_index": None,
            "mixing_fallback": False, "schur_repeated": False,
            "poly_residual": None, "zero_magnitude": 0.0,
            "refine_status": None, "refine_iterations": None,
            "refine_evaluations": None, "nonreal_output": False,
            "wall_time": None, "rank_estimated": False, "spectrum": None,
            "auto_shuffled": False}


def seed_key(seed, *extra):
    """Flatten a seed plus derivation tags into one entropy list."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed), *extra]
    return [*map(int, seed), *extra]


def fit_coefficients(F, zeros):
    """Minimum-norm weighted least squares for the coefficients c_i in
    sum_i c_i (1, v_i)^{(m)} ~ F; the weights make the objective the
    Hilbert-Schmidt error of the fit."""
    tab = F.table
    P = np.prod(zeros[:, None, :] ** tab.alpha_mat[None, :, :], axis=2)
    design = tab.sqrt_weights[:, None] * P.T
    rhs = tab.sqrt_weights * F.values
    c, _, _ = minnorm_lstsq(design, rhs)
    return c


def terms_from_zeros(coeffs, zeros, m):
    """Vectors u_i = c_i^(1/m) * (1, v_i) with the principal m-th root
    (argument in (-pi, pi]); zero coefficients give zero vectors."""
    c = np.asarray(coeffs, dtype=complex)
    roots = np.zeros_like(c)
    nz = c != 0
    roots[nz] = np.abs(c[nz]) ** (1.0 / m) * np.exp(1j * np.angle(c[nz]) / m)
    U = roots[:, None] * np.column_stack([np.ones(c.size), zeros])
    return Decomposition(m, U)


@dataclass(eq=False)
class RefineResult:
    decomposition: Decomposition
    error: float
    lm: object   # LMResult, or None when there was nothing to optimize


def _refine_closures(F, r):
    """Residual and analytic Jacobian of the weighted fit error as
    holomorphic functions of the flattened complex vector entries (length
    r*n)."""
    n = F.n
    tab = F.table
    pw = tab.powers
    sw = tab.sqrt_weights
    target = sw * F.values

    def residual(u):
        U = u.reshape(r, n)
        P = np.prod(U[:, None, :] ** pw[None, :, :], axis=2)
        return sw * P.sum(axis=0) - target

    def jacobian(u):
        U = u.reshape(r, n)
        Dc = np.empty((len(tab), r * n), dtype=complex)
        for i in range(r):
            Pi = U[i][None, :] ** pw
            left = np.ones_like(Pi)
            left[:, 1:] = np.cumprod(Pi[:, :-1], axis=1)
            right = np.ones_like(Pi)
            if n > 1:
                right[:, :-1] = np.cumprod(Pi[:, :0:-1], axis=1)[:, ::-1]
            # split off one factor so a zero entry stays differentiable
            Pm1 = U[i][None, :] ** np.maximum(pw - 1, 0)
            Dc[:, i * n:(i + 1) * n] = pw * Pm1 * left * right
        return sw[:, None] * Dc

    return residual, jacobian


@one_blas_thread
def refine(F, start, config=None):
    """Jointly optimize all vector entries by damped least squares, starting
    from `start`.  Only improving steps are taken, so the returned error is
    at most the starting error (up to roundoff in its evaluation)."""
    r, n = start.rank, start.n
    if r == 0:
        return RefineResult(start, F.norm(), None)
    residual, jacobian = _refine_closures(F, r)
    lm = levenberg_marquardt(residual, jacobian,
                             start.vectors.astype(complex).ravel(), config)
    refined = Decomposition(F.m, lm.x.reshape(r, n))
    return RefineResult(refined, lm.residual_norm, lm)


@dataclass(eq=False)
class ApproxResult:
    gp: Decomposition        # algebraic approximation (stage 3)
    refined: Decomposition   # after joint refinement (equals gp if skipped)
    err_gp: float
    err_opt: float
    diagnostics: dict


def _maybe_warn_nonreal(F, refined, diag):
    if np.any(F.values.imag != 0) or refined.rank == 0:
        return
    U = refined.vectors
    # phase freedom: u and zeta*u (zeta^m = 1) are the same term, so test
    # realness after rotating each vector's largest entry onto the real axis
    lead = U[np.arange(U.shape[0]), np.abs(U).argmax(axis=1)]
    phase = np.where(np.abs(lead) > 0, lead / np.maximum(np.abs(lead), 1e-300), 1.0)
    aligned = U / phase[:, None]
    scale = max(np.abs(U).max(), 1e-300)
    if np.abs(aligned.imag).max() > 1e-10 * scale:
        diag["nonreal_output"] = True
        warnings.warn("input tensor is real but the decomposition found is "
                      "genuinely complex", stacklevel=3)


def _run_stages(F, r, *, seed, omega_starts, lm_config, skip_refine, diag):
    basis = monomial_basis(F.n, F.m, r)
    fit = fit_generating(F, basis)
    opt = optimize_generating(fit, lm_config, seed=seed_key(seed, 1),
                              starts=omega_starts)
    M = companion_matrices(opt.matrix, basis)
    sel = select_mixing(commutation_gram(M),
                        seed=seed_key(seed, 2, omega_starts[-1]))
    ext = extract_zeros(M, sel.xi, opt.matrix, basis)
    coeffs = fit_coefficients(F, ext.zeros)
    gp = terms_from_zeros(coeffs, ext.zeros, F.m)
    err_gp = (gp.tensor() - F).norm()

    diag.update({
        "n_free_params": fit.n_params,
        "generating_residual": float(fit.residuals.max()) if fit.residuals.size else 0.0,
        "commutator_objective": opt.objective,
        "omega_status": opt.status,
        "omega_start_objectives": [float(v) for v in opt.start_objectives],
        "omega_start_index": int(opt.start_index),
        "mixing_fallback": sel.fallback,
        "schur_repeated": ext.repeated,
        "poly_residual": ext.poly_residual,
        "zero_magnitude": float(np.abs(ext.zeros).max()) if ext.zeros.size else 0.0,
    })
    if skip_refine:
        return gp, gp, err_gp, err_gp
    rr = refine(F, gp, lm_config)
    diag.update({"refine_status": rr.lm.status,
                 "refine_iterations": rr.lm.iterations,
                 "refine_evaluations": rr.lm.residual_evaluations})
    return gp, rr.decomposition, err_gp, rr.error


def _approximate_once(F, r, *, shuffle, seed, omega_starts, lm_config,
                      skip_refine):
    t0 = time.perf_counter()
    m1 = F.m // 2
    diag = {"rank": int(r), "coordinate_shuffle": bool(shuffle),
            "beyond_flattening": bool(
                r > min(compact_size(F.n, m1), compact_size(F.n, F.m - m1))),
            **_NOT_RUN}

    if r == 0:
        empty = Decomposition(F.m, np.zeros((0, F.n)))
        err = F.norm()
        diag["wall_time"] = time.perf_counter() - t0
        return ApproxResult(empty, empty, err, err, diag)

    if shuffle:
        rng = np.random.default_rng(seed_key(seed, 3))
        Z = rng.standard_normal((F.n, F.n)) + 1j * rng.standard_normal((F.n, F.n))
        Q, R = np.linalg.qr(Z)
        Q = Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]   # Haar unitary
        G = transform(F, Q)
        gp, refined, _, _ = _run_stages(
            G, r, seed=seed, omega_starts=omega_starts, lm_config=lm_config,
            skip_refine=skip_refine, diag=diag)
        # map the vectors back: each term (Q u)^{(m)} of G is u^{(m)} of F
        gp = Decomposition(F.m, gp.vectors @ Q.conj())
        refined = Decomposition(F.m, refined.vectors @ Q.conj())
        err_gp = (gp.tensor() - F).norm()
        err_opt = (refined.tensor() - F).norm()
    else:
        gp, refined, err_gp, err_opt = _run_stages(
            F, r, seed=seed, omega_starts=omega_starts, lm_config=lm_config,
            skip_refine=skip_refine, diag=diag)

    _maybe_warn_nonreal(F, refined, diag)
    diag["wall_time"] = time.perf_counter() - t0
    return ApproxResult(gp, refined, err_gp, err_opt, diag)


@one_blas_thread
def approximate(F, rank=None, *, rank_tol=1e-6, seed=0, restarts=0,
                lm_config=None, skip_refine=False, coordinate_shuffle=None,
                omega_starts=None):
    """Rank-r approximation of F.

    rank=None estimates the rank from the flattening spectrum with
    relative tolerance `rank_tol`.  `restarts` adds seeded random starts
    to the commutator minimization (start 0 is always the zero
    parameter vector); `omega_starts` instead names the exact start
    indices to run (used by `decompose`).  `coordinate_shuffle` applies
    a seeded random unitary change of coordinates before the pipeline
    and undoes it afterwards; the default None auto-enables it when the
    extracted zeros have coordinates beyond 1e6 (a symptom of a leading
    vector entry near zero, which the compact parameterization cannot
    represent) or when a rank >= 1 result explains none of a nonzero F
    (err_opt = ||F||, which some rank-one term always beats; every u_1 = 0
    gives it).  A result that still explains nothing is returned with a
    warning.  `skip_refine` stops after the algebraic stage.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    spectrum = None
    if rank is None:
        spectrum = catalecticant_spectrum(F)
        rank = estimate_rank(spectrum, rank_tol).rank
    if omega_starts is None:
        omega_starts = list(range(restarts + 1))

    def run(shuffle):
        res = _approximate_once(F, rank, shuffle=shuffle, seed=seed,
                                omega_starts=omega_starts, lm_config=lm_config,
                                skip_refine=skip_refine)
        if spectrum is not None:
            res.diagnostics["rank_estimated"] = True
            res.diagnostics["spectrum"] = [float(v) for v in spectrum]
        return res

    def explains_nothing(res):
        norm = F.norm()
        return rank >= 1 and norm > 0 and res.err_opt >= (1 - 1e-6) * norm

    res = run(bool(coordinate_shuffle))
    if coordinate_shuffle is None and (
            res.diagnostics["zero_magnitude"] > SHUFFLE_TRIGGER
            or explains_nothing(res)):
        res = run(True)
        res.diagnostics["auto_shuffled"] = True
    if explains_nothing(res):
        warnings.warn(f"the rank-{rank} approximation explains none of the "
                      "tensor (err_opt = ||F||)", stacklevel=3)
    return res


def match_distance(a, b):
    """Bottleneck distance between the vector sets of two decompositions,
    after the best permutation and per-vector m-th-root-of-unity phase.
    Decompositions of different shape are infinitely far apart."""
    if (a.rank, a.n, a.m) != (b.rank, b.n, b.m):
        return float("inf")
    if a.rank == 0:
        return 0.0
    phases = np.exp(2j * np.pi * np.arange(a.m) / a.m)
    diff = a.vectors[:, None, None, :] - phases[None, None, :, None] * b.vectors[None, :, None, :]
    cost = np.linalg.norm(diff, axis=3).min(axis=2)
    row, col = linear_sum_assignment(cost)
    return float(cost[row, col].max())


@dataclass(eq=False)
class DecomposeResult:
    success: bool
    decomposition: Decomposition | None   # best successful run (smallest residual)
    relative_residual: float              # best err_opt / (1 + ||F||) seen
    decompositions: list                  # distinct successes (distinct mode)
    attempts: int
    diagnostics: dict


@one_blas_thread
def decompose(F, rank=None, *, residual_tol=1e-6, restarts=0, seed=0,
              distinct=False, lm_config=None, rank_tol=1e-6):
    """Exact-rank decomposition search.

    Runs the pipeline once per starting point of the commutator
    minimization (start 0: zero parameters; start k: seeded Gaussian) and
    accepts a run when err_opt <= residual_tol * (1 + ||F||).  Stops at
    the first success unless `distinct` is set, in which case all starts
    run and the successful decompositions are deduplicated by
    `match_distance` greater than 0.1 * (largest vector norm).
    """
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if rank is None:
        rank = estimate_rank(catalecticant_spectrum(F), rank_tol).rank
    scale = 1.0 + F.norm()
    best = None
    kept = []
    per_start = []
    attempts = 0
    for s in range(restarts + 1):
        res = approximate(F, rank, seed=seed, lm_config=lm_config,
                          omega_starts=[s])
        attempts += 1
        rel = res.err_opt / scale
        ok = rel <= residual_tol
        per_start.append({"start": s, "relative_residual": rel, "success": ok,
                          "commutator_objective": res.diagnostics["commutator_objective"]})
        if best is None or rel < best[0]:
            best = (rel, res)
        if ok:
            if distinct:
                is_new = all(
                    match_distance(res.refined, d) >
                    0.1 * max(np.abs(res.refined.vectors).max(initial=0.0),
                              np.abs(d.vectors).max(initial=0.0))
                    for d in kept)
                if is_new:
                    kept.append(res.refined)
            else:
                kept.append(res.refined)
                break
        # with no free parameters every start is identical; stop early
        if res.diagnostics["n_free_params"] == 0 and not distinct:
            break
    rel, res = best
    success = rel <= residual_tol
    return DecomposeResult(
        success=success,
        decomposition=res.refined if success else None,
        relative_residual=rel,
        decompositions=kept if distinct else ([res.refined] if success else []),
        attempts=attempts,
        diagnostics={"rank": rank, "starts": per_start,
                     "norm_scale": scale})
