"""End-to-end low-rank approximation and decomposition.

Stages, given a target rank r (estimated from the flattening spectrum
when not supplied):

1. fit the generating matrix columns by least squares (`genfit`),
   tuning any free parameters to make the multiplication matrices
   commute (an LM over the fit's affine companion map);
2. extract candidate zeros through a mixed Schur decomposition
   (`zerosolve`);
3. fit one coefficient per zero by weighted least squares and fold the
   m-th root of each coefficient into its vector: this is the algebraic
   approximation;
4. refine all vector entries jointly by damped least squares on the
   Hilbert-Schmidt error: this is the optimized approximation, never
   worse than the algebraic one.

`_run` runs the stages for one commutator start and fills its
diagnostics.  `_search` is the one start loop: it settles the rank and
calls `_run` once per start.  `approximate` and `decompose` differ only
in how they pick among its runs: `approximate` keeps the smallest
err_opt, `decompose` accepts runs whose relative residual clears a
tolerance, optionally collecting all distinct decompositions found.
`approximate`, `decompose` and `refine` run BLAS on one thread and
restore the caller's thread counts (`one_blas_thread`).  The stages only
flag trouble in the diagnostics; `_warn_results` warns (`ResultWarning`).
"""

import operator
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .tensors import Decomposition, compact_size, transform
from .catalecticant import catalecticant_spectrum, estimate_rank
from .genfit import monomial_basis, fit_generating, optimize_generating, \
    companion_matrices
from .zerosolve import commutation_gram, select_mixing, extract_zeros, \
    poly_residual
from .numerics import levenberg_marquardt, minnorm_lstsq, one_blas_thread, \
    seed_key

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


def fit_coefficients(F, zeros):
    """Minimum-norm weighted least squares for the coefficients c_i in
    sum_i c_i (1, v_i)^{(m)} ~ F; the weights make the objective the
    Hilbert-Schmidt error; v^alpha is the homogeneous monomial of (1, v)."""
    tab = F.table
    P = tab.monomials(np.column_stack([np.ones(len(zeros)), zeros]))
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
    """Residual of the weighted fit error and its Gauss-Newton normal
    system, as holomorphic functions of the flattened complex vector
    entries u (length r*n, term i in u[i*n:(i+1)*n]).

    The residual is the explicit weighted difference f = sqrt(w) * R with
    R = sum_i u_i^(m) - F in compact entries; expanding ||R||^2 through
    Gram terms instead would cancel away the 1e-12-level residuals that
    `decompose` accepts on.  The weighted compact inner product is the
    dense one, so with G[i, l] = u_i^H u_l the (i, l) block of J^H J is

        m G_il^(m-1) I + m (m-1) G_il^(m-2) u_l conj(u_i)^T,

    and J^H f = m conj(V) (w' * R[beta + e_j]), where V[i, beta] = u_i^beta
    over the degree-(m-1) exponents beta (the first compact_size(n, m-1)
    rows of `alpha_mat`), w'_beta = (m-1)!/beta! and beta + e_j is
    gathered through `ExponentTable.sum_slots`, e_0 .. e_{n-1} being the
    table's first n exponents.  The residual sums the terms' u_i^alpha
    from V in blocks (`ExponentTable.power_sums`) and keeps V, and
    `normal` reuses it when handed the very array the residual last saw,
    as `levenberg_marquardt` does with the point it accepts.  Neither
    forms the N x rn Jacobian nor an (r, N) array of the terms'
    monomials; zero entries need no special case."""
    n, m = F.n, F.m
    tab = F.table
    sw = tab.sqrt_weights
    target = sw * F.values
    k = compact_size(n, m - 1)     # the degree-(m-1) exponents beta
    # slots of beta + e_j: j = 0 raises the slack power, j >= 1 alpha_j
    up = tab.sum_slots(k, n)
    # w'_beta = w_alpha * alpha_0 / m for alpha = beta + e_0
    wb = tab.weights[up[:, 0]] * (m - tab.alpha_mat[:k].sum(axis=1)) / m

    last = [None, None]     # the residual's latest point and its V

    def residual(u):
        U = u.reshape(r, n)
        V = tab.monomials(U, m - 1)
        last[:] = u, V
        return sw * tab.power_sums(U, V) - target

    def normal(u, f):
        U = u.reshape(r, n)
        G = U.conj() @ U.T
        JhJ = ((m * (m - 1) * G ** max(m - 2, 0))[:, None, :, None]
               * U.T[None, :, :, None] * U.conj()[:, None, None, :])
        j = np.arange(n)
        JhJ[:, j, :, j] += m * G ** (m - 1)     # the delta_jk term
        V = last[1] if last[0] is u else tab.monomials(U, m - 1)
        R = f / sw
        Jhf = m * (V.conj() @ (wb[:, None] * R[up]))
        return JhJ.reshape(r * n, r * n), Jhf.ravel()

    return residual, normal


@one_blas_thread
def refine(F, start, config=None):
    """Jointly optimize all vector entries by damped least squares, starting
    from `start`.  Each step takes the Gauss-Newton normal system in closed
    form from the Gram matrix of the vectors (`_refine_closures`, after
    Phan, Tichavsky and Cichocki, SIMAX 2013), so no N x rn Jacobian is
    formed.  Only improving steps are taken, so the returned error is at
    most the starting error (up to roundoff in its evaluation)."""
    r, n = start.rank, start.n
    if r == 0:
        return RefineResult(start, F.norm(), None)
    residual, normal = _refine_closures(F, r)
    lm = levenberg_marquardt(residual, normal,
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


def _run(F, r, start, frames, *, seed, lm_config, skip_refine,
         coordinate_shuffle):
    """Runs one start: every stage of commutator start `start` at rank r,
    in the plain coordinate frame or the shuffled one (see `approximate` for
    `coordinate_shuffle`; None runs the shuffled frame after a plain run
    whose zeros run off or whose result explains none of F).  It fills the
    diagnostics; the caller issues the result warnings (`_warn_results`).

    `frames` is the caller's dict {shuffle: (G, Q, fit)}: F in that frame,
    the Haar unitary Q that took it there (None in the plain frame) and G's
    generating fit.  A frame missing from it is built and added, so calls
    on the same F, r and seed that share the dict fit each frame once."""
    beyond = bool(r > compact_size(F.n, F.m // 2))
    norm = F.norm()
    shuffles = (False, True) if coordinate_shuffle is None else (bool(coordinate_shuffle),)
    for shuffle in shuffles:
        diag = {"rank": int(r), "coordinate_shuffle": shuffle,
                "beyond_flattening": beyond, **_NOT_RUN}
        if r == 0:
            empty = Decomposition(F.m, np.zeros((0, F.n)))
            return ApproxResult(empty, empty, norm, norm, diag)

        if shuffle not in frames:
            G, Q = F, None
            if shuffle:
                rng = np.random.default_rng(seed_key(seed, 3))
                Z = rng.standard_normal((F.n, F.n)) + 1j * rng.standard_normal((F.n, F.n))
                Q, R = np.linalg.qr(Z)
                Q = Q * (np.diag(R) / np.abs(np.diag(R)))[None, :]   # Haar unitary
                G = transform(F, Q)
            frames[shuffle] = (G, Q, fit_generating(G, monomial_basis(G.n, G.m, r)))
        G, Q, fit = frames[shuffle]
        opt = optimize_generating(fit, lm_config, seed=seed_key(seed, 1),
                                  start=start)
        M = companion_matrices(opt.matrix, fit.basis)
        sel = select_mixing(commutation_gram(M), seed=seed_key(seed, 2, start))
        ext = extract_zeros(M, sel.xi)
        gp = refined = terms_from_zeros(fit_coefficients(G, ext.zeros), ext.zeros, G.m)
        err_gp = err_opt = (gp.tensor() - G).norm()
        diag.update({
            "n_free_params": fit.n_params,
            "generating_residual": float(fit.residuals.max()) if fit.residuals.size else 0.0,
            "commutator_objective": opt.objective,
            "omega_status": opt.status,
            "mixing_fallback": sel.fallback,
            "schur_repeated": ext.repeated,
            "poly_residual": poly_residual(opt.matrix, fit.basis, ext.zeros),
            "zero_magnitude": float(np.abs(ext.zeros).max()) if ext.zeros.size else 0.0,
        })
        if not skip_refine:
            rr = refine(G, gp, lm_config)
            refined, err_opt = rr.decomposition, rr.error
            diag.update({"refine_status": rr.lm.status,
                         "refine_iterations": rr.lm.iterations,
                         "refine_evaluations": rr.lm.residual_evaluations})
        if Q is not None:
            # map the vectors back: each term (Q u)^{(m)} of G is u^{(m)} of F
            gp = Decomposition(F.m, gp.vectors @ Q.conj())
            refined = Decomposition(F.m, refined.vectors @ Q.conj())
            err_gp = (gp.tensor() - F).norm()
            err_opt = (refined.tensor() - F).norm()
        if not np.any(F.values.imag != 0):
            # u and zeta*u (zeta^m = 1) are the same term: test realness after
            # rotating each vector's largest entry onto the real axis
            U = refined.vectors
            lead = U[np.arange(U.shape[0]), np.abs(U).argmax(axis=1)]
            phase = np.where(np.abs(lead) > 0, lead / np.maximum(np.abs(lead), 1e-300), 1.0)
            diag["nonreal_output"] = bool(np.abs((U / phase[:, None]).imag).max()
                                          > 1e-10 * max(np.abs(U).max(), 1e-300))
        if not (_explains_nothing(norm, r, err_opt)
                or diag["zero_magnitude"] > SHUFFLE_TRIGGER):
            break
    diag["auto_shuffled"] = coordinate_shuffle is None and shuffle
    return ApproxResult(gp, refined, err_gp, err_opt, diag)


def _explains_nothing(norm, r, err_opt):
    # a rank >= 1 result at err_opt = ||F||, which some rank-one term
    # always beats, explains none of F
    return r > 0 and norm > 0 and err_opt >= (1 - 1e-6) * norm


def _integer(value, requirement):
    # operator.index accepts Python and numpy integers, and nothing else
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{requirement}, got {value!r}") from None


def _search(F, rank, rank_tol, restarts, done, **run):
    """The start loop of `approximate` and `decompose`.

    rank=None estimates the rank from the flattening spectrum with
    relative tolerance `rank_tol`.  Then `_run` (given the keyword
    arguments `run`) runs commutator start 0 (the zero parameter vector),
    1, .., `restarts` (seeded Gaussian starts) in order, and the loop stops
    early after the first run for which `done(run)` holds, or after a fit
    with no free parameters, which every further start would repeat.  No
    start depends on the ones before it, so fewer restarts repeat the
    first starts of more.  The starts share one dict of coordinate frames
    (`_run`): the basis and generating fit are built once per frame, at
    most twice per search.  Returns the spectrum (None when `rank` was
    given) and the runs in start order.  Raises TypeError unless `rank`
    is an integer or None and `restarts` an integer, and ValueError unless
    restarts >= 0 and rank_tol >= 0, also when `rank` is given."""
    rank = None if rank is None else _integer(rank, "rank must be an integer or None")
    restarts = _integer(restarts, "restarts must be an integer")
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if not rank_tol >= 0:
        raise ValueError(f"rank tolerance must be nonnegative, got {rank_tol}")
    spectrum = None
    if rank is None:
        spectrum = catalecticant_spectrum(F)
        rank = estimate_rank(spectrum, rank_tol).rank
    frames, runs = {}, []
    for start in range(restarts + 1):
        runs.append(_run(F, rank, start, frames, **run))
        if done(runs[-1]) or runs[-1].diagnostics["n_free_params"] == 0:
            break
    return spectrum, runs


class ResultWarning(UserWarning):
    """The library's warnings about a returned result (`_warn_results`)."""


def _warn_results(F, returned, best):
    """Every library warning, from the diagnostics of the returned runs and
    the best run only.  The callers, `approximate` and `decompose`, are
    wrapped by `one_blas_thread`: stacklevel 4 skips this frame, theirs and
    the decorator's `inner` (5 through a helper) to reach their caller."""
    if any(run.diagnostics["schur_repeated"] for run in [*returned, best]):
        warnings.warn("nearly repeated Schur values: extracted zeros may coincide "
                      "and the coefficient fit may be ill-conditioned",
                      ResultWarning, stacklevel=4)
    if any(run.diagnostics["nonreal_output"] for run in returned):
        warnings.warn("input tensor is real but the decomposition found is "
                      "genuinely complex", ResultWarning, stacklevel=4)
    r = best.diagnostics["rank"]
    if _explains_nothing(F.norm(), r, best.err_opt):
        warnings.warn(f"the rank-{r} approximation explains none of the tensor "
                      "(err_opt = ||F||)", ResultWarning, stacklevel=4)


@one_blas_thread
def approximate(F, rank=None, *, rank_tol=1e-6, seed=0, restarts=0,
                lm_config=None, skip_refine=False, coordinate_shuffle=None):
    """Rank-r approximation of F.

    `rank` (None estimates it with relative tolerance `rank_tol`) and
    `restarts` (extra commutator starts) set up the search of `_search`;
    each start is a whole run and the smallest err_opt wins (the first on
    ties).  Diagnostics `omega_start_objectives` and `omega_start_index`
    give each start's commutator objective and the winner; `wall_time`
    spans the call.  `coordinate_shuffle` applies a seeded random unitary
    change of coordinates and undoes it afterwards; the default None
    auto-enables it when the extracted zeros have coordinates beyond 1e6
    (a symptom of a leading vector entry near zero, which the compact
    parameterization cannot represent) or when a rank >= 1 result
    explains none of a nonzero F (err_opt = ||F||, which some rank-one
    term always beats; every u_1 = 0 gives it).  A returned result that
    still explains nothing, is genuinely complex for a real F or has
    nearly repeated Schur values comes with a warning (a discarded pass
    warns nothing).  `skip_refine` stops after the algebraic stage.
    """
    t0 = time.perf_counter()
    spectrum, runs = _search(F, rank, rank_tol, restarts, lambda run: False,
                             seed=seed, lm_config=lm_config, skip_refine=skip_refine,
                             coordinate_shuffle=coordinate_shuffle)
    res = min(runs, key=lambda run: run.err_opt)
    diag = res.diagnostics
    _warn_results(F, [res], res)
    if diag["rank"] > 0:    # rank 0 runs no commutator stage
        diag["omega_start_objectives"] = [
            float(run.diagnostics["commutator_objective"]) for run in runs]
        diag["omega_start_index"] = runs.index(res)
    if spectrum is not None:
        diag["rank_estimated"] = True
        diag["spectrum"] = [float(v) for v in spectrum]
    diag["wall_time"] = time.perf_counter() - t0
    return res


def _match_costs(a, b):
    """(r, r) distances ||a_i - zeta b_j|| minimized over the m-th roots of
    unity zeta, between the vectors of two decompositions of one shape."""
    phases = np.exp(2j * np.pi * np.arange(a.m) / a.m)
    diff = a.vectors[:, None, None, :] - phases[None, None, :, None] * b.vectors[None, :, None, :]
    return np.linalg.norm(diff, axis=3).min(axis=2)


def _has_matching(ok):
    """Whether the square boolean matrix `ok` has a perfect matching, a
    permutation p with every ok[i, p[i]]: no empty row or column, then
    Kuhn's augmenting paths, each grown and searched on an explicit stack."""
    if not (ok.any(axis=0).all() and ok.any(axis=1).all()):
        return False
    adj = [np.flatnonzero(row) for row in ok]
    owner = [-1] * len(adj)     # the row matched to each column
    for root in range(len(adj)):
        seen = [False] * len(adj)
        # an alternating path: rows[k] would take cols[k], owned by rows[k + 1]
        rows, cols, todo = [root], [], [iter(adj[root])]
        while rows:
            j = next((j for j in todo[-1] if not seen[j]), None)
            if j is None:       # the last row has no unseen column: back up
                rows.pop()
                todo.pop()
                if cols:
                    cols.pop()
                continue
            seen[j] = True
            cols.append(j)
            if owner[j] < 0:    # a free column: shift the path onto it
                for i, c in zip(rows, cols):
                    owner[c] = i
                break
            rows.append(owner[j])
            todo.append(iter(adj[owner[j]]))
        else:
            return False
    return True


def match_distance(a, b):
    """Bottleneck distance between the vector sets of two decompositions:
    the least t such that some pairing moves no vector of `a`, up to an
    m-th root of unity, by more than t from its partner in `b`.  Found by
    a scan of the sorted pair distances, one perfect-matching test each
    (at most r^2 of them).  Decompositions of different shape are
    infinitely far apart."""
    if (a.rank, a.n, a.m) != (b.rank, b.n, b.m):
        return float("inf")
    if a.rank == 0:
        return 0.0
    cost = _match_costs(a, b)
    return float(next(t for t in np.unique(cost) if _has_matching(cost <= t)))


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

    Runs the starts of `_search` (`rank`, `rank_tol` and `restarts` as in
    `approximate`) and accepts a run when err_opt <= residual_tol *
    (1 + ||F||).  Stops at the first success, or with `distinct` runs
    every start and keeps each success that no pairing matches to a kept
    one within 0.1 * (largest vector norm), i.e. whose `match_distance` to
    every kept one exceeds that (one perfect-matching test per kept one,
    at that tolerance).  `approximate` with k restarts returns the best of
    the first k+1 starts.  The diagnostics include the search's
    `wall_time` in seconds.  Raises ValueError unless residual_tol >= 0.
    Warns, as `approximate` does, about the decompositions it returns and
    about its best run.
    """
    if not residual_tol >= 0:
        raise ValueError(f"residual_tol must be nonnegative, got {residual_tol}")
    t0 = time.perf_counter()
    scale = 1.0 + F.norm()
    _, runs = _search(F, rank, rank_tol, restarts,
                      lambda run: not distinct and run.err_opt / scale <= residual_tol,
                      seed=seed, lm_config=lm_config, skip_refine=False, coordinate_shuffle=None)
    rels = [run.err_opt / scale for run in runs]
    per_start = [{"start": s, "relative_residual": rel, "success": rel <= residual_tol,
                  "commutator_objective": run.diagnostics["commutator_objective"]}
                 for s, (run, rel) in enumerate(zip(runs, rels))]
    kept = []   # out of distinct mode, only the last run can succeed
    for run, rec in zip(runs, per_start):
        if rec["success"] and not any(
                _has_matching(_match_costs(run.refined, d.refined) <=
                              0.1 * max(np.abs(run.refined.vectors).max(initial=0.0),
                                        np.abs(d.refined.vectors).max(initial=0.0)))
                for d in kept):
            kept.append(run)
    rel, res = min(zip(rels, runs), key=lambda pair: pair[0])
    success = rel <= residual_tol
    returned = kept if distinct else ([res] if success else [])
    _warn_results(F, returned, res)
    return DecomposeResult(
        success=success,
        decomposition=res.refined if success else None,
        relative_residual=rel,
        decompositions=[run.refined for run in returned],
        attempts=len(runs),
        diagnostics={"rank": res.diagnostics["rank"], "starts": per_start,
                     "norm_scale": scale, "wall_time": time.perf_counter() - t0})
