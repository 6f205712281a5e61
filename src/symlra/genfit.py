"""Generating-system fit.

For a target rank r, the first r exponents in graded lex order form the
`core` monomial set; multiplying the core by each variable and removing
the core itself leaves the `border`.  For every border monomial x^alpha
the tensor imposes the least-squares system

    A[gamma, beta] = F_{beta+gamma},   b[gamma] = F_{alpha+gamma},

rows over all |gamma| <= m - |alpha|, columns over the core.  The rows
and the core are prefixes of the compact layout, so each system is one
gather through `ExponentTable.slots`.  A solution g expresses x^alpha as
sum_beta g_beta x^beta on the (unknown) zero set.
Column solutions are decoupled; rank-deficient columns keep their null
space as free parameters.  Stacking the border coefficient vectors gives
the r x |border| generating matrix G, from which one multiplication
matrix per variable follows.  The free parameters are tuned so the
multiplication matrices commute (they do exactly when F has rank r and
the core is interpolating).
"""

from dataclasses import dataclass, field

import numpy as np

from .tensors import compact_size, table
from .numerics import (LMConfig, levenberg_marquardt, minnorm_lstsq,
                       normal_equations)


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    n: int
    m: int
    rank: int
    core: tuple                 # first `rank` exponents, graded lex
    border: tuple               # multiplicative border of the core, graded lex
    # companion wiring, one list per variable: shifting core slot nu by e_i
    # lands either on another core slot (unit column) or on a border column
    unit_cols: tuple = field(repr=False)    # unit_cols[i] = ((nu, core_pos), ...)
    border_cols: tuple = field(repr=False)  # border_cols[i] = ((nu, border_col), ...)
    feeds: tuple = field(repr=False)        # feeds[col] = ((i, nu), ...) inverse wiring


def monomial_basis(n, m, r):
    """Core and border monomial sets for target rank r, plus companion wiring.

    Requires the whole border to stay within degree m, i.e.
    r <= C(n-1+m-1, m-1); beyond that the border systems would need
    entries of degree > m that the tensor does not have.
    """
    nbar = n - 1
    tab = table(n, m)
    if not 1 <= r <= len(tab):
        raise ValueError(f"rank {r} is out of range for n={n}, m={m}")
    # shifted[nu, i] = core[nu] + e_i, which lands in the core or the border
    shifted = tab.alpha_mat[:r, None, :] + np.eye(nbar, dtype=np.int64)
    too_deep = shifted[shifted.sum(axis=-1) > m].tolist()
    if too_deep:
        # all of degree m + 1, where graded lex puts the lex-largest first
        raise ValueError(
            f"rank {r} is too large for n={n}, m={m}: the border monomial "
            f"{tuple(max(too_deep))} has degree {m + 1} > m")
    slot = tab.slots(shifted)
    border_slots = np.unique(slot[slot >= r])
    col = np.searchsorted(border_slots, slot)
    unit_cols = [[] for _ in range(nbar)]
    bord_cols = [[] for _ in range(nbar)]
    feeds = [[] for _ in border_slots]
    for nu, i in np.ndindex(r, nbar):
        if slot[nu, i] < r:
            unit_cols[i].append((nu, int(slot[nu, i])))
        else:
            bord_cols[i].append((nu, int(col[nu, i])))
            feeds[col[nu, i]].append((i, nu))
    return MonomialBasis(
        n=n, m=m, rank=r, core=tab.alphas[:r],
        border=tuple(tab.alphas[k] for k in border_slots),
        unit_cols=tuple(tuple(c) for c in unit_cols),
        border_cols=tuple(tuple(c) for c in bord_cols),
        feeds=tuple(tuple(f) for f in feeds))


def generating_system(F, alpha, basis):
    """The least-squares system (A, b) tying border monomial alpha to the core."""
    d = F.m - sum(alpha)
    if d < 0:
        raise ValueError(f"exponent {alpha} exceeds degree {F.m}")
    tab = table(F.n, F.m)
    gammas = tab.alpha_mat[:compact_size(F.n, d)]
    return (F.values[tab.slots(gammas[:, None] + tab.alpha_mat[:basis.rank])],
            F.values[tab.slots(gammas + np.array(alpha, dtype=np.int64))])


@dataclass(eq=False)
class GeneratingFit:
    """Per-column minimum-norm solutions plus null-space parameterization.

    `matrix(omega)` assembles G = gls + (null-space directions) * omega,
    where omega is the complex free-parameter vector (length n_params,
    column slices in `param_slices`)."""
    basis: MonomialBasis
    gls: np.ndarray                 # (rank, n_border) minimum-norm solutions
    nulls: tuple                    # per column, orthonormal (rank, k_col)
    ranks: np.ndarray               # numerical rank of each column system
    residuals: np.ndarray           # ||A g - b|| per column at omega = 0
    param_slices: tuple
    n_params: int

    def matrix(self, omega=None):
        G = self.gls.copy()
        if omega is not None and self.n_params:
            omega = np.asarray(omega, dtype=complex)
            if omega.shape != (self.n_params,):
                raise ValueError(
                    f"expected {self.n_params} free parameters, got {omega.shape}")
            for col, sl in enumerate(self.param_slices):
                if sl.stop > sl.start:
                    G[:, col] += self.nulls[col] @ omega[sl]
        return G


def fit_generating(F, basis, rank_tol=None):
    """Solve every border column by minimum-norm least squares."""
    n_border = len(basis.border)
    gls = np.empty((basis.rank, n_border), dtype=complex)
    nulls = []
    ranks = np.empty(n_border, dtype=int)
    residuals = np.empty(n_border)
    slices = []
    offset = 0
    for col, alpha in enumerate(basis.border):
        A, b = generating_system(F, alpha, basis)
        x, null, rank = minnorm_lstsq(A, b, rank_tol)
        gls[:, col] = x
        nulls.append(null)
        ranks[col] = rank
        residuals[col] = np.linalg.norm(A @ x - b)
        slices.append(slice(offset, offset + null.shape[1]))
        offset += null.shape[1]
    return GeneratingFit(basis=basis, gls=gls, nulls=tuple(nulls),
                         ranks=ranks, residuals=residuals,
                         param_slices=tuple(slices), n_params=offset)


def companion_matrices(G, basis):
    """One r x r multiplication matrix per variable.

    Column nu of matrix i represents x_i * x^{core[nu]}: a unit vector when
    the shifted monomial is again in the core, else the matching column of G.
    """
    r = basis.rank
    nbar = basis.n - 1
    M = np.zeros((nbar, r, r), dtype=complex)
    for i in range(nbar):
        for nu, target in basis.unit_cols[i]:
            M[i, target, nu] = 1.0
        for nu, col in basis.border_cols[i]:
            M[i, :, nu] = G[:, col]
    return M


def commutator_residuals(M):
    """Entries of all pairwise commutators M_i M_j - M_j M_i, i < j, stacked."""
    nbar = M.shape[0]
    parts = [
        (M[i] @ M[j] - M[j] @ M[i]).ravel()
        for i in range(nbar) for j in range(i + 1, nbar)
    ]
    if not parts:
        return np.zeros(0, dtype=complex)
    return np.concatenate(parts)


def _commutator_jacobian(fit, M):
    """Complex Jacobian of `commutator_residuals` in the free parameters.

    The parameter block of border column c moves only the companion columns
    fed by c, so each block is assembled from rank-one updates."""
    basis = fit.basis
    r = basis.rank
    nbar = basis.n - 1
    npairs = nbar * (nbar - 1) // 2
    pair_row = {}
    k = 0
    for i in range(nbar):
        for j in range(i + 1, nbar):
            pair_row[(i, j)] = k * r * r
            k += 1
    Dc = np.zeros((npairs * r * r, fit.n_params), dtype=complex)
    for col, sl in enumerate(fit.param_slices):
        if sl.stop == sl.start:
            continue
        W = fit.nulls[col]                     # (r, k_col)
        for i, nu in basis.feeds[col]:
            # dM_i = W[:, l] e_nu^T for each direction l
            for j in range(nbar):
                if j == i:
                    continue
                a, b = (i, j) if i < j else (j, i)
                base = pair_row[(a, b)]
                D = np.zeros((r, r, W.shape[1]), dtype=complex)
                if i == a:
                    # d(M_a M_b - M_b M_a) = (dM_a) M_b - M_b (dM_a)
                    D += W[:, None, :] * M[b][nu, :][None, :, None]
                    D[:, nu, :] -= M[b] @ W
                else:
                    # d(M_a M_b - M_b M_a) = M_a (dM_b) - (dM_b) M_a
                    D[:, nu, :] += M[a] @ W
                    D -= W[:, None, :] * M[a][nu, :][None, :, None]
                Dc[base:base + r * r, sl] += D.reshape(r * r, W.shape[1])
    return Dc


@dataclass(eq=False)
class GeneratingOpt:
    matrix: np.ndarray          # G at the best parameters found
    omega: np.ndarray           # complex free parameters (empty if none)
    objective: float            # sum of squared commutator entries
    status: str | None          # LM status of the winning start, None if no parameters
    start_objectives: list      # final objective of every start
    start_index: int            # which start won


def optimize_generating(fit, config=None, restarts=0, seed=0, starts=None):
    """Minimize the total squared commutator norm over the free parameters.

    Runs one minimization per start index: index 0 is omega = 0, index
    k > 0 is a complex standard normal draw seeded by (seed, k), so a
    start's point does not depend on which other starts run.  `starts`
    defaults to range(restarts + 1); the best final objective wins.
    With no free parameters the assembled G is returned with its
    objective evaluated.
    """
    basis = fit.basis

    def objective_at(omega):
        res = commutator_residuals(companion_matrices(fit.matrix(omega), basis))
        return float(np.sum(res.real ** 2 + res.imag ** 2))

    if fit.n_params == 0:
        return GeneratingOpt(matrix=fit.matrix(), omega=np.zeros(0, dtype=complex),
                             objective=objective_at(None), status=None,
                             start_objectives=[objective_at(None)], start_index=0)

    def residual(omega):
        return commutator_residuals(companion_matrices(fit.matrix(omega), basis))

    def jacobian(omega):
        return _commutator_jacobian(fit, companion_matrices(fit.matrix(omega), basis))

    cfg = config if config is not None else LMConfig()
    if starts is None:
        starts = range(restarts + 1)
    starts = list(starts)
    if not starts:
        raise ValueError("need at least one start")
    entropy = [int(seed)] if isinstance(seed, (int, np.integer)) \
        else [int(v) for v in seed]
    best = None
    objectives = []
    for start in starts:
        if start == 0:
            x0 = np.zeros(fit.n_params, dtype=complex)
        else:
            rng = np.random.default_rng(entropy + [int(start)])
            x0 = (rng.standard_normal(fit.n_params)
                  + 1j * rng.standard_normal(fit.n_params))
        lm = levenberg_marquardt(residual, normal_equations(jacobian), x0, cfg)
        obj = lm.residual_norm ** 2
        objectives.append(obj)
        if best is None or obj < best[0]:
            best = (obj, lm, start)
    obj, lm, start = best
    return GeneratingOpt(matrix=fit.matrix(lm.x), omega=lm.x, objective=obj,
                         status=lm.status, start_objectives=objectives,
                         start_index=start)
