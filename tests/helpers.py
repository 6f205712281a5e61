"""Reference computations shared by the test files: a central-difference
Jacobian for cross-checking analytic ones, the LM's normal system formed
from an explicit Jacobian, the per-entry power form of the monomials that
`ExponentTable.monomials` evaluates, the slot ranking from an explicit
(..., n-1) array of suffix sums and the dense position map from an
(n^m, n-1) array of index counts, the generating fit solved one border
column at a time, and the per-column, per-feed loop forms of the
generating matrix, the companion matrices and the commutator residual and
Jacobian that `genfit` builds from its affine map, and the commutation
Gram matrix with every commutator formed in a double loop, the Schur
zeros read one variable at a time (`reference_zeros`), the
commutator Jacobian scattered through one flat position per entry
(`flat_commutator_jacobian`), the symmetric power u^{(m)} of one
vector (`rank_one`), the dense form of `transform` (`dense_transform`:
expand to the (n,)*m array, contract A into each mode, compress), which
the compact recursion must match to round-off, and the minimum-norm least
squares by one SVD of the whole p x q system (`reference_minnorm_lstsq`),
which the QR reduction of large tall systems must match to round-off, and
the Levenberg-Marquardt loop that builds each damped system afresh
(`reference_levenberg_marquardt`), whose runs the buffered loop must
match bit for bit."""

from types import SimpleNamespace

import numpy as np
import scipy.linalg

from symlra.genfit import _pairs, generating_system
from symlra.numerics import (GRADIENT_TOLERANCE, INITIAL_DAMPING, LMConfig, LMResult,
                             minnorm_lstsq)
from symlra.tensors import (Decomposition, SymTensor, _position_map,
                            compact_size, full_from_compact, table)


def reference_minnorm_lstsq(A, b):
    """`minnorm_lstsq` without the QR reduction of large tall systems: the
    SVD of A itself, with the same rank threshold max(p, q) * eps * sigma_max."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p, q = A.shape
    U, s, Vh = np.linalg.svd(A, full_matrices=p < q)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > max(p, q) * np.finfo(float).eps * s[0]))
    x = Vh[:rank].conj().T @ ((U[:, :rank].conj().T @ b).T / s[:rank]).T
    return x, Vh[rank:].conj().T, rank


def finite_difference_jacobian(residual, x, step=1e-6):
    """Central-difference Jacobian along the real directions of a real or
    complex x, in the residual's dtype; for cross-checking analytic ones."""
    x = np.asarray(x, dtype=np.result_type(np.asarray(x), float))
    f0 = np.asarray(residual(x))
    J = np.empty((f0.size, x.size), dtype=np.result_type(f0, float))
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2 * h)
    return J


def normal_equations(jacobian):
    """The `normal` argument of `levenberg_marquardt` for an explicit
    Jacobian: (J^H J, J^H f) with J = jacobian(x)."""
    def normal(x, f):
        J = np.asarray(jacobian(x), dtype=x.dtype)
        Jh = J.conj().T
        return Jh @ J, Jh @ f
    return normal


def rank_one(u, m):
    """The m-th symmetric power u^{(m)} of a single vector."""
    u = np.asarray(u, dtype=complex)
    return Decomposition(m, u[None, :]).tensor()


def dense_transform(F, A):
    """`transform` through the dense (n,)*m array: m tensordots, then the
    first (C-order) entry of each symmetry class."""
    A = np.asarray(A, dtype=complex)
    G = full_from_compact(F)
    for _ in range(F.m):
        # contract the current leading mode; the new axis lands at the end,
        # so m applications transform every mode exactly once
        G = np.tensordot(G, A, axes=([0], [1]))
    values = np.empty(compact_size(F.n, F.m), dtype=complex)
    values[_position_map(F.n, F.m).ravel()[::-1]] = G.ravel()[::-1]
    return SymTensor(F.n, F.m, values)


def reference_monomials(X, E):
    """(r, len(E)) values X[i]^E[k], every entry raised to its own power."""
    X = np.asarray(X, dtype=complex)
    E = np.asarray(E, dtype=np.int64).reshape(-1, X.shape[1])
    return np.prod(X[:, None, :] ** E[None, :, :], axis=2)


def reference_slots(tab, E):
    """Compact slots of the exponents in E (shape (..., n-1)) from an
    explicit array of their suffix sums, one fancy index for all
    coordinates: sum_j S(n-j, E_j + ... + E_{n-1})."""
    E = np.asarray(E, dtype=np.int64)
    suffix = np.cumsum(E[..., ::-1], axis=-1)[..., ::-1]
    return tab._below[np.arange(tab.n - 1, 0, -1), suffix].sum(axis=-1)


def reference_position_map(n, m):
    """Dense index tuple -> compact slot, ranking each tuple's exponent
    (the count of every index 1..n-1) with `reference_slots`."""
    counts = (np.indices((n,) * m)[..., None] == np.arange(1, n)).sum(axis=0)
    return reference_slots(table(n, m), counts)


def homogeneous_exponents(tab, d):
    """The degree-d exponents (d - |alpha|, alpha) of every coordinate of u,
    over the first compact_size(n, d) rows alpha of the table."""
    A = tab.alpha_mat[:compact_size(tab.n, d)]
    return np.column_stack([d - A.sum(axis=1), A])


def reference_wiring(basis):
    """The companion wiring by dictionary lookup: unit_cols[i] lists
    (nu, core slot) and border_cols[i] (nu, border column) for each core
    monomial nu whose shift by e_i lands in the core or the border;
    feeds[col] lists the (i, nu) that land on border column col."""
    nbar = basis.n - 1
    core = {a: k for k, a in enumerate(basis.core)}
    border = {a: k for k, a in enumerate(basis.border)}
    unit_cols = [[] for _ in range(nbar)]
    border_cols = [[] for _ in range(nbar)]
    feeds = [[] for _ in basis.border]
    for nu, alpha in enumerate(basis.core):
        for i in range(nbar):
            shifted = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            if shifted in core:
                unit_cols[i].append((nu, core[shifted]))
            else:
                border_cols[i].append((nu, border[shifted]))
                feeds[border[shifted]].append((i, nu))
    return unit_cols, border_cols, feeds


def reference_fit(F, basis):
    """The generating fit one border column at a time: one gather and one
    minimum-norm solve per column, keeping each column's null basis
    (`nulls`) and parameter slice (`param_slices`); parameters run column
    by column, as in `fit_generating`."""
    gls = np.empty((basis.rank, len(basis.border)), dtype=complex)
    nulls, residuals, slices = [], [], []
    offset = 0
    for col, alpha in enumerate(basis.border):
        A, b = generating_system(F, alpha, basis)
        x, null, _ = minnorm_lstsq(A, b)
        gls[:, col] = x
        nulls.append(null)
        residuals.append(np.linalg.norm(A @ x - b))
        slices.append(slice(offset, offset + null.shape[1]))
        offset += null.shape[1]
    return SimpleNamespace(
        basis=basis, gls=gls, nulls=nulls, residuals=np.array(residuals),
        param_slices=slices, n_params=offset,
        directions=np.concatenate([np.zeros((basis.rank, 0)), *nulls], axis=1))


def reference_matrix(fit, omega=None):
    """G = gls plus each column's null directions times its parameters, for
    a `reference_fit`."""
    G = fit.gls.copy()
    if omega is not None:
        for col, sl in enumerate(fit.param_slices):
            if sl.stop > sl.start:
                G[:, col] += fit.nulls[col] @ np.asarray(omega, dtype=complex)[sl]
    return G


def reference_companions(G, basis):
    """Companion matrices filled column by column from the wiring."""
    r = basis.rank
    unit_cols, border_cols, _ = reference_wiring(basis)
    M = np.zeros((basis.n - 1, r, r), dtype=complex)
    for i in range(basis.n - 1):
        for nu, target in unit_cols[i]:
            M[i, target, nu] = 1.0
        for nu, col in border_cols[i]:
            M[i, :, nu] = G[:, col]
    return M


def reference_commutator_residuals(M):
    """M_i M_j - M_j M_i for i < j, one pair at a time."""
    parts = [(M[i] @ M[j] - M[j] @ M[i]).ravel()
             for i in range(M.shape[0]) for j in range(i + 1, M.shape[0])]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def reference_commutation_gram(M):
    """sum_i V_i^H V_i with V_i[:, j] = vec (M_i M_j - M_j M_i), each
    commutator formed on its own."""
    nbar, r, _ = M.shape
    gram = np.zeros((nbar, nbar), dtype=complex)
    for i in range(nbar):
        Vi = np.empty((r * r, nbar), dtype=complex)
        for j in range(nbar):
            Vi[:, j] = (M[i] @ M[j] - M[j] @ M[i]).ravel()
        gram += Vi.conj().T @ Vi
    return gram


def reference_zeros(M, xi):
    """Rayleigh quotients q_k^H M_i q_k of the complex Schur vectors of
    L(xi) = sum_i xi_i M_i, one variable i at a time."""
    nbar, r, _ = M.shape
    L = np.tensordot(xi, M, axes=(0, 0)) if nbar else np.zeros((r, r), dtype=complex)
    _, Q = scipy.linalg.schur(L, output="complex")
    zeros = np.empty((r, nbar), dtype=complex)
    for i in range(nbar):
        zeros[:, i] = np.diag(Q.conj().T @ M[i] @ Q)
    return zeros


def reference_commutator_jacobian(fit, M):
    """Jacobian of the commutator residual in the free parameters of a
    `reference_fit`, one rank-one update per feed (i, nu) of each border
    column and each other variable j."""
    r = fit.basis.rank
    nbar = fit.basis.n - 1
    _, _, feeds = reference_wiring(fit.basis)
    pair_row = {}
    k = 0
    for i in range(nbar):
        for j in range(i + 1, nbar):
            pair_row[(i, j)] = k * r * r
            k += 1
    Dc = np.zeros((k * r * r, fit.n_params), dtype=complex)
    for col, sl in enumerate(fit.param_slices):
        if sl.stop == sl.start:
            continue
        W = fit.nulls[col]                     # (r, k_col)
        for i, nu in feeds[col]:
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


def reference_commutator_closures(fit):
    """(residual, jacobian) of omega along the loop forms above, for a
    `reference_fit`."""
    def residual(omega):
        return reference_commutator_residuals(
            reference_companions(reference_matrix(fit, omega), fit.basis))

    def jacobian(omega):
        return reference_commutator_jacobian(
            fit, reference_companions(reference_matrix(fit, omega), fit.basis))
    return residual, jacobian


def flat_jacobian_sides(basis, param_col):
    """Scatter indices of `flat_commutator_jacobian`, one (rows, nu, p, y)
    tuple of arrays per side of a pair (a, b), a < b.  Entry l: parameter p
    moves column nu of M_x (x = a on the first side, x = b on the second)
    and enters pair k, whose other matrix is M_y; rows[l] holds the flat
    positions (k r^2 + s r + t) P + p of its r x r block in J.  Parameter p
    lies in border column param_col[p] and moves every wire to it."""
    nbar, r, n_params = basis.n - 1, basis.rank, param_col.size
    wire_i, wire_nu, wire_col = basis.wires
    w, p = np.nonzero(wire_col[:, None] == param_col)
    x = wire_i[w]
    e, y = np.nonzero(x[:, None] != np.arange(nbar))
    pair = np.zeros((nbar, nbar), dtype=np.intp)
    a, b = _pairs(nbar)
    pair[a, b] = pair[b, a] = np.arange(a.size)
    x, nu, p = x[e], wire_nu[w][e], p[e]
    rows = (pair[x, y][:, None] * r * r + np.arange(r * r)) * n_params + p[:, None]
    return tuple((rows[side].ravel(), nu[side], p[side], y[side])
                 for side in (x < y, x > y))


def flat_commutator_jacobian(fit, M):
    """The commutator Jacobian of a `GeneratingFit` at M, each side's r x r
    blocks scattered into a flat array through one position per entry of J
    (`flat_jacobian_sides`).  `_commutator_jacobian`'s sparse map must
    match it value for value at unit companion matrices, where every entry
    is one product, and to round-off elsewhere."""
    r, P = M.shape[1], fit.n_params
    N = fit.null
    MN = M @ N
    direction, param_col = np.divmod(fit.slots, len(fit.basis.border))

    def blocks(nu, p, y):
        q = direction[p]
        D = N.T[q][:, :, None] * M[y, nu][:, None, :]
        D[np.arange(p.size), :, nu] -= MN[y, :, q]
        return D.ravel()

    npairs = M.shape[0] * (M.shape[0] - 1) // 2
    J = np.zeros(npairs * r * r * P, dtype=complex)
    (rows_a, *first), (rows_b, *second) = flat_jacobian_sides(fit.basis, param_col)
    J[rows_a] = blocks(*first)
    J[rows_b] -= blocks(*second)
    return J.reshape(npairs * r * r, P)


def reference_levenberg_marquardt(residual, normal, x0, config=None):
    """`levenberg_marquardt` with every damped trial built afresh as
    J^H J + diag(lam * scale) and tested whole for finiteness, the LAPACK
    handles looked up per run and ||x|| taken per trial."""
    cfg = config if config is not None else LMConfig()
    x = np.array(x0, dtype=np.result_type(np.asarray(x0), float))
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=x.dtype)
    f = np.asarray(residual(x), dtype=x.dtype)
    nfev = 1
    if not np.isfinite(f).all():
        raise np.linalg.LinAlgError("residual is not finite at the starting point")
    cost = 0.5 * np.vdot(f, f).real
    lam = INITIAL_DAMPING
    nu = 2.0
    status = "max-iterations"
    iterations = 0

    for _ in range(cfg.max_iterations):
        JhJ, g = normal(x, f)
        JhJ = np.asarray(JhJ, dtype=x.dtype)
        g = np.asarray(g, dtype=x.dtype)
        if np.max(np.abs(g.view(float)), initial=0.0) <= GRADIENT_TOLERANCE:
            status = "converged-gradient"
            break
        iterations += 1
        d = np.diag(JhJ).real
        scale = np.maximum(d, 1e-14 * max(d.max(), 1.0))

        while True:
            A = JhJ + np.diag(lam * scale)
            if not (np.isfinite(A).all() and np.isfinite(g).all()):
                raise np.linalg.LinAlgError("the normal system is not finite")
            c, info = potrf(A, lower=False, overwrite_a=True, clean=False)
            if info > 0:
                lam *= nu
                nu *= 2.0
                continue
            delta, _ = potrs(c, -g, lower=False, overwrite_b=True)
            if np.linalg.norm(delta) <= cfg.step_tolerance * (
                    np.linalg.norm(x) + cfg.step_tolerance):
                status = "converged-step"
                break
            if nfev >= cfg.max_residual_evaluations:
                status = "max-evaluations"
                break
            xn = x + delta
            fn = np.asarray(residual(xn), dtype=x.dtype)
            nfev += 1
            costn = 0.5 * np.vdot(fn, fn).real if np.isfinite(fn).all() else np.inf
            if costn < cost:
                predicted = 0.5 * np.vdot(delta, lam * scale * delta - g).real
                rho = (cost - costn) / max(predicted, np.finfo(float).tiny)
                if cfg.function_tolerance > 0.0 and (
                        cost - costn <= cfg.function_tolerance * cost):
                    status = "converged-function"
                x, f, cost = xn, fn, costn
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                break
            lam *= nu
            nu = min(2.0 * nu, 1e8)
        if status in ("converged-step", "max-evaluations", "converged-function"):
            break

    return LMResult(x=x, residual_norm=float(np.sqrt(2.0 * cost)),
                    status=status, iterations=iterations,
                    residual_evaluations=nfev)
