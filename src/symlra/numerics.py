"""Shared numerical kernels: rank-revealing least squares, Hermitian and
Schur eigen-kernels, complex<->real lifting, and a damped least-squares
(Levenberg-Marquardt) minimizer with analytic Jacobians."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps


def minnorm_lstsq(A, b, rank_tol=None):
    """Minimum-norm least-squares solution of A x ~ b with null-space basis.

    Singular values <= rank_tol * sigma_max count as zero; the default
    rank_tol is max(p, q) * machine epsilon.

    Returns (x, null, rank): x is the minimum-norm minimizer, null an
    orthonormal basis of the numerical null space (q x (q - rank)).
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p, q = A.shape
    # the full V spans the null space; U is square only when p < q
    U, s, Vh = np.linalg.svd(A, full_matrices=p < q)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        if rank_tol is None:
            rank_tol = max(p, q) * EPS
        rank = int(np.count_nonzero(s > rank_tol * s[0]))
    x = Vh[:rank].conj().T @ ((U[:, :rank].conj().T @ b) / s[:rank])
    null = Vh[rank:].conj().T
    return x, null, rank


def singular_values(A):
    """Singular values in descending order."""
    return np.linalg.svd(np.asarray(A, dtype=complex), compute_uv=False)


def hermitian_smallest(H):
    """Unit eigenvector for the smallest eigenvalue of a Hermitian matrix.

    H is symmetrized internally; returns (vector, smallest, largest).
    """
    H = np.asarray(H, dtype=complex)
    if H.shape[0] == 0:
        return np.zeros(0, dtype=complex), 0.0, 0.0
    w, V = np.linalg.eigh((H + H.conj().T) / 2)
    return V[:, 0], float(w[0]), float(w[-1])


def complex_schur(L):
    """Complex Schur decomposition L = Q T Q^*; returns (Q unitary, T upper
    triangular)."""
    T, Q = scipy.linalg.schur(np.asarray(L, dtype=complex), output="complex")
    return Q, T


def real_from_complex(z):
    """Stack a complex vector as [Re z; Im z]."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag])


def complex_from_real(x):
    """Inverse of `real_from_complex`."""
    x = np.asarray(x, dtype=float)
    k = x.size // 2
    return x[:k] + 1j * x[k:]


def lift_jacobian(Dc):
    """Real 2p x 2q Jacobian of the lifted map, given the complex Jacobian of
    a holomorphic residual (stacking convention of `real_from_complex`)."""
    return np.block([[Dc.real, -Dc.imag], [Dc.imag, Dc.real]])


@dataclass(frozen=True)
class LMConfig:
    max_iterations: int = 1000
    max_residual_evaluations: int = 10000
    gradient_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    initial_damping: float = 1e-3
    # relative decrease of 0.5*||f||^2 below which an accepted step stops the
    # run; 0 disables (stock solvers ship ~1e-6, hence the knob)
    function_tolerance: float = 0.0


@dataclass
class LMResult:
    x: np.ndarray
    residual_norm: float
    status: str            # converged-gradient | converged-step | converged-function
    #                      # | max-iterations | max-evaluations
    iterations: int
    residual_evaluations: int


def levenberg_marquardt(residual, jacobian, x0, config=None):
    """Minimize 0.5 * ||residual(x)||^2 over real x by damped least squares.

    args:
        residual: x -> 1-d real residual vector
        jacobian: x -> real Jacobian of `residual` at x
        x0: real starting point
        config: LMConfig (all tolerances and budgets live there)

    Damping uses Marquardt diagonal scaling with a gain-ratio update; only
    improving steps are accepted, so the objective is nonincreasing along
    the iterates.  Raises ValueError if the residual at x0 is not finite.
    """
    cfg = config if config is not None else LMConfig()
    x = np.array(x0, dtype=float)
    f = np.asarray(residual(x), dtype=float)
    nfev = 1
    if not np.isfinite(f).all():
        raise ValueError("residual is not finite at the starting point")
    cost = 0.5 * float(f @ f)
    lam = cfg.initial_damping
    nu = 2.0
    status = "max-iterations"
    iterations = 0

    for _ in range(cfg.max_iterations):
        J = np.asarray(jacobian(x), dtype=float)
        g = J.T @ f
        if np.max(np.abs(g), initial=0.0) <= cfg.gradient_tolerance:
            status = "converged-gradient"
            break
        iterations += 1
        JtJ = J.T @ J
        d = np.diag(JtJ)
        dmax = d.max() if d.size else 0.0
        scale = np.maximum(d, 1e-14 * max(dmax, 1.0))

        while True:
            try:
                cf = scipy.linalg.cho_factor(JtJ + np.diag(lam * scale))
                delta = scipy.linalg.cho_solve(cf, -g)
            except scipy.linalg.LinAlgError:
                lam *= nu
                nu *= 2.0
                continue
            if np.linalg.norm(delta) <= cfg.step_tolerance * (
                    np.linalg.norm(x) + cfg.step_tolerance):
                status = "converged-step"
                break
            if nfev >= cfg.max_residual_evaluations:
                status = "max-evaluations"
                break
            fn = np.asarray(residual(x + delta), dtype=float)
            nfev += 1
            costn = 0.5 * float(fn @ fn) if np.isfinite(fn).all() else np.inf
            if costn < cost:
                predicted = 0.5 * float(delta @ (lam * scale * delta - g))
                rho = (cost - costn) / max(predicted, np.finfo(float).tiny)
                if cfg.function_tolerance > 0.0 and (
                        cost - costn <= cfg.function_tolerance * cost):
                    status = "converged-function"
                x = x + delta
                f, cost = fn, costn
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                break
            lam *= nu
            nu = min(2.0 * nu, 1e8)
        if status in ("converged-step", "max-evaluations", "converged-function"):
            break
    else:
        status = "max-iterations"

    return LMResult(x=x, residual_norm=float(np.sqrt(2.0 * cost)),
                    status=status, iterations=iterations,
                    residual_evaluations=nfev)


def finite_difference_jacobian(residual, x, step=1e-6):
    """Central-difference Jacobian, for cross-checking analytic ones."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(residual(x), dtype=float)
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2 * h)
    return J
