"""Reference computations shared by the test files: a central-difference
Jacobian for cross-checking analytic ones, and the per-entry power form
of the monomials that `ExponentTable.monomials` evaluates."""

import numpy as np

from symlra.tensors import compact_size


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


def reference_monomials(X, E):
    """(r, len(E)) values X[i]^E[k], every entry raised to its own power."""
    X = np.asarray(X, dtype=complex)
    E = np.asarray(E, dtype=np.int64).reshape(-1, X.shape[1])
    return np.prod(X[:, None, :] ** E[None, :, :], axis=2)


def homogeneous_exponents(tab, d):
    """The degree-d exponents (d - |alpha|, alpha) of every coordinate of u,
    over the first compact_size(n, d) rows alpha of the table."""
    A = tab.alpha_mat[:compact_size(tab.n, d)]
    return np.column_stack([d - A.sum(axis=1), A])
