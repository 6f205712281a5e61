"""Joint zero extraction from the multiplication matrices.

A random-ish mixing vector xi combines the matrices into L(xi) =
sum_i xi_i M_i; the complex Schur form of L orders a common triangular
basis, and the Rayleigh quotients q_k^* M_i q_k read off the i-th
coordinate of the k-th common zero.  The mixing vector is chosen as the
eigenvector for the smallest eigenvalue of a Hermitian commutation Gram
matrix, which favors the combination closest to commuting with every
M_i; when that matrix is numerically zero (the matrices already
commute), a seeded random direction is used instead.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .genfit import commutator_residuals, _pairs
from .tensors import table


def commutation_gram(M):
    """Hermitian PSD matrix whose quadratic form at xi equals
    sum_i ||[M_i, L(xi)]||_F^2 with L(xi) = sum_j xi_j M_j."""
    nbar, r, _ = M.shape
    # V[i][:, j] = vec [M_i, M_j]: the pair blocks C_ab = [M_a, M_b], a < b,
    # and their negations [M_b, M_a] = -C_ab
    C = commutator_residuals(M).reshape(-1, r * r)
    a, b = _pairs(nbar)
    V = np.zeros((nbar, r * r, nbar), dtype=complex)
    V[a, :, b] = C
    V[b, :, a] = -C
    return (V.conj().transpose(0, 2, 1) @ V).sum(axis=0)


@dataclass(eq=False)
class MixingSelection:
    xi: np.ndarray
    smallest: float
    largest: float
    fallback: bool   # True when the Gram matrix was degenerate and a random
                     # unit vector was drawn instead

DEGENERACY_TOL = 1e-10


def select_mixing(gram, seed=0):
    """Unit mixing vector from the commutation Gram matrix.

    Falls back to a seeded random complex unit vector when the smallest
    eigenvalue is below DEGENERACY_TOL * max(1, largest): in that regime
    the eigenvector is arbitrary within a large subspace and a random
    direction separates the Schur eigenvalues better.  A 0 x 0 Gram matrix
    gives an empty xi, both eigenvalues 0 and no fallback."""
    gram = np.asarray(gram, dtype=complex)
    if gram.shape[0] == 0:
        return MixingSelection(np.zeros(0, dtype=complex), 0.0, 0.0, False)
    w, V = np.linalg.eigh((gram + gram.conj().T) / 2)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= DEGENERACY_TOL * max(1.0, hi):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(gram.shape[0]) + 1j * rng.standard_normal(gram.shape[0])
        return MixingSelection(xi=z / np.linalg.norm(z), smallest=lo,
                               largest=hi, fallback=True)
    return MixingSelection(xi=V[:, 0], smallest=lo, largest=hi, fallback=False)


@dataclass(eq=False)
class ZeroExtraction:
    zeros: np.ndarray          # (r, n-1), one candidate zero per row
    schur_values: np.ndarray   # diagonal of the triangular factor
    repeated: bool             # nearly repeated Schur values: zeros may merge


def extract_zeros(M, xi):
    """Candidate common zeros of the multiplication family M, one (r, r)
    matrix per variable, mixed by xi: a ZeroExtraction, which flags nearly
    repeated Schur values and warns nothing (`pipeline` decides that)."""
    r = M.shape[1]
    L = np.tensordot(np.asarray(xi, dtype=complex), M, axes=(0, 0))
    T, Q = scipy.linalg.schur(L, output="complex")
    # a C-ordered copy, so the terms built from the zeros are C-ordered too
    zeros = np.diagonal(Q.conj().T @ M @ Q, axis1=1, axis2=2).T.copy()
    tvals = np.diag(T).copy()
    gaps = np.abs(tvals[:, None] - tvals[None, :])
    gaps[np.diag_indices(r)] = np.inf
    repeated = bool(r > 1 and gaps.min() <= 1e-8 * max(np.linalg.norm(T), 1e-300))
    return ZeroExtraction(zeros=zeros, schur_values=tvals, repeated=repeated)


def poly_residual(G, basis, zeros):
    """max |phi_alpha(zero)| over the zeros (rows) and the border columns of
    the generating matrix G (of MonomialBasis `basis`): how far the zeros
    are from common zeros of the generating polynomials; 0.0 without a
    border."""
    if not basis.border:
        return 0.0
    # monomials of (1, zero) to the (last) border's degree; core first
    tab = table(basis.n, basis.m)
    P = tab.monomials(np.column_stack([np.ones(len(zeros)), zeros]),
                      sum(basis.border[-1]))
    return float(np.abs(P[:, :basis.rank] @ G - P[:, tab.slots(basis.border)]).max())
