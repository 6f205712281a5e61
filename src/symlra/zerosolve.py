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
from .numerics import hermitian_smallest, warn
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
    gram = np.zeros((nbar, nbar), dtype=complex)
    for Vi in V:
        gram += Vi.conj().T @ Vi
    return gram


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
    direction separates the Schur eigenvalues better.
    """
    xi, lo, hi = hermitian_smallest(gram)
    if gram.shape[0] and lo <= DEGENERACY_TOL * max(1.0, hi):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(gram.shape[0]) + 1j * rng.standard_normal(gram.shape[0])
        return MixingSelection(xi=z / np.linalg.norm(z), smallest=lo,
                               largest=hi, fallback=True)
    return MixingSelection(xi=xi, smallest=lo, largest=hi, fallback=False)


@dataclass(eq=False)
class ZeroExtraction:
    zeros: np.ndarray          # (r, n-1), one candidate zero per row
    schur_values: np.ndarray   # diagonal of the triangular factor
    repeated: bool             # nearly repeated Schur values were seen
    poly_residual: float       # max |phi_alpha(zero)| over zeros and border
                               # columns (NaN when G is not supplied)


def extract_zeros(M, xi, G=None, basis=None):
    """Candidate common zeros of the multiplication family.

    Parameters
    ----------
    M : (nbar, r, r) array, multiplication matrix per variable
    xi : (nbar,) mixing vector
    G : optional generating matrix; with `basis`, enables the
        plugged-in residual diagnostic max |phi_alpha(zero)|
    basis : MonomialBasis matching G

    Returns a ZeroExtraction; a warning is emitted when the Schur values
    nearly repeat (zeros may then merge, large coefficients downstream).
    """
    nbar, r, _ = M.shape
    L = np.tensordot(np.asarray(xi, dtype=complex), M, axes=(0, 0)) \
        if nbar else np.zeros((r, r), dtype=complex)
    T, Q = scipy.linalg.schur(L, output="complex")
    zeros = np.empty((r, nbar), dtype=complex)
    for i in range(nbar):
        B = Q.conj().T @ M[i] @ Q
        zeros[:, i] = np.diag(B)
    tvals = np.diag(T).copy()
    repeated = False
    if r > 1:
        gaps = np.abs(tvals[:, None] - tvals[None, :])
        gaps[np.diag_indices(r)] = np.inf
        if gaps.min() <= 1e-8 * max(np.linalg.norm(T), 1e-300):
            repeated = True
            warn("nearly repeated Schur values: extracted zeros may coincide "
                 "and the coefficient fit may be ill-conditioned")
    poly_residual = float("nan")
    if G is not None and basis is not None:
        poly_residual = 0.0
        if basis.border:
            # monomials of (1, zero) to the (last) border's degree; core first
            tab = table(basis.n, basis.m)
            P = tab.monomials(np.column_stack([np.ones(r), zeros]),
                              sum(basis.border[-1]))
            poly_residual = float(np.abs(P[:, :basis.rank] @ G
                                         - P[:, tab.slots(basis.border)]).max())
    return ZeroExtraction(zeros=zeros, schur_values=tvals,
                          repeated=repeated, poly_residual=poly_residual)
