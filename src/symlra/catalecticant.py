"""Most-square catalecticant flattening and numerical rank estimation.

The flattening pairs degrees m1 = floor(m/2) and m2 = ceil(m/2): entry
(alpha, beta) is F_{alpha+beta} for row exponents |alpha| <= m1 and
column exponents |beta| <= m2.  Both lists are prefixes of the compact
layout, so the matrix is one gather through `ExponentTable.slots`.  Its
rank lower-bounds the symmetric rank of F, and the decay of its singular
values is the rank signal used when no target rank is supplied.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import compact_size, table
from .numerics import one_blas_thread, singular_values


@dataclass(frozen=True, eq=False)
class CatMatrix:
    matrix: np.ndarray
    row_exponents: tuple
    col_exponents: tuple
    row_degree: int
    col_degree: int


def catalecticant(F):
    """The most-square flattening of F as a CatMatrix."""
    m1 = F.m // 2
    m2 = F.m - m1
    tab = table(F.n, F.m)
    p, q = compact_size(F.n, m1), compact_size(F.n, m2)
    M = F.values[tab.slots(tab.alpha_mat[:p, None] + tab.alpha_mat[:q])]
    return CatMatrix(matrix=M, row_exponents=tab.alphas[:p],
                     col_exponents=tab.alphas[:q], row_degree=m1, col_degree=m2)


@dataclass(frozen=True, eq=False)
class RankEstimate:
    rank: int
    singular_values: np.ndarray
    gap_ratios: np.ndarray   # eta_r / eta_{r+1} for r = 1 .. s-1
    rel_tol: float


def estimate_rank(sv, rel_tol=1e-6):
    """Smallest r whose tail singular value eta_{r+1} drops below
    rel_tol * eta_1 (values past the end count as zero)."""
    sv = np.asarray(sv, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sv[1:] > 0, sv[:-1] / np.maximum(sv[1:], 0), np.inf) \
            if sv.size > 1 else np.zeros(0)
    if sv.size == 0 or sv[0] <= 0.0:
        return RankEstimate(0, sv, ratios, rel_tol)
    rank = int(np.argmax(np.append(sv[1:], 0.0) <= rel_tol * sv[0])) + 1
    return RankEstimate(rank, sv, ratios, rel_tol)


@one_blas_thread
def catalecticant_spectrum(F):
    """Singular values of the most-square flattening, descending."""
    return singular_values(catalecticant(F).matrix)
