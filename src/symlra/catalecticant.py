"""Most-square catalecticant flattening and numerical rank estimation.

The flattening pairs degrees m1 = floor(m/2) and m2 = ceil(m/2): entry
(alpha, beta) is F_{alpha+beta} for row exponents |alpha| <= m1 and
column exponents |beta| <= m2.  Both lists are prefixes of the compact
layout, so the matrix is one gather through `ExponentTable.sum_slots`,
which ranks each alpha+beta from the table's suffix sums.  Its
rank lower-bounds the symmetric rank of F, and the decay of its singular
values is the rank signal used when no target rank is supplied.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import compact_size, table
from .numerics import one_blas_thread


def catalecticant(F):
    """The most-square flattening of F: rows are the table's first
    compact_size(n, m // 2) exponents, columns its first
    compact_size(n, m - m // 2)."""
    p, q = compact_size(F.n, F.m // 2), compact_size(F.n, F.m - F.m // 2)
    return F.values[table(F.n, F.m).sum_slots(p, q)]


@dataclass(frozen=True, eq=False)
class RankEstimate:
    rank: int
    gap_ratios: np.ndarray   # eta_r / eta_{r+1} for r = 1 .. s-1


def estimate_rank(sv, rel_tol=1e-6):
    """Smallest r whose tail singular value eta_{r+1} drops below
    rel_tol * eta_1 (values past the end count as zero).  Raises
    ValueError unless rel_tol >= 0."""
    if not rel_tol >= 0:
        raise ValueError(f"rank tolerance must be nonnegative, got {rel_tol}")
    sv = np.asarray(sv, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sv[1:] > 0, sv[:-1] / np.maximum(sv[1:], 0), np.inf) \
            if sv.size > 1 else np.zeros(0)
    if sv.size == 0 or sv[0] <= 0.0:
        return RankEstimate(0, ratios)
    rank = int(np.argmax(np.append(sv[1:], 0.0) <= rel_tol * sv[0])) + 1
    return RankEstimate(rank, ratios)


@one_blas_thread
def catalecticant_spectrum(F):
    """Singular values of the most-square flattening, descending."""
    return np.linalg.svd(catalecticant(F), compute_uv=False)
