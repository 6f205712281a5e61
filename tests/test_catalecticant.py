import numpy as np
import numpy.testing as npt
import pytest

from symlra.tensors import (SymTensor, compact_size, exponents, perturb,
                            random_low_rank)
from symlra.catalecticant import (catalecticant, catalecticant_spectrum,
                                  estimate_rank)
from symlra.families import (sin_tensor, rootsum_tensor, ternary_tensor,
                             octet_tensor)


def test_shape_and_entries():
    rng = np.random.default_rng(0)
    N = compact_size(3, 3)
    F = SymTensor(3, 3, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    C = catalecticant(F)
    assert C.matrix.shape == (compact_size(3, 1), compact_size(3, 2)) == (3, 6)
    assert C.row_degree == 1 and C.col_degree == 2
    for i, a in enumerate(C.row_exponents):
        for j, b in enumerate(C.col_exponents):
            ab = tuple(x + y for x, y in zip(a, b))
            assert C.matrix[i, j] == F.entry(ab)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 5), (3, 4), (5, 3), (4, 6)])
def test_gather_matches_entry_loop(n, m):
    # per-entry reference: one dict lookup per (row, column) pair
    F = perturb(random_low_rank(n, m, 2, seed=n + m)[0], 0.1, seed=1)
    m1 = m // 2
    rows, cols = exponents(n - 1, m1), exponents(n - 1, m - m1)
    ref = np.array([[F.entry(tuple(x + y for x, y in zip(a, b))) for b in cols]
                    for a in rows], dtype=complex)
    C = catalecticant(F)
    assert C.matrix.tobytes() == ref.tobytes()
    assert C.row_exponents == tuple(rows) and C.col_exponents == tuple(cols)


def test_even_order_square():
    F = SymTensor.zeros(4, 4)
    C = catalecticant(F)
    assert C.matrix.shape == (compact_size(4, 2),) * 2


class TestEstimateRank:
    def test_clean_gap(self):
        est = estimate_rank(np.array([1.0, 0.5, 1e-9, 1e-12]))
        assert est.rank == 2

    def test_relative_tolerance(self):
        sv = np.array([100.0, 1e-3, 1e-5])
        assert estimate_rank(sv).rank == 2            # 1e-5/100 = 1e-7 <= 1e-6
        assert estimate_rank(sv, rel_tol=1e-8).rank == 3

    def test_full_rank_spectrum(self):
        # nothing under the cutoff: every value counts
        assert estimate_rank(np.array([3.0, 2.0, 1.0])).rank == 3

    def test_zero_and_empty(self):
        assert estimate_rank(np.zeros(4)).rank == 0
        assert estimate_rank(np.zeros(0)).rank == 0


def test_sin_spectrum_frozen():
    sv = catalecticant_spectrum(sin_tensor())
    npt.assert_allclose(sv[:2], [5.78571242, 5.43574737], rtol=1e-7)
    assert sv[2] < 1e-10
    assert estimate_rank(sv).rank == 2


def test_rootsum_spectrum_frozen():
    sv = catalecticant_spectrum(rootsum_tensor())
    npt.assert_allclose(
        sv[:5],
        [5.19534044e+01, 9.18473353e-01, 1.33461947e-02,
         2.83544123e-04, 5.61882793e-06],
        rtol=1e-6)
    assert estimate_rank(sv).rank == 4


def test_ternary_saturates_flattening():
    # rank-4 tensor, but a 3 x 6 flattening can only certify 3
    sv = catalecticant_spectrum(ternary_tensor())
    assert sv.shape == (3,)
    assert estimate_rank(sv).rank == 3


def test_octet_rank_eight():
    sv = catalecticant_spectrum(octet_tensor())
    assert estimate_rank(sv).rank == 8
    assert sv[7] > 0.7 and sv[8] < 1e-12


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_rank_bound_on_random_instances(m, r):
    # a rank-r tensor's flattening has numerical rank at most r
    for seed in (0, 1):
        F, _ = random_low_rank(10, m, r, seed=seed)
        sv = catalecticant_spectrum(F)
        assert sv[r] <= 1e-10 * sv[0]
        assert estimate_rank(sv).rank == r
