import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from symlra.tensors import (SymTensor, compact_size, exponents, perturb,
                            random_low_rank, table)
from symlra.catalecticant import (catalecticant, catalecticant_spectrum,
                                  estimate_rank)
from symlra.families import (sin_tensor, rootsum_tensor, ternary_tensor,
                             octet_tensor)

from helpers import reference_slots


def test_shape_and_entries():
    rng = np.random.default_rng(0)
    N = compact_size(3, 3)
    F = SymTensor(3, 3, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    C = catalecticant(F)
    assert C.shape == (compact_size(3, 1), compact_size(3, 2)) == (3, 6)
    # rows: the exponents of degree <= 1; columns: those of degree <= 2
    alphas = table(3, 3).alphas
    for i, a in enumerate(alphas[:3]):
        for j, b in enumerate(alphas[:6]):
            ab = tuple(x + y for x, y in zip(a, b))
            assert C[i, j] == F.entry(ab)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 5), (3, 4), (5, 3), (4, 6)])
def test_gather_matches_entry_loop(n, m):
    # per-entry reference: one dict lookup per (row, column) pair
    F = perturb(random_low_rank(n, m, 2, seed=n + m)[0], 0.1, seed=1)
    m1 = m // 2
    rows, cols = exponents(n - 1, m1), exponents(n - 1, m - m1)
    ref = np.array([[F.entry(tuple(x + y for x, y in zip(a, b))) for b in cols]
                    for a in rows], dtype=complex)
    assert catalecticant(F).tobytes() == ref.tobytes()
    alphas = table(n, m).alphas
    assert alphas[:len(rows)] == tuple(rows) and alphas[:len(cols)] == tuple(cols)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 5), (4, 6), (10, 6)])
def test_gather_matches_reference_slots(n, m):
    # the summed exponents ranked from an explicit (p, q, n-1) array
    F = perturb(random_low_rank(n, m, 2, seed=n + m)[0], 0.1, seed=1)
    tab = table(n, m)
    A = tab.alpha_mat
    p, q = compact_size(n, m // 2), compact_size(n, m - m // 2)
    ref = F.values[reference_slots(tab, A[:p, None] + A[:q])]
    assert catalecticant(F).tobytes() == ref.tobytes()


def test_gather_memory():
    # 220 x 220 at (10, 6): a few (p, q) arrays, no (p, q, n-1) exponents
    F, _ = random_low_rank(10, 6, 3, seed=2)
    catalecticant(F)
    tracemalloc.start()
    try:
        catalecticant(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_even_order_square():
    F = SymTensor.zeros(4, 4)
    assert catalecticant(F).shape == (compact_size(4, 2),) * 2


@pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (5, 3)])
def test_spectrum_is_svd_of_flattening(n, m):
    F = perturb(random_low_rank(n, m, 2, seed=n + m)[0], 0.1, seed=1)
    sv = catalecticant_spectrum(F)
    assert sv.shape == (min(catalecticant(F).shape),)
    assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)
    ref = np.linalg.svd(catalecticant(F), compute_uv=False)
    assert sv.tobytes() == ref.tobytes()


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

    @pytest.mark.parametrize("tol", [-1e-6, float("nan"), -np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_rank(np.array([1.0, 0.5]), rel_tol=tol)

    def test_zero_tolerance_counts_only_zeros(self):
        assert estimate_rank(np.array([1.0, 1e-300, 0.0]), rel_tol=0).rank == 2

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
