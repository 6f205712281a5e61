"""Tests for the compact symmetric-tensor storage layer."""
import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from symlra import tensors
from symlra.tensors import (
    exponents, multinomial, table, compact_size, SymTensor, Decomposition,
    full_from_compact, compact_from_full, transform,
    random_low_rank, perturb, _position_map,
)

from helpers import (dense_transform, homogeneous_exponents, rank_one,
                     reference_monomials, reference_position_map,
                     reference_slots)


def dense_oracle(F):
    """Dense n^m array built entry-by-entry, no shortcuts."""
    G = np.empty((F.n,) * F.m, dtype=complex)
    for idx in itertools.product(range(F.n), repeat=F.m):
        alpha = [0] * (F.n - 1)
        for i in idx:
            if i > 0:
                alpha[i - 1] += 1
        G[idx] = F.entry(tuple(alpha))
    return G


def test_exponents_graded_lex_listing():
    # degree ascending, ties broken by descending lex
    assert exponents(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert exponents(1, 3) == [(0,), (1,), (2,), (3,)]
    assert exponents(0, 4) == [()]


@pytest.mark.parametrize("nbar,m", [(1, 5), (2, 3), (3, 4), (5, 2)])
def test_exponents_count_and_order(nbar, m):
    alphas = exponents(nbar, m)
    assert len(alphas) == math.comb(nbar + m, m)
    assert len(set(alphas)) == len(alphas)
    degs = [sum(a) for a in alphas]
    assert degs == sorted(degs)
    for a, b in zip(alphas, alphas[1:]):
        if sum(a) == sum(b):
            assert a > b  # descending lex inside a degree block


def test_multinomial_small_cases():
    assert multinomial((0, 0), 3) == 1          # x0^3
    assert multinomial((1, 0), 3) == 3
    assert multinomial((1, 1), 3) == 6
    assert multinomial((3, 0), 3) == 1
    assert multinomial((2, 2), 4) == 6


def test_multinomial_factorial_oracle():
    m = 5
    for alpha in exponents(3, m):
        a0 = m - sum(alpha)
        expect = math.factorial(m)
        for k in (a0,) + alpha:
            expect //= math.factorial(k)
        assert multinomial(alpha, m) == expect


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 2), (3, 5)])
def test_weights_sum_to_n_power_m(n, m):
    # the multinomials over the full simplex add up to n^m
    assert int(table(n, m).weights.sum()) == n ** m


def test_compact_size():
    assert compact_size(3, 3) == 10
    assert compact_size(6, 3) == math.comb(5 + 3, 3)
    assert len(table(4, 4)) == compact_size(4, 4)


def test_norm_matches_dense_frobenius():
    rng = np.random.default_rng(3)
    for n, m in [(2, 2), (3, 3), (4, 3), (4, 4), (2, 5)]:
        N = compact_size(n, m)
        F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        dense = dense_oracle(F)
        npt.assert_allclose(F.norm(), np.linalg.norm(dense), rtol=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_norm_survives_extreme_scales(scale):
    F, _ = random_low_rank(4, 3, 3, seed=8)
    npt.assert_allclose((F * scale).norm(), scale * F.norm(), rtol=1e-12)


@st.composite
def exponent_batches(draw):
    # (64, 2) is wide: a mixed-radix key (m+1)^(n-1) overflows int64 there
    n, m = draw(st.one_of(st.just((64, 2)),
                          st.tuples(st.integers(1, 8), st.integers(1, 7))))
    batch = draw(st.lists(st.sampled_from(table(n, m).alphas),
                          min_size=1, max_size=20))
    return n, m, batch


@settings(max_examples=60, deadline=None)
@given(exponent_batches())
def test_slots_agree_with_index(case):
    n, m, batch = case
    tab = table(n, m)
    E = np.array(batch, dtype=np.int64).reshape(len(batch), n - 1)
    expect = [tab.index[a] for a in batch]
    npt.assert_array_equal(tab.slots(E), expect)
    # any leading shape ranks row by row
    npt.assert_array_equal(tab.slots(E[None, :, :]), [expect])


@pytest.mark.parametrize("E", [
    [2, -1],                    # the slot of (1, 1) if ranked blindly
    [-1, 2],
    [3, 1],                     # degree 4 > 3
    [[1, 0], [0, 2], [2, -1]],  # one bad row in a batch
    [[0, 0], [4, 0]],
])
def test_slots_reject_unrankable_exponents(E):
    with pytest.raises(ValueError, match="nonnegative with degree <= 3"):
        table(3, 3).slots(E)
    with pytest.raises(ValueError, match="2 entries"):
        table(3, 3).slots(np.pad(E, [(0, 0)] * (np.ndim(E) - 1) + [(0, 1)]))


def test_sum_slots_reject_degree_overflow():
    tab = table(3, 3)
    with pytest.raises(ValueError, match="exceed degree 3"):
        tab.sum_slots(compact_size(3, 2), compact_size(3, 2))
    with pytest.raises(ValueError, match="exceed degree 3"):
        tab.sum_slots([0, 9], [1])      # (0, 3) + (1, 0)


@st.composite
def slot_pairs(draw):
    """A table, a split d + (m - d) of its degree, and rows over degree <= d
    and columns over degree <= m - d, each a prefix length (possibly 0) or
    an index array (possibly empty, with repeats, in any order)."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    d = draw(st.integers(0, m))

    def pick(degree):
        k = compact_size(n, degree)
        return draw(st.one_of(st.integers(0, k),
                              st.lists(st.integers(0, k - 1), max_size=12)
                              .map(lambda ix: np.array(ix, dtype=np.intp))))
    return n, m, pick(d), pick(m - d)


@settings(max_examples=150, deadline=None)
@given(slot_pairs())
def test_sum_slots_match_slots_of_the_sum(case):
    n, m, rows, cols = case
    tab = table(n, m)
    A = tab.alpha_mat
    a = A[:rows] if np.ndim(rows) == 0 else A[rows]
    b = A[:cols] if np.ndim(cols) == 0 else A[cols]
    got = tab.sum_slots(rows, cols)
    assert got.dtype == np.int64 and got.shape == (len(a), len(b))
    npt.assert_array_equal(got, tab.slots(a[:, None] + b))
    npt.assert_array_equal(got, reference_slots(tab, a[:, None] + b))


@pytest.mark.parametrize("n,m", [(1, 4), (2, 5), (3, 3), (4, 4), (5, 3), (6, 2)])
def test_position_map_matches_reference(n, m):
    pos = _position_map(n, m)
    ref = reference_position_map(n, m)
    assert pos.dtype == ref.dtype and pos.shape == (n,) * m
    npt.assert_array_equal(pos, ref)
    assert not pos.flags.writeable


def test_position_map_memory():
    # suffix counts as int8 and one lookup per coordinate: no (n^m, n-1)
    # array of index counts (10^6 entries at (10, 6), 8 bytes each)
    table(10, 6)
    tracemalloc.start()
    try:
        _position_map.__wrapped__(10, 6)    # built cold, past the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def random_rows(kinds, n, seed):
    """One complex row per kind: dense, 40% zero entries, or all zero."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((len(kinds), n)) + 1j * rng.standard_normal((len(kinds), n))
    for i, kind in enumerate(kinds):
        if kind == "zero entries":
            U[i, rng.random(n) < 0.4] = 0.0
        elif kind == "all zero":
            U[i] = 0.0
    return U


ROW_KINDS = st.lists(st.sampled_from(["dense", "zero entries", "all zero"]),
                     min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 7), ROW_KINDS,
       st.integers(0, 2 ** 32 - 1))
def test_monomials_match_power_form(n, m, kinds, seed):
    U = random_rows(kinds, n, seed)
    tab = table(n, m)
    for d in range(m + 1):
        got = tab.monomials(U, d)
        assert got.shape == (len(kinds), compact_size(n, d))
        npt.assert_allclose(got, reference_monomials(U, homogeneous_exponents(tab, d)),
                            rtol=1e-13, atol=0)
    npt.assert_array_equal(tab.monomials(U), tab.monomials(U, m))
    # the terms' degree-m sums, from U alone and from the degree m - 1 values
    P = reference_monomials(U, homogeneous_exponents(tab, m))
    bound = 1e-13 * np.abs(P).sum(axis=0).max()
    for got in (tab.power_sums(U), tab.power_sums(U, tab.monomials(U, m - 1))):
        assert np.abs(got - P.sum(axis=0)).max() <= bound
        if m >= 2:      # the blocks add each sum as the whole array would
            assert got.tobytes() == tab.monomials(U).sum(axis=0).tobytes()


def test_monomials_reject_degree_beyond_table():
    with pytest.raises(ValueError, match="degree"):
        table(3, 2).monomials(np.ones((1, 3)), 3)
    with pytest.raises(ValueError, match="degree"):
        table(3, 2).monomials(np.ones((1, 3)), -1)


@pytest.mark.parametrize("n,m", [(1, 4), (3, 5), (6, 3), (8, 7)])
def test_decomposition_tensor_matches_power_form(n, m):
    U = random_rows(["dense", "zero entries", "all zero", "dense"], n, seed=n + m)
    want = reference_monomials(U, homogeneous_exponents(table(n, m), m)).sum(axis=0)
    got = Decomposition(m, U).tensor().values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_full_from_compact_matches_entry_oracle():
    rng = np.random.default_rng(4)
    N = compact_size(3, 3)
    F = SymTensor(3, 3, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    npt.assert_array_equal(full_from_compact(F), dense_oracle(F))


def test_compact_full_round_trip_exact():
    rng = np.random.default_rng(5)
    for n, m in [(2, 4), (3, 3), (5, 2)]:
        N = compact_size(n, m)
        vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        F = SymTensor(n, m, vals)
        G = compact_from_full(full_from_compact(F))
        assert G.n == n and G.m == m
        npt.assert_array_equal(G.values, vals)


def test_compact_from_full_rejects_asymmetric():
    A = np.zeros((2, 2, 2))
    A[0, 1, 1] = 1.0
    A[1, 0, 1] = 1.0 + 1e-6  # breaks symmetry
    A[1, 1, 0] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        compact_from_full(A)
    # within tolerance it passes
    A[1, 0, 1] = 1.0 + 1e-14
    compact_from_full(A)


def test_symtensor_validation():
    with pytest.raises(ValueError):
        SymTensor(3, 3, np.zeros(7))  # wrong length
    bad = np.zeros(compact_size(2, 2), dtype=complex)
    bad[1] = np.nan
    with pytest.raises(ValueError):
        SymTensor(2, 2, bad)
    F = SymTensor.zeros(2, 2)
    assert not F.values.flags.writeable


def test_table_rejects_oversized_layouts(monkeypatch):
    # checked before any exponent is enumerated; the cache is bypassed so
    # that a table built by an earlier test does not hide the check
    monkeypatch.setattr(tensors, "MAX_ENTRIES", compact_size(7, 7) - 1)
    with pytest.raises(ValueError, match="more than 1715 compact entries"):
        table.__wrapped__(7, 7)
    assert len(table.__wrapped__(7, 6)) == compact_size(7, 6)


def test_arithmetic():
    rng = np.random.default_rng(6)
    N = compact_size(3, 2)
    F = SymTensor(3, 2, rng.standard_normal(N) + 0j)
    G = SymTensor(3, 2, rng.standard_normal(N) + 0j)
    npt.assert_allclose(((F + G) - G).values, F.values, atol=1e-15)
    npt.assert_allclose((F * 2.0).values, 2.0 * F.values)
    npt.assert_allclose((-F).values, -F.values)


@pytest.mark.parametrize("call, error, match", [
    (lambda: exponents(-1, 2), ValueError, "nonnegative"),
    (lambda: multinomial((4,), 3), ValueError, "does not fit into degree 3"),
    (lambda: SymTensor.zeros(2, 2) + 1, TypeError, "expected a SymTensor"),
    (lambda: SymTensor.zeros(2, 2) + SymTensor.zeros(3, 2), ValueError,
     "shape mismatch"),
    (lambda: Decomposition(3, np.ones(3)), ValueError, "2-d array"),
    (lambda: Decomposition(3, [[np.nan, 1.0]]), ValueError, "finite"),
    (lambda: compact_from_full(np.zeros((2, 3))), ValueError, "cube"),
    (lambda: transform(SymTensor.zeros(2, 2), np.eye(3)), ValueError,
     "matrix must be 2 x 2"),
], ids=["exponents", "multinomial", "add-scalar", "add-shape", "vectors-1d",
        "vectors-nan", "full-not-cube", "transform-shape"])
def test_invalid_arguments_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_rank_one_against_outer_power():
    u = np.array([1.0 + 2.0j, -0.5, 3.0j])
    m = 3
    F = rank_one(u, m)
    dense = np.einsum("i,j,k->ijk", u, u, u)
    npt.assert_allclose(full_from_compact(F), dense, rtol=1e-14)


def test_decomposition_tensor_is_sum_of_terms():
    rng = np.random.default_rng(7)
    U = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    d = Decomposition(3, U)
    assert d.rank == 3 and d.n == 4
    expect = sum((rank_one(u, 3) for u in U), SymTensor.zeros(4, 3))
    npt.assert_allclose(d.tensor().values, expect.values, rtol=1e-13)


def test_transform_covariance():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    npt.assert_allclose(transform(rank_one(u, 3), A).values,
                        rank_one(A @ u, 3).values, rtol=1e-12)


def test_transform_identity_and_inverse():
    rng = np.random.default_rng(9)
    N = compact_size(3, 3)
    F = SymTensor(3, 3, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    npt.assert_allclose(transform(F, np.eye(3)).values, F.values, rtol=1e-14)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = transform(transform(F, A), np.linalg.inv(A))
    npt.assert_allclose(back.values, F.values, rtol=1e-9)


def test_transform_unitary_preserves_norm():
    rng = np.random.default_rng(10)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    N = compact_size(4, 3)
    F = SymTensor(4, 3, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    npt.assert_allclose(transform(F, Q).norm(), F.norm(), rtol=1e-12)


def test_transform_rejects_singular():
    F = SymTensor.zeros(2, 2)
    with pytest.raises(np.linalg.LinAlgError):
        transform(F, np.array([[1.0, 1.0], [1.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_transform_matches_dense_reference(n, m, seed):
    rng = np.random.default_rng(seed)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    bound = 1e-12 * F.norm() * np.linalg.norm(A, 2) ** m
    assert (transform(F, A) - dense_transform(F, A)).norm() <= bound


@pytest.mark.parametrize("n,m", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_transform_blocks_match_dense_reference(monkeypatch, n, m):
    # a budget of 7 entries splits every step into blocks of one or a few
    # columns J, several steps down to one column per block
    monkeypatch.setattr(tensors, "TRANSFORM_BLOCK", 7)
    rng = np.random.default_rng(n + 10 * m)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    bound = 1e-12 * F.norm() * np.linalg.norm(A, 2) ** m
    assert (transform(F, A) - dense_transform(F, A)).norm() <= bound


def transform_peak(n, seed):
    """tracemalloc peak of one warm transform of a random (n, 6) tensor by a
    random unitary."""
    rng = np.random.default_rng(seed)
    N = compact_size(n, 6)
    F = SymTensor(n, 6, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    transform(F, Q)     # warm: the table is cached
    tracemalloc.start()
    try:
        transform(F, Q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_memory_in_blocks():
    # at (16, 6) the largest T_k holds 10.7 MB; gathering a whole step at
    # once peaked at 67.5 MB, column blocks keep it near T_k + T_{k+1}
    assert transform_peak(16, 12) < 40e6


def test_transform_memory():
    # compact T_k at every step, no (n,)*m array: the dense path peaked at
    # ~91 MB here (12^6 complex entries and the int64 position map)
    assert transform_peak(12, 11) < 30e6


def test_random_low_rank_deterministic():
    F1, d1 = random_low_rank(4, 3, 2, seed=11)
    F2, d2 = random_low_rank(4, 3, 2, seed=11)
    npt.assert_array_equal(F1.values, F2.values)
    npt.assert_array_equal(d1.vectors, d2.vectors)
    F3, _ = random_low_rank(4, 3, 2, seed=12)
    assert not np.array_equal(F1.values, F3.values)
    npt.assert_allclose(d1.tensor().values, F1.values, rtol=1e-14)


def test_random_low_rank_tau_scaling():
    m, r = 3, 4
    _, d0 = random_low_rank(5, m, r, seed=13)
    _, dt = random_low_rank(5, m, r, seed=13, tau=2.0)
    for i in range(r):
        npt.assert_allclose(dt.vectors[i], d0.vectors[i] * 2.0 ** ((i + 1) / m),
                            rtol=1e-13)


def test_perturb_exact_norm():
    F, _ = random_low_rank(4, 3, 2, seed=14)
    # the (F + E) - F round trip costs a few ulps of ||F||
    floor = 20 * np.finfo(float).eps * F.norm()
    for eps in (1e-2, 1e-7):
        G = perturb(F, eps, seed=15)
        npt.assert_allclose((G - F).norm(), eps, rtol=1e-12, atol=floor)
    assert perturb(F, 0.0) is F
    for eps in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            perturb(F, eps)


def test_perturb_deterministic():
    F, _ = random_low_rank(3, 3, 2, seed=16)
    npt.assert_array_equal(perturb(F, 1e-3, seed=5).values,
                           perturb(F, 1e-3, seed=5).values)
