"""Tests for the core/border monomial sets, the least-squares fit (one
system per border degree), companion matrices, and the commutator
minimization."""
import tracemalloc
from functools import lru_cache

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from symlra import genfit
from symlra.genfit import (monomial_basis, generating_system, fit_generating,
                           companion_matrices, commutator_residuals,
                           _commutator_jacobian, _normal_system, optimize_generating)
from symlra.numerics import EPS, LMConfig, levenberg_marquardt
from symlra.tensors import (SymTensor, compact_size, exponents, perturb,
                            random_low_rank, table)
from symlra.families import linear_tensor, ternary_tensor

from helpers import (flat_commutator_jacobian,
                     reference_commutator_closures, reference_companions,
                     reference_fit, reference_matrix, reference_slots)


class TestMonomialBasis:
    def test_rank_one(self):
        b = monomial_basis(4, 3, 1)
        assert b.core == ((0, 0, 0),)
        assert b.border == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rank_two_n5(self):
        b = monomial_basis(5, 3, 2)
        assert b.core == ((0, 0, 0, 0), (1, 0, 0, 0))
        assert b.border == (
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))

    def test_rank_four_n3(self):
        b = monomial_basis(3, 3, 4)
        assert b.core == ((0, 0), (1, 0), (0, 1), (2, 0))
        assert b.border == ((1, 1), (0, 2), (3, 0), (2, 1))

    def test_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            monomial_basis(3, 3, 11)   # only 10 exponents exist
        with pytest.raises(ValueError, match="out of range"):
            monomial_basis(3, 3, 0)
        # core {1, x, x^2, x^3} needs border x^4 of degree 4 > m = 3
        with pytest.raises(ValueError, match="degree 4 > m"):
            monomial_basis(2, 3, 4)

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 7), (4, 11), (6, 25), (10, 50)])
    def test_structural_invariants(self, n, r):
        # smallest m whose degree-(m-1) space holds the core, so the
        # border degree cap never interferes
        m = next(m for m in range(2, r + 2) if compact_size(n, m - 1) >= r)
        b = monomial_basis(n, m, r)
        nbar = n - 1
        assert len(b.core) == r
        assert len(set(b.core)) == r
        core = set(b.core)
        border = set(b.border)
        assert not core & border
        assert len(b.border) <= r * nbar
        # closed under division
        for a in b.core:
            for i in range(nbar):
                if a[i] > 0:
                    down = a[:i] + (a[i] - 1,) + a[i + 1:]
                    assert down in core
        # border = (shifts of core) minus core, nothing more or less
        shifts = {a[:i] + (a[i] + 1,) + a[i + 1:]
                  for a in b.core for i in range(nbar)}
        assert border == shifts - core
        # graded-lex sorted listings
        def key(a):
            return (sum(a), tuple(-x for x in a))
        assert list(b.core) == sorted(b.core, key=key)
        assert list(b.border) == sorted(b.border, key=key)


class TestGeneratingSystem:
    def test_hand_reduced_column(self):
        # 3 x 4 system of the (1,1) border column: rows are the degree-<=1
        # shifts of the core entries, read straight out of the value table
        F = ternary_tensor()
        basis = monomial_basis(3, 3, 4)
        A, b = generating_system(F, (1, 1), basis)
        npt.assert_array_equal(A, np.array([
            [-8.0, 2.0, 15.0, -7.0],
            [2.0, -7.0, 17.0, 17.0],
            [15.0, 17.0, 7.0, 4.0]]))
        npt.assert_array_equal(b, [17.0, 4.0, 3.0])

    def test_row_count(self):
        F, _ = random_low_rank(4, 4, 2, seed=0)
        basis = monomial_basis(4, 4, 2)
        for alpha in basis.border:
            A, b = generating_system(F, alpha, basis)
            assert A.shape == (compact_size(4, 4 - sum(alpha)), 2)
            assert b.shape == (A.shape[0],)

    @pytest.mark.parametrize("n,m,r", [(2, 5, 3), (3, 4, 6), (5, 3, 5), (6, 4, 9)])
    def test_gather_matches_entry_loop(self, n, m, r):
        # per-entry reference: one dict lookup per (row, column) pair
        F = perturb(random_low_rank(n, m, r, seed=n)[0], 0.1, seed=2)
        basis = monomial_basis(n, m, r)
        for alpha in basis.border:
            gammas = exponents(n - 1, m - sum(alpha))

            def at(a, g):
                return F.entry(tuple(x + y for x, y in zip(a, g)))
            A_ref = np.array([[at(beta, g) for beta in basis.core] for g in gammas],
                             dtype=complex)
            b_ref = np.array([at(alpha, g) for g in gammas], dtype=complex)
            A, b = generating_system(F, alpha, basis)
            assert A.tobytes() == A_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    def test_degree_overflow_rejected(self):
        F, _ = random_low_rank(3, 3, 2, seed=0)
        with pytest.raises(ValueError, match="exceeds degree"):
            generating_system(F, (4, 0), monomial_basis(3, 3, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            generating_system(F, [-1, 2], monomial_basis(3, 3, 2))

    @pytest.mark.parametrize("n,m,r", [(2, 5, 3), (3, 4, 6), (5, 3, 5)])
    def test_group_stacks_single_columns(self, n, m, r):
        # a group of one degree shares A; column j of B is exponent j's b
        F = perturb(random_low_rank(n, m, r, seed=n)[0], 0.1, seed=2)
        basis = monomial_basis(n, m, r)
        for d in {sum(a) for a in basis.border}:
            group = [a for a in basis.border if sum(a) == d]
            A, B = generating_system(F, group, basis)
            assert B.shape == (A.shape[0], len(group))
            for j, alpha in enumerate(group):
                A1, b1 = generating_system(F, alpha, basis)
                assert A.tobytes() == A1.tobytes()
                assert np.array_equal(B[:, j], b1)

    @pytest.mark.parametrize("n,m,r", [(2, 5, 3), (3, 4, 6), (6, 4, 9), (10, 6, 20)])
    def test_gathers_match_reference_slots(self, n, m, r):
        # A and B ranked from explicit arrays of summed exponents, one
        # exponent and one group per border degree; both C-contiguous
        F = perturb(random_low_rank(n, m, r, seed=n)[0], 0.1, seed=2)
        basis = monomial_basis(n, m, r)
        tab = table(n, m)
        border = np.array(basis.border, dtype=np.int64)
        for d in np.unique(border.sum(axis=1)):
            group = border[border.sum(axis=1) == d]
            gammas = tab.alpha_mat[:compact_size(n, m - d)]
            A_ref = F.values[reference_slots(tab, gammas[:, None] + tab.alpha_mat[:r])]
            B_ref = F.values[reference_slots(tab, group[:, None, :] + gammas)].T
            for alpha, b_ref in ((group, B_ref), (group[0], B_ref[:, 0])):
                A, B = generating_system(F, alpha, basis)
                assert A.flags.c_contiguous and B.flags.c_contiguous
                assert A.shape == A_ref.shape and B.shape == b_ref.shape
                assert A.tobytes() == A_ref.tobytes() and B.tobytes() == b_ref.tobytes()

    def test_mixed_degree_group_rejected(self):
        F, _ = random_low_rank(3, 3, 4, seed=0)
        with pytest.raises(ValueError, match="one degree"):
            generating_system(F, [(1, 1), (3, 0)], monomial_basis(3, 3, 4))


class TestFitGenerating:
    def test_fit_memory(self):
        # (10, 6, 20): two systems of 715 x 55 and 2002 x 10 slots; no
        # (p, q, n-1) array of summed exponents
        F = perturb(random_low_rank(10, 6, 20, seed=1)[0], 1e-4, seed=2)
        basis = monomial_basis(10, 6, 20)
        fit_generating(F, basis)
        tracemalloc.start()
        try:
            fit_generating(F, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_fit_memory_with_parameters(self):
        # (20, 4, 30): 1450 free parameters and 171 variable pairs; the
        # fit builds no Jacobian indices (its sparse map waits for the
        # first commutator LM), let alone one per entry of J (236 MB of
        # flat positions)
        F = perturb(random_low_rank(20, 4, 30, seed=1)[0], 1e-4, seed=2)
        basis = monomial_basis(20, 4, 30)
        fit_generating(F, basis)
        tracemalloc.start()
        try:
            fit = fit_generating(F, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.n_params == 1450
        assert peak < 40e6

    def test_fit_arrays_scale_with_directions_not_parameters(self):
        # (20, 4, 30): 1450 parameters over 323 border columns of two
        # degrees, but only Q = 10 null directions; a P-wide copy of the
        # directions (r x P) and a P x n_border placement held 9.5 MB
        F = perturb(random_low_rank(20, 4, 30, seed=1)[0], 1e-4, seed=2)
        fit = fit_generating(F, monomial_basis(20, 4, 30))

        def held(value):    # bytes of the fit's own arrays
            if isinstance(value, np.ndarray):
                return value.nbytes
            return sum(map(held, value)) if isinstance(value, tuple) else 0
        assert fit.n_params == 1450
        assert sum(map(held, vars(fit).values())) < 3e6
        assert fit.null.shape == (30, 10)

    def test_unique_columns_on_linear_tensor(self):
        fit = fit_generating(linear_tensor(), monomial_basis(5, 3, 2))
        assert fit.n_params == 0
        assert fit.residuals.max() < 1e-12
        assert fit.null.shape == (2, 0)      # every system has rank 2
        assert fit.slots.shape == (0,)
        col = list(fit.basis.border).index((0, 1, 0, 0))
        npt.assert_allclose(fit.gls[:, col], [-1.0, 2.0], atol=1e-12)

    def test_free_parameter_layout(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        # degree-2 columns are 3x4 systems (1 free each); degree-3 columns
        # are 1x4 (3 free each)
        assert fit.n_params == 8
        q, col = np.divmod(fit.slots, len(fit.basis.border))
        assert np.bincount(col).tolist() == [1, 1, 3, 3]
        # parameters run border column by border column, each column's in
        # its degree's direction order: one degree-2 direction, three degree-3
        assert col.tolist() == [0, 1, 2, 2, 2, 3, 3, 3]
        assert q.tolist() == [0, 0, 1, 2, 3, 1, 2, 3]
        assert fit.null.shape == (4, 4)

    def test_solution_line_of_free_column(self):
        # the (1,1) column's solutions form the line p + t*d; p (the t = 0
        # point) and d are hand-reducible from the 3x4 system above
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        col = list(fit.basis.border).index((1, 1))
        q, param_col = np.divmod(fit.slots, len(fit.basis.border))
        x, N = fit.gls[:, col], fit.null[:, q[param_col == col]]
        assert N.shape == (4, 1)
        p = np.array([0.0, -181 / 7019, 5942 / 7019, -4365 / 7019],
                     dtype=complex)
        d = np.array([1.0, -5800 / 7019, 2057 / 7019, -5271 / 7019],
                     dtype=complex)
        A, b = generating_system(ternary_tensor(), (1, 1), fit.basis)
        assert np.linalg.norm(A @ p - b) < 1e-12
        # both the point and the direction live in x + span(N)
        npt.assert_allclose(N @ (N.conj().T @ (p - x)), p - x, atol=1e-12)
        npt.assert_allclose(N @ (N.conj().T @ d), d, atol=1e-12)

    def test_matrix_omega_validation(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        with pytest.raises(ValueError, match="8 free parameters"):
            fit.matrix(np.zeros(3))

    def test_exact_rank_columns_consistent(self):
        F, _ = random_low_rank(6, 3, 3, seed=4)
        fit = fit_generating(F, monomial_basis(6, 3, 3))
        assert fit.residuals.max() <= 1e-8 * (1 + F.norm())


class TestCompanionMatrices:
    def test_wiring(self):
        basis = monomial_basis(3, 3, 4)
        G = (np.arange(16).reshape(4, 4) + 0j)
        M = companion_matrices(G, basis)
        e = np.eye(4)
        # x1 shifts: 1 -> x1 (slot 1), x1 -> x1^2 (slot 3),
        # x2 -> x1x2 (border col 0), x1^2 -> x1^3 (border col 2)
        npt.assert_array_equal(M[0][:, 0], e[1])
        npt.assert_array_equal(M[0][:, 1], e[3])
        npt.assert_array_equal(M[0][:, 2], G[:, 0])
        npt.assert_array_equal(M[0][:, 3], G[:, 2])
        # x2 shifts: 1 -> x2, x1 -> x1x2, x2 -> x2^2, x1^2 -> x1^2 x2
        npt.assert_array_equal(M[1][:, 0], e[2])
        npt.assert_array_equal(M[1][:, 1], G[:, 0])
        npt.assert_array_equal(M[1][:, 2], G[:, 1])
        npt.assert_array_equal(M[1][:, 3], G[:, 3])

    def test_linear_tensor_matrices(self):
        fit = fit_generating(linear_tensor(), monomial_basis(5, 3, 2))
        M = companion_matrices(fit.matrix(), fit.basis)
        expect = np.array([
            [[0, -1], [1, 2]],
            [[-1, -2], [2, 3]],
            [[-2, -3], [3, 4]],
            [[-3, -4], [4, 5]],
        ], dtype=float)
        npt.assert_allclose(M, expect, atol=1e-6)

    def test_commutator_residual_layout(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        res = commutator_residuals(M)
        assert res.shape == (3 * 4,)
        npt.assert_allclose(res[:4], (M[0] @ M[1] - M[1] @ M[0]).ravel())
        assert commutator_residuals(M[:1]).shape == (0,)


def test_commutator_jacobian_matches_differences():
    # residual is quadratic in omega, so a central difference is exact up
    # to rounding
    fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
    rng = np.random.default_rng(7)
    omega = rng.standard_normal(8) + 1j * rng.standard_normal(8)

    def resid(w):
        return commutator_residuals(
            companion_matrices(fit.matrix(w), fit.basis))

    J = _commutator_jacobian(fit, companion_matrices(fit.matrix(omega),
                                                     fit.basis))
    h = 1e-3
    for j in range(8):
        e = np.zeros(8, dtype=complex)
        e[j] = h
        col = (resid(omega + e) - resid(omega - e)) / (2 * h)
        npt.assert_allclose(J[:, j], col, atol=1e-9 * max(1, np.abs(J).max()))


@lru_cache(maxsize=None)
def ranks_with_parameters(n, m):
    """The three smallest ranks whose fit of a generic tensor keeps free
    parameters: border column alpha has max(0, r - rows) of them, with
    compact_size(n, m - |alpha|) rows."""
    found = []
    for r in range(1, compact_size(n, m - 1) + 1):
        basis = monomial_basis(n, m, r)
        if any(r > compact_size(n, m - sum(a)) for a in basis.border):
            found.append(r)
    return tuple(found[:3])


def assert_closures_match_loop_forms(n, m, r, seed, at_zero):
    """G, the companion matrices, and the commutator residual and Jacobian
    from the fit's affine map against the per-column, per-feed loop forms,
    to 1e-12 of the largest reference entry."""
    rng = np.random.default_rng(seed)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    fit = fit_generating(F, monomial_basis(n, m, r))
    ref = reference_fit(F, fit.basis)
    assert fit.n_params > 0
    k = fit.n_params
    omega = (np.zeros(k, dtype=complex) if at_zero
             else rng.standard_normal(k) + 1j * rng.standard_normal(k))
    residual, jacobian = reference_commutator_closures(ref)
    G = fit.matrix(omega)
    M = companion_matrices(G, fit.basis)
    pairs = [(commutator_residuals(M), residual(omega)),
             (_commutator_jacobian(fit, M), jacobian(omega)),
             (G, reference_matrix(ref, omega)),
             (M, reference_companions(G, fit.basis))]
    for got, ref in pairs:
        assert got.shape == ref.shape
        tol = 1e-12 * np.abs(ref).max(initial=1.0)
        assert np.abs(got - ref).max(initial=0.0) <= tol


def assert_within(got, ref, scale):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(2, 5), pick=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["generic", "zero", "deficient"]))
def test_grouped_fit_matches_per_column_reference(n, m, pick, seed, kind):
    ranks = ranks_with_parameters(n, m)
    r = ranks[min(pick, len(ranks) - 1)]
    rng = np.random.default_rng(seed)
    N = compact_size(n, m)
    if kind == "generic":
        F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    elif kind == "zero":
        F = SymTensor(n, m, np.zeros(N, dtype=complex))
    else:   # rank below r, so every system of a degree is rank-deficient
        F, _ = random_low_rank(n, m, max(1, r // 2), seed=seed)
    fit = fit_generating(F, monomial_basis(n, m, r))
    ref = reference_fit(F, fit.basis)
    assert fit.n_params == ref.n_params
    # each parameter's column and direction, as the reference lays them out
    q, col = np.divmod(fit.slots, len(fit.basis.border))
    assert col.tolist() == [c for c, sl in enumerate(ref.param_slices)
                            for _ in range(sl.start, sl.stop)]
    for got, want in [(fit.gls, ref.gls), (fit.null[:, q], ref.directions)]:
        assert_within(got, want, np.abs(want).max(initial=0.0))
    omega = rng.standard_normal(fit.n_params) + 1j * rng.standard_normal(fit.n_params)
    want = reference_matrix(ref, omega)
    assert_within(fit.matrix(omega), want, np.abs(want).max(initial=0.0))
    # consistent systems leave residuals at round-off, so they are measured
    # against the size of the system's entries and solutions
    scale = max(ref.residuals.max(initial=0.0),
                np.abs(F.values).max() * max(1.0, np.abs(ref.gls).max(initial=0.0)))
    assert_within(fit.residuals, ref.residuals, scale)


@pytest.mark.parametrize("n,m,r", [(10, 6, 20), (3, 3, 4)])
def test_one_system_per_border_degree(monkeypatch, n, m, r):
    # (10, 6, 20): 35 border columns of degree 2 and 53 of degree 3;
    # (3, 3, 4): two of each
    calls = {"generating_system": 0, "minnorm_lstsq": 0}

    def counted(name):
        original = getattr(genfit, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(genfit, name, wrapper)
    for name in calls:
        counted(name)
    rng = np.random.default_rng(0)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    basis = monomial_basis(n, m, r)
    fit_generating(F, basis)
    assert len({sum(a) for a in basis.border}) == 2
    assert calls == {"generating_system": 2, "minnorm_lstsq": 2}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(2, 5), pick=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1), at_zero=st.booleans())
def test_commutator_closures_match_loop_forms(n, m, pick, seed, at_zero):
    ranks = ranks_with_parameters(n, m)
    assert_closures_match_loop_forms(n, m, ranks[min(pick, len(ranks) - 1)],
                                     seed, at_zero)


def assert_jacobian_matches_flat_scatter(n, m, r, seed, units=None):
    """`_commutator_jacobian` against the same r x r blocks scattered
    through one flat position per entry of J (`flat_commutator_jacobian`).

    At a unit companion matrix E (one entry of one M_y is 1, every other 0)
    each entry of either J is one product, or a difference with a zero,
    so they agree value for value: this checks every coefficient of the
    fit's `jacobian_map`.  `units` draws that many of the n_bar r^2 unit
    matrices; None takes them all.  At a random omega the sparse product
    sums an entry's terms in another order than the scatter's matmul, and
    the two agree to 4 ulps of the largest |J| entry."""
    rng = np.random.default_rng(seed)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    fit = fit_generating(F, monomial_basis(n, m, r))
    assert fit.n_params > 0
    k, size = fit.n_params, (n - 1) * r * r
    for c in (range(size) if units is None else rng.choice(size, units, replace=False)):
        E = np.zeros((n - 1, r, r), dtype=complex)
        E.flat[c] = 1.0
        got, ref = _commutator_jacobian(fit, E), flat_commutator_jacobian(fit, E)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    M = companion_matrices(
        fit.matrix(rng.standard_normal(k) + 1j * rng.standard_normal(k)), fit.basis)
    got, ref = _commutator_jacobian(fit, M), flat_commutator_jacobian(fit, M)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.abs(got - ref).max(initial=0.0) <= 4 * EPS * np.abs(ref).max(initial=0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(2, 5), pick=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_commutator_jacobian_matches_flat_scatter(n, m, pick, seed):
    ranks = ranks_with_parameters(n, m)
    assert_jacobian_matches_flat_scatter(n, m, ranks[min(pick, len(ranks) - 1)], seed)


@pytest.mark.parametrize("n,m,r", [(10, 3, 12), (15, 4, 20)])
def test_commutator_jacobian_matches_flat_scatter_large(n, m, r):
    # criterion 6's size and a 36400 x 300 J; a few unit matrices each
    assert_jacobian_matches_flat_scatter(n, m, r, 3, units=3)


@pytest.mark.parametrize("n,m,r", [(3, 4, 5), (3, 5, 8), (5, 3, 7), (10, 3, 12)])
def test_normal_system_upper_triangle_matches_gram(n, m, r):
    # zherk's upper triangle and zgemv against J^H J and J^H f by matmul
    rng = np.random.default_rng(11)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    fit = fit_generating(F, monomial_basis(n, m, r))
    k = fit.n_params
    M = companion_matrices(
        fit.matrix(rng.standard_normal(k) + 1j * rng.standard_normal(k)), fit.basis)
    J = _commutator_jacobian(fit, M)
    assert J.flags.f_contiguous
    f = commutator_residuals(M)
    JhJ, Jhf = _normal_system(J, f)
    upper = np.triu_indices(k)
    gram = J.conj().T @ J
    assert np.abs(JhJ[upper] - gram[upper]).max() <= 1e-13 * np.abs(gram).max()
    assert np.abs(Jhf - J.conj().T @ f).max() <= 1e-13 * np.abs(J.conj().T @ f).max()


def test_jacobian_map_memory():
    # criterion 6's size: J is 5184 x 273 (22.6 MB); W holds one value and
    # one int32 column per coefficient, and int32 row pointers
    F0, _ = random_low_rank(10, 3, 12, seed=1, tau=1000.0 ** (1 / 12))
    fit = fit_generating(perturb(F0, 1e-4, seed=2), monomial_basis(10, 3, 12))
    assert "jacobian_map" not in vars(fit)          # built on first use only
    J_bytes = 5184 * fit.n_params * 16
    tracemalloc.start()
    try:
        W = fit.jacobian_map
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.n_params == 273 and W.shape == (273 * 5184, 9 * 144)
    assert W.indices.dtype == np.int32 and W.indptr.dtype == np.int32
    assert W.data.nbytes + W.indices.nbytes + W.indptr.nbytes <= 1.5 * J_bytes
    assert peak < 100e6
    assert fit.jacobian_map is W


@pytest.mark.parametrize("at_zero", [True, False])
@pytest.mark.parametrize("n,m,r", [(2, 6, 4), (10, 3, 12)])
def test_commutator_closures_fixed_cases(n, m, r, at_zero):
    # (2, 6, 4): one free parameter and no commutator pair, so the residual
    # and the Jacobian have no rows; (10, 3, 12): criterion 6's size
    assert_closures_match_loop_forms(n, m, r, 5, at_zero)


class TestOptimizeGenerating:
    def test_drives_commutators_to_zero(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        opts = [optimize_generating(fit, seed=0, start=s) for s in range(3)]
        assert min(opt.objective for opt in opts) < 1e-16
        for opt in opts:
            assert opt.omega.shape == (8,)
            assert opt.status is not None

    def test_deterministic(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        for start in range(2):
            a = optimize_generating(fit, seed=3, start=start)
            b = optimize_generating(fit, seed=3, start=start)
            npt.assert_array_equal(a.omega, b.omega)
            assert a.objective == b.objective

    def test_start_independent_of_subset(self):
        # start k draws from its own stream: start 2 alone must equal the
        # start-2 run of the sequence 0, 1, 2
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        all_three = [optimize_generating(fit, seed=5, start=s) for s in range(3)]
        only_two = optimize_generating(fit, seed=5, start=2)
        assert only_two.omega.tobytes() == all_three[2].omega.tobytes()
        assert only_two.objective == all_three[2].objective
        assert only_two.omega.tobytes() != all_three[1].omega.tobytes()

    def test_no_parameters_short_circuit(self):
        fit = fit_generating(linear_tensor(), monomial_basis(5, 3, 2))
        opt = optimize_generating(fit)
        assert opt.status is None and (opt.iterations, opt.evaluations) == (0, 0)
        assert opt.omega.shape == (0,)
        npt.assert_array_equal(opt.matrix, fit.matrix())

    @pytest.mark.parametrize("start", [0, 1])
    def test_normal_system_matches_explicit_jacobian(self, start):
        # the normal system reuses the residual's companion matrices; an LM
        # that rebuilds them for an explicit Jacobian, through the same
        # Gram routine, takes the same steps
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        opt = optimize_generating(fit, seed=2, start=start)

        def residual(omega):
            return commutator_residuals(companion_matrices(fit.matrix(omega), fit.basis))

        def normal(omega, f):
            J = _commutator_jacobian(fit, companion_matrices(fit.matrix(omega), fit.basis))
            return _normal_system(J, f)
        x0 = np.zeros(8, dtype=complex)
        if start:
            rng = np.random.default_rng([2, start])
            x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lm = levenberg_marquardt(residual, normal, x0, LMConfig())
        assert opt.omega.tobytes() == lm.x.tobytes()
        assert opt.objective == lm.residual_norm ** 2 and opt.status == lm.status
        assert (opt.iterations, opt.evaluations) == (lm.iterations, lm.residual_evaluations)
        assert opt.iterations > 0

    def test_no_commutator_pair_leaves_stderr_empty(self, capfd):
        # n = 2: one free parameter and no variable pair, so J has no rows,
        # which BLAS zherk would report on stderr
        rng = np.random.default_rng(4)
        N = compact_size(2, 6)
        F = SymTensor(2, 6, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        fit = fit_generating(F, monomial_basis(2, 6, 4))
        assert fit.n_params == 1
        opt = optimize_generating(fit, seed=1, start=1)
        assert opt.status == "converged-gradient" and opt.objective == 0.0
        assert (opt.iterations, opt.evaluations) == (0, 1)
        assert capfd.readouterr().err == ""

    def test_exact_rank_instance_commutes(self):
        F, _ = random_low_rank(6, 3, 3, seed=4)
        fit = fit_generating(F, monomial_basis(6, 3, 3))
        opt = optimize_generating(fit)
        assert np.sqrt(opt.objective) <= 1e-7 * (1 + F.norm())
