"""Tests for the core/border monomial sets, the per-column least-squares
fit, companion matrices, and the commutator minimization."""
import numpy as np
import numpy.testing as npt
import pytest

from symlra.genfit import (monomial_basis, generating_system, fit_generating,
                           companion_matrices, commutator_residuals,
                           _commutator_jacobian, optimize_generating)
from symlra.numerics import LMConfig
from symlra.tensors import compact_size, exponents, perturb, random_low_rank
from symlra.families import linear_tensor, ternary_tensor


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


class TestFitGenerating:
    def test_unique_columns_on_linear_tensor(self):
        fit = fit_generating(linear_tensor(), monomial_basis(5, 3, 2))
        assert fit.n_params == 0
        assert fit.residuals.max() < 1e-12
        assert np.all(fit.ranks == 2)
        col = list(fit.basis.border).index((0, 1, 0, 0))
        npt.assert_allclose(fit.gls[:, col], [-1.0, 2.0], atol=1e-12)

    def test_free_parameter_layout(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        # degree-2 columns are 3x4 systems (1 free each); degree-3 columns
        # are 1x4 (3 free each)
        assert fit.n_params == 8
        assert [s.stop - s.start for s in fit.param_slices] == [1, 1, 3, 3]

    def test_solution_line_of_free_column(self):
        # the (1,1) column's solutions form the line p + t*d; p (the t = 0
        # point) and d are hand-reducible from the 3x4 system above
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        col = list(fit.basis.border).index((1, 1))
        x, N = fit.gls[:, col], fit.nulls[col]
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


class TestOptimizeGenerating:
    def test_drives_commutators_to_zero(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        opt = optimize_generating(fit, seed=0, restarts=2)
        assert opt.objective < 1e-16
        assert opt.omega.shape == (8,)
        assert opt.status is not None
        assert len(opt.start_objectives) == 3
        assert 0 <= opt.start_index < 3

    def test_deterministic(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        a = optimize_generating(fit, seed=3, restarts=1)
        b = optimize_generating(fit, seed=3, restarts=1)
        npt.assert_array_equal(a.omega, b.omega)
        assert a.objective == b.objective

    def test_start_independent_of_subset(self):
        # start k draws from its own stream: running {2} alone must equal
        # the start-2 member of {0, 1, 2}
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        all_three = optimize_generating(fit, seed=5, restarts=2)
        only_two = optimize_generating(fit, seed=5, starts=[2])
        assert only_two.start_objectives[0] == all_three.start_objectives[2]

    def test_no_parameters_short_circuit(self):
        fit = fit_generating(linear_tensor(), monomial_basis(5, 3, 2))
        opt = optimize_generating(fit)
        assert opt.status is None
        assert opt.omega.shape == (0,)
        npt.assert_array_equal(opt.matrix, fit.matrix())

    def test_empty_starts_rejected(self):
        fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))
        with pytest.raises(ValueError, match="at least one start"):
            optimize_generating(fit, starts=[])

    def test_exact_rank_instance_commutes(self):
        F, _ = random_low_rank(6, 3, 3, seed=4)
        fit = fit_generating(F, monomial_basis(6, 3, 3))
        opt = optimize_generating(fit)
        assert np.sqrt(opt.objective) <= 1e-7 * (1 + F.norm())
