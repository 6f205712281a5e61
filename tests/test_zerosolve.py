import numpy as np
import numpy.testing as npt
import pytest

from symlra.genfit import (monomial_basis, fit_generating, companion_matrices,
                           optimize_generating)
from symlra.tensors import random_low_rank
from symlra.zerosolve import (commutation_gram, select_mixing, extract_zeros,
                              poly_residual, DEGENERACY_TOL)

from helpers import (reference_commutation_gram, reference_monomials,
                     reference_zeros)


def random_matrices(nbar, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nbar, r, r)) + 1j * rng.standard_normal((nbar, r, r))


def test_gram_quadratic_form_identity():
    M = random_matrices(4, 3, 0)
    V = commutation_gram(M)
    npt.assert_allclose(V, V.conj().T, atol=1e-13)
    rng = np.random.default_rng(1)
    for _ in range(5):
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        L = np.tensordot(xi, M, axes=(0, 0))
        expect = sum(np.linalg.norm(M[i] @ L - L @ M[i]) ** 2 for i in range(4))
        got = float((xi.conj() @ V @ xi).real)
        npt.assert_allclose(got, expect, rtol=1e-12)
        assert got >= 0


@pytest.mark.parametrize("nbar, r", [(0, 3), (1, 1), (1, 4), (2, 1), (3, 5),
                                     (5, 12), (9, 20)])
def test_gram_matches_loop_form_bit_for_bit(nbar, r):
    # the pair blocks of `commutator_residuals`, negated for j < i, are the
    # very commutators the loop forms, summed over i in the same order
    M = random_matrices(nbar, r, [nbar, r])
    assert commutation_gram(M).tobytes() == reference_commutation_gram(M).tobytes()


@pytest.mark.parametrize("nbar", range(10))
def test_batched_products_match_loop_forms_bit_for_bit(nbar):
    # one batched product each, for the Gram matrix and for Q^H M Q, is the
    # loop over variables bit for bit; the zeros come out in C order
    for r in range(1, 21):
        M = random_matrices(nbar, r, [nbar, r, 1])
        assert commutation_gram(M).tobytes() == reference_commutation_gram(M).tobytes()
        xi = np.random.default_rng([nbar, r, 2]).standard_normal(nbar) + 0.5j
        zeros = extract_zeros(M, xi).zeros
        assert zeros.flags.c_contiguous
        assert zeros.tobytes() == reference_zeros(M, xi).tobytes()


def test_gram_zero_for_commuting_family():
    rng = np.random.default_rng(2)
    D = [np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
         for _ in range(2)]
    npt.assert_allclose(commutation_gram(np.array(D)), 0, atol=1e-12)


class TestSelectMixing:
    def test_picks_smallest_eigvec(self):
        gram = np.diag([5.0, 1e-3, 9.0]).astype(complex)
        sel = select_mixing(gram)
        assert not sel.fallback
        npt.assert_allclose(np.abs(sel.xi), [0, 1, 0], atol=1e-12)
        assert sel.smallest == pytest.approx(1e-3)
        assert sel.largest == pytest.approx(9.0)

    def test_diagonal_gram(self):
        # diag(3, -1, 2): smallest -1, largest 3, and -1 is below the
        # degeneracy cutoff, so a random unit direction replaces e_2
        sel = select_mixing(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert sel.smallest == pytest.approx(-1.0)
        assert sel.largest == pytest.approx(3.0)
        assert sel.fallback
        npt.assert_allclose(np.linalg.norm(sel.xi), 1.0, rtol=1e-14)
        # shifted by 2 clear of the cutoff: the unit eigenvector e_2 itself
        sel = select_mixing(np.diag([5.0, 1.0, 4.0]).astype(complex))
        assert not sel.fallback
        npt.assert_allclose(np.abs(sel.xi), [0, 1, 0], atol=1e-14)
        npt.assert_allclose(np.linalg.norm(sel.xi), 1.0, rtol=1e-14)

    def test_empty_gram(self):
        # no variables to mix: an empty vector, both eigenvalues 0
        sel = select_mixing(np.zeros((0, 0), dtype=complex))
        assert sel.xi.shape == (0,) and sel.xi.dtype == complex
        assert (sel.smallest, sel.largest, sel.fallback) == (0.0, 0.0, False)

    def test_fallback_on_degenerate_gram(self):
        sel = select_mixing(np.zeros((3, 3), dtype=complex), seed=4)
        assert sel.fallback
        npt.assert_allclose(np.linalg.norm(sel.xi), 1.0, rtol=1e-12)
        # deterministic in the seed
        sel2 = select_mixing(np.zeros((3, 3), dtype=complex), seed=4)
        npt.assert_array_equal(sel.xi, sel2.xi)
        assert not np.array_equal(
            sel.xi, select_mixing(np.zeros((3, 3), dtype=complex), seed=5).xi)

    def test_threshold_is_relative(self):
        # smallest / largest just above the cutoff: no fallback
        gram = np.diag([10.0, 10.0 * DEGENERACY_TOL * 50]).astype(complex)
        assert not select_mixing(gram).fallback
        gram = np.diag([10.0, 10.0 * DEGENERACY_TOL / 50]).astype(complex)
        assert select_mixing(gram).fallback


class TestExtractZeros:
    def test_commuting_diagonal_family(self):
        # diagonal matrices: row k of the zeros must be the k-th diagonal
        # entries across the family (as a set)
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        M = np.array([np.diag(Z[:, i]) for i in range(2)])
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ext = extract_zeros(M, xi)
        # match rows up to permutation
        perm = [int(np.argmin(np.abs(ext.zeros - z).sum(axis=1))) for z in Z]
        assert sorted(perm) == [0, 1, 2]
        npt.assert_allclose(ext.zeros[perm], Z, atol=1e-12)

    def test_schur_values_are_mixed_coordinates(self):
        M = random_matrices(3, 4, 6)
        xi = np.array([0.3, -1.1 + 0.2j, 0.7j])
        ext = extract_zeros(M, xi)
        npt.assert_allclose(ext.schur_values, ext.zeros @ xi, atol=1e-10)

    def test_schur_values_are_eigenvalues(self):
        # the Schur form is a unitary similarity of L(xi) = sum_i xi_i M_i:
        # its diagonal holds L's eigenvalues, and the Rayleigh quotients of
        # each M_i add up to its trace
        M = random_matrices(3, 4, 3)
        xi = np.array([0.3, -1.1 + 0.2j, 0.7j])
        ext = extract_zeros(M, xi)
        eig = np.linalg.eigvals(np.tensordot(xi, M, axes=(0, 0)))
        npt.assert_allclose(np.sort_complex(ext.schur_values),
                            np.sort_complex(eig), atol=1e-10)
        npt.assert_allclose(ext.zeros.sum(axis=0),
                            np.trace(M, axis1=1, axis2=2), atol=1e-10)

    def test_exact_instance_recovers_normalized_vectors(self):
        F, d = random_low_rank(5, 3, 3, seed=7)
        fit = fit_generating(F, monomial_basis(5, 3, 3))
        opt = optimize_generating(fit)
        M = companion_matrices(opt.matrix, fit.basis)
        sel = select_mixing(commutation_gram(M), seed=0)
        ext = extract_zeros(M, sel.xi)
        assert poly_residual(opt.matrix, fit.basis, ext.zeros) < 1e-9
        assert not ext.repeated
        # each true vector, scaled to leading entry 1, appears among the rows
        want = d.vectors[:, 1:] / d.vectors[:, :1]
        for w in want:
            assert np.min(np.abs(ext.zeros - w).max(axis=1)) < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_repeated_schur_values_flagged_without_warning(self):
        # exactly repeated values: the identity has gap 0; the stage only
        # flags them, and `pipeline` decides what to warn
        ext = extract_zeros(np.eye(2)[None].astype(complex), np.array([1.0 + 0j]))
        assert ext.repeated
        npt.assert_allclose(ext.schur_values, [1.0, 1.0], atol=1e-14)

    def test_defective_matrix_diagonal(self):
        # a defective double eigenvalue splits by ~sqrt(eps) in floating
        # point, sitting just above the gap cutoff: no warning is promised,
        # but the diagonal still shows the repeated value
        M = np.array([[[0.0, -1.0], [1.0, 2.0]]], dtype=complex)
        ext = extract_zeros(M, np.array([1.0 + 0j]))
        npt.assert_allclose(ext.schur_values, [1.0, 1.0], atol=1e-7)
        npt.assert_allclose(ext.zeros.ravel(), [1.0, 1.0], atol=1e-7)

    def test_defective_family_schur_values(self):
        # M and M^2 commute and share one Jordan block for eigenvalue 1, so
        # L(xi) has the double eigenvalue xi_1 + xi_2 and both candidate
        # zeros sit at (1, 1), up to the ~sqrt(eps) defective splitting
        M1 = np.array([[0.0, -1.0], [1.0, 2.0]], dtype=complex)
        M = np.array([M1, M1 @ M1])
        xi = np.array([0.3 - 0.2j, 1.0])
        ext = extract_zeros(M, xi)
        npt.assert_allclose(ext.schur_values, [xi.sum()] * 2, atol=1e-7)
        npt.assert_allclose(ext.zeros, np.ones((2, 2)), atol=1e-7)
        npt.assert_allclose(ext.schur_values, ext.zeros @ xi, atol=1e-12)

    def test_nonzero_poly_residual_flags_inconsistency(self):
        # random (non-commuting) matrices with a random G: the candidate
        # zeros satisfy no polynomial system, so the diagnostic is large
        basis = monomial_basis(3, 3, 2)
        rng = np.random.default_rng(9)
        G = rng.standard_normal((2, len(basis.border))) + 0j
        M = random_matrices(2, 2, 10)
        ext = extract_zeros(M, np.array([1.0, 0.5 + 0.5j]))
        assert poly_residual(G, basis, ext.zeros) > 1e-3

    def test_poly_residual_matches_power_form(self):
        # core of degree <= 2, border up to degree 3, inconsistent G
        basis = monomial_basis(3, 4, 5)
        rng = np.random.default_rng(11)
        G = rng.standard_normal((5, len(basis.border))) \
            + 1j * rng.standard_normal((5, len(basis.border)))
        Z = extract_zeros(random_matrices(2, 5, 12), np.array([1.0, 0.3 - 0.6j])).zeros
        want = np.abs(reference_monomials(Z, basis.core) @ G
                      - reference_monomials(Z, basis.border)).max()
        npt.assert_allclose(poly_residual(G, basis, Z), want, rtol=1e-12)
