"""End-to-end pipeline tests: coefficient fit, reconstruction, refinement,
approximation driver, and the decomposition search."""
import numpy as np
import numpy.testing as npt
import pytest

from symlra.numerics import LMConfig, finite_difference_jacobian
from symlra.tensors import (SymTensor, Decomposition, rank_one,
                            random_low_rank, perturb)
from symlra.pipeline import (fit_coefficients, terms_from_zeros, refine,
                             _refine_closures, approximate, decompose,
                             match_distance, seed_key, SHUFFLE_TRIGGER)
from symlra.families import sin_tensor, ternary_tensor, octet_decomposition


def normalized_instance(n, m, r, seed):
    """Random instance with unit leading vector entries, plus its zeros
    and true coefficients."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((r, n - 1)) + 1j * rng.standard_normal((r, n - 1))
    c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    F = SymTensor.zeros(n, m)
    for i in range(r):
        F = F + rank_one(np.concatenate(([1.0], Z[i])), m) * c[i]
    return F, Z, c


class TestFitCoefficients:
    def test_exact_recovery(self):
        F, Z, c = normalized_instance(4, 3, 3, seed=0)
        npt.assert_allclose(fit_coefficients(F, Z), c, rtol=1e-10)

    def test_duplicate_zero_splits_evenly(self):
        # two identical columns: the minimum-norm solution shares the
        # coefficient equally
        F = rank_one(np.array([1.0, 0.5, -0.25]), 3) * 2.0
        z = np.array([[0.5, -0.25], [0.5, -0.25]], dtype=complex)
        npt.assert_allclose(fit_coefficients(F, z), [1.0, 1.0], rtol=1e-12)

    def test_permutation_equivariance(self):
        F, Z, c = normalized_instance(4, 3, 3, seed=1)
        perm = [2, 0, 1]
        npt.assert_allclose(fit_coefficients(F, Z[perm]), c[perm], rtol=1e-10)


class TestTermsFromZeros:
    def test_principal_root(self):
        d = terms_from_zeros(np.array([-8.0 + 0j]), np.array([[0.5]]), 3)
        # principal cube root of -8 has argument pi/3
        npt.assert_allclose(d.vectors[0, 0], 1.0 + np.sqrt(3.0) * 1j,
                            rtol=1e-14)
        npt.assert_allclose(d.vectors[0, 1], (1.0 + np.sqrt(3.0) * 1j) * 0.5,
                            rtol=1e-14)

    def test_reconstructs_weighted_sum(self):
        F, Z, c = normalized_instance(3, 4, 2, seed=2)
        d = terms_from_zeros(c, Z, 4)
        npt.assert_allclose(d.tensor().values, F.values, rtol=1e-12)

    def test_zero_coefficient_gives_zero_vector(self):
        d = terms_from_zeros(np.array([0.0, 2.0]), np.array([[1.0], [3.0]]), 3)
        npt.assert_array_equal(d.vectors[0], 0.0)
        assert d.vectors[1, 0] != 0


class TestRefine:
    def test_jacobian_matches_differences(self):
        # holomorphic: the differences along the real directions give J,
        # along the imaginary ones 1j * J
        F, _ = random_low_rank(3, 3, 2, seed=3)
        residual, jacobian = _refine_closures(F, 2)
        rng = np.random.default_rng(4)
        for _ in range(4):
            u = rng.standard_normal(2 * 3) + 1j * rng.standard_normal(2 * 3)
            npt.assert_allclose(jacobian(u),
                                finite_difference_jacobian(residual, u),
                                atol=1e-5)
            npt.assert_allclose(
                1j * jacobian(u),
                finite_difference_jacobian(lambda t: residual(u + 1j * t),
                                           np.zeros(u.size)),
                atol=1e-5)

    def test_jacobian_at_zero_entries(self):
        # entries exactly zero: the power rule must not produce NaN
        F, _ = random_low_rank(3, 3, 2, seed=5)
        _, jacobian = _refine_closures(F, 2)
        J = jacobian(np.zeros(2 * 3, dtype=complex))
        assert J.shape == (F.values.size, 2 * 3)
        assert np.isfinite(J).all()

    def test_improves_and_reports(self):
        F0, d = random_low_rank(4, 3, 2, seed=6)
        F = perturb(F0, 1e-2, seed=7)
        start = Decomposition(3, d.vectors * 1.01)  # slightly off
        out = refine(F, start)
        assert out.error <= (start.tensor() - F).norm() + 1e-12
        assert out.error <= 1.0e-2  # at most the perturbation level
        assert out.lm is not None

    def test_rank_zero_start(self):
        F, _ = random_low_rank(3, 3, 1, seed=8)
        out = refine(F, Decomposition(3, np.zeros((0, 3))))
        assert out.error == pytest.approx(F.norm())
        assert out.lm is None


class TestApproximate:
    def test_exact_instance(self):
        F, _ = random_low_rank(6, 3, 3, seed=9)
        res = approximate(F, 3)
        assert res.err_opt <= res.err_gp + 1e-12 * (1 + F.norm())
        assert res.err_opt <= 1e-10 * (1 + F.norm())
        assert res.diagnostics["rank"] == 3
        assert not res.diagnostics["rank_estimated"]

    def test_rank_estimated_when_omitted(self):
        F, _ = random_low_rank(6, 3, 2, seed=10)
        res = approximate(F)
        assert res.diagnostics["rank"] == 2
        assert res.diagnostics["rank_estimated"]
        assert "spectrum" in res.diagnostics

    def test_perturbed_instance_errors(self):
        F0, _ = random_low_rank(10, 3, 3, seed=11)
        F = perturb(F0, 1e-3, seed=12)
        res = approximate(F, 3)
        assert res.err_opt <= 1.05e-3
        assert res.err_gp >= res.err_opt

    def test_skip_refine(self):
        F, _ = random_low_rank(5, 3, 2, seed=13)
        res = approximate(perturb(F, 1e-2, seed=14), 2, skip_refine=True)
        assert res.refined is res.gp
        assert res.err_opt == res.err_gp
        assert res.diagnostics["refine_status"] is None

    def test_scale_equivariance(self):
        F, _ = random_low_rank(5, 3, 2, seed=15)
        F = perturb(F, 1e-2, seed=16)
        a = approximate(F, 2)
        b = approximate(F * 100.0, 2)
        npt.assert_allclose(b.err_gp, 100.0 * a.err_gp, rtol=1e-9)
        npt.assert_allclose(b.err_opt, 100.0 * a.err_opt, rtol=1e-6)

    def test_deterministic(self):
        F, _ = random_low_rank(6, 3, 4, seed=17)
        F = perturb(F, 1e-3, seed=18)
        a = approximate(F, 4, seed=2)
        b = approximate(F, 4, seed=2)
        assert a.err_opt == b.err_opt
        npt.assert_array_equal(a.refined.vectors, b.refined.vectors)

    def test_zero_tensor(self):
        res = approximate(SymTensor.zeros(3, 3), 1)
        assert res.err_gp == 0.0 and res.err_opt == 0.0
        npt.assert_array_equal(res.refined.vectors, 0.0)

    def test_rank_zero(self):
        F, _ = random_low_rank(3, 3, 1, seed=19)
        res = approximate(F, 0)
        assert res.refined.rank == 0
        assert res.err_opt == pytest.approx(F.norm())

    def test_nonreal_warning_on_real_input(self):
        with pytest.warns(UserWarning, match="genuinely complex"):
            res = approximate(sin_tensor(), 2)
        assert res.diagnostics["nonreal_output"]
        assert res.err_opt < 1e-8

    def test_auto_shuffle_rescues_tiny_leading_entry(self):
        # leading entry ~1e-9 puts the normalized zero at ~1e9: unusable
        # directly, fixed by the automatic unitary change of coordinates
        U = np.array([[1e-9, 1.0, 1.0], [1.0, -0.7, 0.3]], dtype=complex)
        F = Decomposition(3, U).tensor()
        plain = approximate(F, 2, coordinate_shuffle=False)
        assert plain.diagnostics["zero_magnitude"] > SHUFFLE_TRIGGER
        assert plain.err_opt > 1e-2  # genuinely stuck
        auto = approximate(F, 2)
        assert auto.diagnostics.get("auto_shuffled")
        assert auto.diagnostics["coordinate_shuffle"]
        assert auto.err_opt < 1e-10 * (1 + F.norm())

    def test_explicit_shuffle_matches_plain_on_benign_input(self):
        F0, _ = random_low_rank(5, 3, 2, seed=20)
        F = perturb(F0, 1e-3, seed=21)
        a = approximate(F, 2)
        b = approximate(F, 2, coordinate_shuffle=True)
        assert not a.diagnostics["coordinate_shuffle"]
        assert b.diagnostics["coordinate_shuffle"]
        npt.assert_allclose(b.err_opt, a.err_opt, rtol=1e-6)

    @pytest.mark.filterwarnings("ignore:nearly repeated Schur values")
    def test_auto_shuffle_rescues_silent_total_failure(self):
        # every u_1 = 0: no zero runs off, yet the unshuffled run explains
        # nothing (err_opt = ||F||), which no rank >= 1 optimum does
        rng = np.random.default_rng(0)
        U = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        U[:, 0] = 0
        F = Decomposition(3, U).tensor()
        with pytest.warns(UserWarning, match="explains none of the tensor"):
            plain = approximate(F, 2, coordinate_shuffle=False)
        assert plain.diagnostics["zero_magnitude"] <= SHUFFLE_TRIGGER
        assert plain.err_opt >= (1 - 1e-6) * F.norm()
        auto = approximate(F, 2)
        assert auto.diagnostics["auto_shuffled"]
        assert auto.err_opt <= 1e-10 * (1 + F.norm())

    def test_diagnostics_keys(self):
        F, _ = random_low_rank(4, 3, 2, seed=22)
        runs = {
            "full": approximate(F, 2),
            "skip_refine": approximate(F, 2, skip_refine=True),
            "rank_zero": approximate(F, 0),
            "forced_shuffle": approximate(F, 2, coordinate_shuffle=True),
            "auto_shuffle": approximate(Decomposition(3, np.array(
                [[1e-9, 1.0, 1.0], [1.0, -0.7, 0.3]], dtype=complex)).tensor(), 2),
        }
        d = runs["full"].diagnostics
        for key in ("rank", "n_free_params", "generating_residual",
                    "commutator_objective", "mixing_fallback",
                    "schur_repeated", "poly_residual", "zero_magnitude",
                    "refine_status", "wall_time", "beyond_flattening",
                    "auto_shuffled", "nonreal_output", "refine_iterations",
                    "refine_evaluations"):
            assert key in d
        assert d["wall_time"] > 0
        for name, res in runs.items():
            assert res.diagnostics.keys() == d.keys(), name
        assert runs["auto_shuffle"].diagnostics["auto_shuffled"]
        assert not runs["forced_shuffle"].diagnostics["auto_shuffled"]
        assert runs["skip_refine"].diagnostics["refine_iterations"] is None
        zero = runs["rank_zero"].diagnostics
        assert zero["commutator_objective"] is None and zero["omega_status"] is None
        assert zero["mixing_fallback"] is False and zero["nonreal_output"] is False


class TestMatchDistance:
    def test_zero_on_equal(self):
        _, d = random_low_rank(3, 3, 2, seed=23)
        assert match_distance(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_and_phase_invariance(self):
        _, d = random_low_rank(3, 3, 2, seed=24)
        zeta = np.exp(2j * np.pi / 3)
        other = Decomposition(3, np.array([d.vectors[1] * zeta, d.vectors[0]]))
        assert match_distance(d, other) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch_is_infinite(self):
        _, a = random_low_rank(3, 3, 2, seed=25)
        _, b = random_low_rank(3, 3, 3, seed=25)
        _, c = random_low_rank(3, 4, 2, seed=25)
        assert match_distance(a, b) == float("inf")
        assert match_distance(a, c) == float("inf")

    def test_separation(self):
        _, d = random_low_rank(3, 3, 2, seed=26)
        shifted = Decomposition(3, d.vectors + 0.5)
        assert match_distance(d, shifted) > 0.1


class TestDecompose:
    def test_exact_rank_search(self):
        F, _ = random_low_rank(6, 3, 4, seed=27)
        out = decompose(F, 4)
        assert out.success
        assert out.relative_residual <= 1e-6
        err = (out.decomposition.tensor() - F).norm()
        assert err <= 1e-6 * (1 + F.norm())
        assert out.diagnostics["rank"] == 4

    @pytest.mark.filterwarnings("ignore:input tensor is real")
    def test_free_parameter_instance(self):
        out = decompose(ternary_tensor(), 4)
        assert out.success
        assert out.relative_residual < 1e-10

    def test_estimates_rank(self):
        F, _ = random_low_rank(6, 3, 2, seed=28)
        out = decompose(F)
        assert out.diagnostics["rank"] == 2 and out.success

    def test_failure_reported_honestly(self):
        # a generic dense tensor is not rank 1
        F = perturb(SymTensor.zeros(4, 3), 1.0, seed=29)
        out = decompose(F, 1)
        assert not out.success
        assert out.decomposition is None
        assert out.relative_residual > 1e-6
        assert out.decompositions == []

    def test_distinct_mode_octet(self):
        F = octet_decomposition().tensor()
        out = decompose(F, 8, restarts=5, distinct=True, seed=0)
        assert out.success
        assert out.attempts == 6
        assert len(out.decompositions) >= 2
        for d in out.decompositions:
            assert (d.tensor() - F).norm() <= 1e-6 * (1 + F.norm())
        # and they really are far apart pairwise
        a, b = out.decompositions[:2]
        assert match_distance(a, b) > 0.1 * np.abs(a.vectors).max()

    def test_negative_restarts_rejected(self):
        F, _ = random_low_rank(3, 3, 2, seed=0)
        for fn in (approximate, decompose):
            with pytest.raises(ValueError, match="restarts"):
                fn(F, 2, restarts=-1)

    @pytest.mark.filterwarnings("ignore:input tensor is real")
    def test_deterministic(self):
        F = ternary_tensor()
        a = decompose(F, 4, restarts=2, seed=1)
        b = decompose(F, 4, restarts=2, seed=1)
        assert a.relative_residual == b.relative_residual
        npt.assert_array_equal(a.decomposition.vectors, b.decomposition.vectors)


def test_seed_key():
    assert seed_key(7) == [7]
    assert seed_key(7, 1, 2) == [7, 1, 2]
    assert seed_key([3, 4], 5) == [3, 4, 5]
    a = np.random.default_rng(seed_key(0, 1)).standard_normal(3)
    b = np.random.default_rng(seed_key(0, 2)).standard_normal(3)
    assert not np.array_equal(a, b)
