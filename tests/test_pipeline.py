"""End-to-end pipeline tests: coefficient fit, reconstruction, refinement,
approximation driver, and the decomposition search."""
import itertools
import sys
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from symlra.bench import STOCK_NLS_CONFIG
from symlra.numerics import (LMConfig, levenberg_marquardt, minnorm_lstsq,
                             one_blas_thread)
from symlra.tensors import (SymTensor, Decomposition,
                            random_low_rank, perturb, compact_size)
from symlra.pipeline import (fit_coefficients, terms_from_zeros, refine,
                             _refine_closures, approximate, decompose,
                             match_distance, seed_key, SHUFFLE_TRIGGER)
from symlra.families import sin_tensor, ternary_tensor, octet_decomposition
from symlra import pipeline

from helpers import (finite_difference_jacobian, homogeneous_exponents,
                     normal_equations, rank_one, reference_monomials,
                     reference_slots)


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

    def test_matches_power_form_design(self):
        # an inexact fit, so the least-squares solution depends on every row
        F, Z, _ = normalized_instance(4, 4, 3, seed=5)
        F = perturb(F, 0.1 * F.norm(), seed=6)
        Z[0, 1] = 0.0
        tab = F.table
        design = tab.sqrt_weights[:, None] * reference_monomials(Z, tab.alpha_mat).T
        want, _, _ = minnorm_lstsq(design, tab.sqrt_weights * F.values)
        npt.assert_allclose(fit_coefficients(F, Z), want, rtol=1e-12)


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


def reference_refine_jacobian(F, r):
    """The explicit N x rn Jacobian of the refine residual, one term at a
    time with prefix and suffix products: the reference the closed-form
    normal system must reproduce."""
    n = F.n
    tab = F.table
    pw = homogeneous_exponents(tab, F.m)

    def jacobian(u):
        U = u.reshape(r, n)
        Dc = np.empty((len(tab), r * n), dtype=complex)
        for i in range(r):
            Pi = U[i][None, :] ** pw
            left = np.ones_like(Pi)
            left[:, 1:] = np.cumprod(Pi[:, :-1], axis=1)
            right = np.ones_like(Pi)
            if n > 1:
                right[:, :-1] = np.cumprod(Pi[:, :0:-1], axis=1)[:, ::-1]
            # split off one factor so a zero entry stays differentiable
            Pm1 = U[i][None, :] ** np.maximum(pw - 1, 0)
            Dc[:, i * n:(i + 1) * n] = pw * Pm1 * left * right
        return tab.sqrt_weights[:, None] * Dc
    return jacobian


def difference_normal_systems(residual, u):
    """(J^H J, J^H f) from the central-difference Jacobians of a holomorphic
    residual: it moves by J along the real directions of u and by 1j * J
    along the imaginary ones."""
    f = residual(u)
    along_re = finite_difference_jacobian(residual, u)
    along_im = finite_difference_jacobian(lambda t: residual(u + 1j * t),
                                          np.zeros(u.size))
    return [(J.conj().T @ J, J.conj().T @ f) for J in (along_re, along_im / 1j)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
       st.sampled_from(["dense", "zero entries", "all zero"]),
       st.integers(0, 2 ** 32 - 1))
def test_normal_system_matches_reference_jacobian(n, m, r, entries, seed):
    rng = np.random.default_rng(seed)
    N = compact_size(n, m)
    F = SymTensor(n, m, rng.standard_normal(N) + 1j * rng.standard_normal(N))
    u = rng.standard_normal(r * n) + 1j * rng.standard_normal(r * n)
    if entries == "zero entries":
        u[rng.random(r * n) < 0.4] = 0.0
    elif entries == "all zero":
        u[:] = 0.0
    residual, normal = _refine_closures(F, r)
    f = residual(u)
    # the residual against the per-entry power form of its monomials
    P = reference_monomials(u.reshape(r, n), homogeneous_exponents(F.table, m))
    want = F.table.sqrt_weights * (P.sum(axis=0) - F.values)
    assert np.abs(f - want).max() <= 1e-13 * np.abs(want).max()
    JhJ, Jhf = normal(u, f)
    J = reference_refine_jacobian(F, r)(u)
    assert JhJ.shape == (r * n, r * n) and Jhf.shape == (r * n,)
    for got, want in ((JhJ, J.conj().T @ J), (Jhf, J.conj().T @ f)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n,m,r,scaled", [(4, 3, 3, False), (10, 3, 12, True)])
def test_structured_lm_follows_the_explicit_one(n, m, r, scaled):
    # the (10, 3, 12) case is a random-start leg of the NLS baseline on the
    # scaled criterion-6 instance, stopped mid-descent at 40 iterations
    rng = np.random.default_rng(42)
    if scaled:
        F0, _ = random_low_rank(n, m, r, seed=43, tau=1000.0 ** (1.0 / r))
        F = perturb(F0, 1e-4, seed=44)
        u0 = rng.standard_normal(r * n) + 1j * rng.standard_normal(r * n)
        config = replace(STOCK_NLS_CONFIG, max_iterations=40)
    else:
        F0, d = random_low_rank(n, m, r, seed=30)
        F = perturb(F0, 1e-2, seed=31)
        u0 = (d.vectors + 0.3 * (rng.standard_normal(d.vectors.shape)
                                 + 1j * rng.standard_normal(d.vectors.shape))).ravel()
        config = None
    residual, normal = _refine_closures(F, r)
    out = levenberg_marquardt(residual, normal, u0, config)
    ref = levenberg_marquardt(
        residual, normal_equations(reference_refine_jacobian(F, r)), u0, config)
    assert (out.status, out.iterations, out.residual_evaluations) == (
        ref.status, ref.iterations, ref.residual_evaluations)
    assert out.iterations > 5
    assert abs(out.residual_norm - ref.residual_norm) <= 1e-7 * ref.residual_norm


class TestRefine:
    def test_jacobian_matches_differences(self):
        # the normal system against the one built from central differences
        F, _ = random_low_rank(3, 3, 2, seed=3)
        residual, normal = _refine_closures(F, 2)
        rng = np.random.default_rng(4)
        for _ in range(4):
            u = rng.standard_normal(2 * 3) + 1j * rng.standard_normal(2 * 3)
            JhJ, Jhf = normal(u, residual(u))
            for JhJ_fd, Jhf_fd in difference_normal_systems(residual, u):
                npt.assert_allclose(JhJ, JhJ_fd, atol=1e-5)
                npt.assert_allclose(Jhf, Jhf_fd, atol=1e-5)

    def test_jacobian_at_zero_entries(self):
        # entries exactly zero: the power rule must not produce NaN
        F, _ = random_low_rank(3, 3, 2, seed=5)
        residual, normal = _refine_closures(F, 2)
        u = np.zeros(2 * 3, dtype=complex)
        JhJ, Jhf = normal(u, residual(u))
        assert JhJ.shape == (2 * 3, 2 * 3) and Jhf.shape == (2 * 3,)
        assert np.isfinite(JhJ).all() and np.isfinite(Jhf).all()

    def test_normal_reuses_only_the_residuals_latest_point(self):
        # normal reuses the residual's degree-(m-1) monomials only for the
        # very array the residual saw last; elsewhere it recomputes them,
        # and both give the same bits
        F, _ = random_low_rank(4, 3, 3, seed=9)
        residual, normal = _refine_closures(F, 3)
        rng = np.random.default_rng(10)
        u, v = (rng.standard_normal(12) + 1j * rng.standard_normal(12)
                for _ in range(2))
        f = residual(u)
        reused = normal(u, f)
        residual(v)
        for other in (normal(u, f), normal(u.copy(), f)):
            assert [a.tobytes() for a in other] == [a.tobytes() for a in reused]

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 3), (4, 5), (10, 6)])
    def test_raised_slots_match_reference(self, n, m):
        # normal's slots of beta + e_j against the summed exponents ranked
        # from an explicit array: e_0 raises the slack power, e_j alpha_j
        F, _ = random_low_rank(n, m, 2, seed=n)
        _, normal = _refine_closures(F, 2)
        up = dict(zip(normal.__code__.co_freevars,
                      (c.cell_contents for c in normal.__closure__)))["up"]
        below = F.table.alpha_mat[:compact_size(n, m - 1)]
        E = below[:, None, :] + np.eye(n, n - 1, -1, dtype=np.int64)
        ref = reference_slots(F.table, E)
        assert up.dtype == ref.dtype
        npt.assert_array_equal(up, ref)

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

    @staticmethod
    def _stuck():
        rng = np.random.default_rng(0)
        U = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        U[:, 0] = 0     # the plain frame's zeros nearly repeat
        return Decomposition(3, U).tensor()

    @pytest.mark.parametrize("case", ["nonreal", "nonreal-search", "schur"])
    def test_warnings_point_at_the_caller(self, case):
        # each of the caller's lines is its own warning location, however
        # deep in the library the warning arose
        call, messages = {
            "nonreal": (lambda: approximate(sin_tensor(), 2), ["genuinely complex"]),
            "nonreal-search": (lambda: decompose(sin_tensor(), 2),
                               ["genuinely complex"]),
            "schur": (lambda: approximate(self._stuck(), 2, coordinate_shuffle=False),
                      ["nearly repeated Schur", "explains none of the tensor"]),
        }[case]
        with pytest.warns(UserWarning) as rec:
            call()
        for message in messages:
            assert any(message in str(w.message) for w in rec)
        assert {w.filename for w in rec} == {__file__}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("search", [False, True])
    def test_no_schur_warning_about_the_discarded_plain_pass(self, search):
        # the plain pass's Schur values nearly repeat and the automatic
        # shuffle discards it; the shuffled pass returned is clean
        res = (decompose if search else approximate)(self._stuck(), 2)
        if not search:
            assert res.diagnostics["auto_shuffled"]
            assert not res.diagnostics["schur_repeated"]
        else:
            assert res.success

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

    def test_wall_time_spans_the_whole_call(self, monkeypatch):
        # the automatic shuffle runs the stages twice, plain then shuffled,
        # each extracting zeros once; wall_time counts both passes
        U = np.array([[1e-9, 1.0, 1.0], [1.0, -0.7, 0.3]], dtype=complex)
        F = Decomposition(3, U).tensor()
        spent = []
        stage = pipeline.extract_zeros

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = stage(*args, **kwargs)
            spent.append(time.perf_counter() - t0)
            return out
        monkeypatch.setattr(pipeline, "extract_zeros", timed)
        res = approximate(F, 2)
        assert res.diagnostics["auto_shuffled"] and len(spent) == 2
        assert res.diagnostics["wall_time"] >= sum(spent)

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
            "restarts": approximate(F, 2, restarts=2),
            "estimated_rank": approximate(F),
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


def _policy_instance(name):
    if name == "ternary":
        return ternary_tensor(), 4
    n, m, r = {"4-4-5": (4, 4, 5), "3-5-8": (3, 5, 8)}[name]
    F0, _ = random_low_rank(n, m, r, seed=[n, m, r])
    return perturb(F0, 1e-3, seed=[n, m, r, 1]), r


@pytest.mark.filterwarnings("ignore:input tensor is real")
@pytest.mark.filterwarnings("ignore:nearly repeated Schur values")
@pytest.mark.parametrize("name", ["ternary", "4-4-5", "3-5-8"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_approximate_returns_the_best_start(name, seed):
    # approximate with k restarts returns the run of decompose's starts
    # 0..k with the smallest error, so a restart never makes err_opt worse
    F, r = _policy_instance(name)
    previous = np.inf
    for k in range(3):
        res = approximate(F, r, restarts=k, seed=seed)
        starts = decompose(F, r, restarts=k, seed=seed,
                           distinct=True).diagnostics["starts"]
        rel = [rec["relative_residual"] for rec in starts]
        assert res.diagnostics["n_free_params"] > 0
        assert res.err_opt / (1 + F.norm()) == min(rel)
        assert res.diagnostics["omega_start_index"] == rel.index(min(rel))
        assert res.diagnostics["omega_start_objectives"] == [
            rec["commutator_objective"] for rec in starts]
        assert res.err_opt <= previous
        previous = res.err_opt


class TestMatchDistance:
    def test_zero_on_equal(self):
        _, d = random_low_rank(3, 3, 2, seed=23)
        assert match_distance(d, d) == pytest.approx(0.0, abs=1e-12)
        empty = Decomposition(3, np.zeros((0, 3)))
        assert match_distance(empty, empty) == 0.0

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

    def test_bottleneck_below_min_sum_pairing(self):
        # the pairing of least total distance, (0,0)-(0,0) and a_1-(3,0),
        # moves a_1 by 5; the crossed pairing moves each vector by only 3
        a = Decomposition(1, [[0.0, 0.0], [-7 / 6, np.sqrt(9 - 49 / 36)]])
        b = Decomposition(1, [[0.0, 0.0], [3.0, 0.0]])
        assert match_distance(a, b) == pytest.approx(3.0, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_brute_force_bottleneck(self, r, n, m, seed):
        rng = np.random.default_rng(seed)
        # integer entries tie many distances
        a, b = (Decomposition(m, rng.integers(-2, 3, (r, n))
                              + 1j * rng.integers(-2, 3, (r, n)))
                for _ in range(2))
        zeta = np.exp(2j * np.pi * np.arange(m) / m)
        dist = np.linalg.norm(a.vectors[:, None, None, :]
                              - zeta[:, None] * b.vectors[None, :, None, :],
                              axis=3).min(axis=2)
        brute = min(dist[np.arange(r), list(p)].max()
                    for p in itertools.permutations(range(r)))
        assert match_distance(a, b) == brute
        assert match_distance(b, a) == pytest.approx(brute, rel=1e-12)
        perm = rng.permutation(r)
        phased = Decomposition(m, zeta[rng.integers(0, m, r)][:, None]
                               * a.vectors[perm])
        assert match_distance(a, phased) == pytest.approx(0.0, abs=1e-12)

    def test_matching_search_deeper_than_recursion_limit(self):
        # rows i < r - 1 may take columns i or i + 1, row r - 1 only column
        # 0: the last row's augmenting path runs through every other row
        r = sys.getrecursionlimit() + 100
        ok = np.zeros((r, r), dtype=bool)
        ok[np.arange(r - 1), np.arange(r - 1)] = True
        ok[np.arange(r - 1), np.arange(1, r)] = True
        ok[r - 1, 0] = True
        assert pipeline._has_matching(ok)
        # rows r - 2 and r - 1 both only take column 0 (row 0 also takes
        # column r - 1, so no row or column is empty): no perfect matching
        ok[r - 2] = False
        ok[r - 2, 0] = ok[0, r - 1] = True
        assert not pipeline._has_matching(ok)


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

    @pytest.mark.filterwarnings("error")
    def test_no_warning_about_discarded_starts(self):
        # start 0 fails with a genuinely complex result and start 1 finds
        # the real terms: the result warnings concern returned results only
        U = np.random.default_rng(14).standard_normal((7, 4))
        F = Decomposition(4, U).tensor()
        first = decompose(F, 7)
        assert not first.success and first.decompositions == []
        assert first.relative_residual > 1e-3
        out = decompose(F, 7, restarts=5)
        assert [s["success"] for s in out.diagnostics["starts"]] == [False, True]
        assert match_distance(out.decomposition, Decomposition(4, U)) < 1e-10
        best = approximate(F, 7, restarts=1)
        assert best.diagnostics["omega_start_index"] == 1
        assert not best.diagnostics["nonreal_output"]
        assert match_distance(best.refined, Decomposition(4, U)) < 1e-10

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

    @pytest.mark.filterwarnings("ignore:input tensor is real")
    def test_distinct_search_without_free_parameters_runs_once(self):
        # every start fits the same G, so start 0 is the whole search
        out = decompose(sin_tensor(), 2, restarts=5, distinct=True)
        assert out.success and len(out.decompositions) == 1
        assert out.attempts == 1
        assert [rec["start"] for rec in out.diagnostics["starts"]] == [0]

    def test_negative_restarts_rejected(self):
        F, _ = random_low_rank(3, 3, 2, seed=0)
        for fn in (approximate, decompose):
            with pytest.raises(ValueError, match="restarts"):
                fn(F, 2, restarts=-1)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_rank_tolerance_rejected_with_rank_given(self, tol):
        # rejected on entry, although a given rank leaves it unread
        for fn in (approximate, decompose):
            with pytest.raises(ValueError, match="rank tolerance"):
                fn(sin_tensor(), 2, rank_tol=tol)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_residual_tolerance_rejected(self, tol):
        # the exact rank-2 sin tensor: a run is found, but no tolerance below
        # zero (or NaN) can accept it
        with pytest.raises(ValueError, match="residual_tol"):
            decompose(sin_tensor(), 2, residual_tol=tol)

    @pytest.mark.parametrize("case", ["distinct-3-5-8", "tiny-leading-entry"])
    def test_search_fits_once_per_frame(self, case, monkeypatch):
        # one basis and fit per coordinate frame for the whole search, and
        # each start's result exactly what a separate, refitting run of
        # that start alone returns
        if case == "distinct-3-5-8":
            F, r = random_low_rank(3, 5, 8, seed=[7, 3, 0, 0])[0], 8
        else:   # every start runs in the shuffled frame after the plain one
            U = np.array([[1e-9, 1.0, 1.0], [1.0, -0.7, 0.3]], dtype=complex)
            F, r = Decomposition(3, U).tensor(), 2
        key = [7, 3, 0, 1]
        calls = []
        fit = pipeline.fit_generating
        monkeypatch.setattr(pipeline, "fit_generating",
                            lambda *a, **k: calls.append(1) or fit(*a, **k))
        out = decompose(F, r, restarts=5, seed=key, distinct=True)
        searched = len(calls)
        with one_blas_thread:
            separate = [pipeline._run(F, r, s, {}, seed=key, lm_config=None,
                                      skip_refine=False, coordinate_shuffle=None)
                        for s in range(6)]
        shuffled = [res.diagnostics["auto_shuffled"] for res in separate]
        assert searched == 1 + any(shuffled)
        assert len(calls) - searched == 6 + sum(shuffled)
        assert shuffled == [case == "tiny-leading-entry"] * 6
        # a fit with no free parameters (tiny-leading-entry) runs start 0 only
        free = separate[0].diagnostics["n_free_params"]
        assert (free > 0) == (case == "distinct-3-5-8")
        assert out.attempts == (6 if free else 1)
        for rec, res in zip(out.diagnostics["starts"], separate):
            assert rec["relative_residual"] == res.err_opt / (1 + F.norm())
            assert rec["commutator_objective"] == res.diagnostics["commutator_objective"]
        best = min(separate[:out.attempts], key=lambda res: res.err_opt)
        assert out.decomposition.vectors.tobytes() == best.refined.vectors.tobytes()
        refined = {res.refined.vectors.tobytes() for res in separate}
        assert out.decompositions
        assert all(d.vectors.tobytes() in refined for d in out.decompositions)
        # the frames do not outlive the search
        approximate(F, r, seed=key)
        assert len(calls) - searched == 7 + sum(shuffled) + shuffled[0]

    def test_fewer_restarts_repeat_the_first_starts(self):
        F = random_low_rank(3, 5, 8, seed=[7, 3, 0, 0])[0]
        short = decompose(F, 8, restarts=2, seed=3, distinct=True)
        long = decompose(F, 8, restarts=5, seed=3, distinct=True)
        assert short.diagnostics["starts"] == long.diagnostics["starts"][:3]

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


class TestSearch:
    """The start loop that `approximate` and `decompose` share."""

    @pytest.mark.filterwarnings("ignore:input tensor is real")
    def test_approximate_without_free_parameters_runs_once(self, monkeypatch):
        # every start would fit and minimize the same G: start 0 is the search
        calls = {"fit_generating": 0, "optimize_generating": 0}
        for name in calls:
            stage = getattr(pipeline, name)

            def counted(*args, _name=name, _stage=stage, **kwargs):
                calls[_name] += 1
                return _stage(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        res = approximate(sin_tensor(), 2, restarts=3)
        assert res.diagnostics["n_free_params"] == 0
        assert len(res.diagnostics["omega_start_objectives"]) == 1
        assert res.diagnostics["omega_start_index"] == 0
        assert calls == {"fit_generating": 1, "optimize_generating": 1}

    @pytest.mark.parametrize("fn", [approximate, decompose])
    def test_non_integer_rank_rejected(self, fn):
        with pytest.raises(TypeError, match=r"^rank must be an integer or None, got 2\.0$"):
            fn(sin_tensor(), 2.0)

    @pytest.mark.parametrize("fn", [approximate, decompose])
    def test_non_integer_restarts_rejected(self, fn):
        with pytest.raises(TypeError, match=r"^restarts must be an integer, got 1\.5$"):
            fn(sin_tensor(), 2, restarts=1.5)

    @pytest.mark.filterwarnings("ignore:input tensor is real")
    def test_numpy_integers_accepted(self):
        F = ternary_tensor()
        a = approximate(F, np.int64(4), restarts=np.int32(2), seed=1)
        b = approximate(F, 4, restarts=2, seed=1)
        assert a.refined.vectors.tobytes() == b.refined.vectors.tobytes()
        assert a.diagnostics["omega_start_objectives"] == b.diagnostics["omega_start_objectives"]
        c = decompose(F, np.int64(4), restarts=np.int64(2), seed=1)
        assert c.success and type(c.diagnostics["rank"]) is int


class TestOneVariable:
    """n = 1: a tensor is one number, the border is empty and so is every
    zero; the fit has no free parameters and nothing to mix."""

    def test_approximate(self):
        res = approximate(SymTensor(1, 3, [8.0]), 1)
        npt.assert_array_equal(res.refined.vectors, [[2.0]])
        assert res.err_opt == 0.0 and res.err_gp == 0.0
        assert res.diagnostics["poly_residual"] == 0.0
        assert res.diagnostics["generating_residual"] == 0.0

    def test_estimated_rank(self):
        res = approximate(SymTensor(1, 3, [8.0]))
        assert res.diagnostics["rank"] == 1 and res.diagnostics["rank_estimated"]
        npt.assert_array_equal(res.refined.vectors, [[2.0]])

    def test_decompose(self):
        out = decompose(SymTensor(1, 3, [8.0]), 1, restarts=2)
        assert out.success and out.attempts == 1
        npt.assert_array_equal(out.decomposition.vectors, [[2.0]])
