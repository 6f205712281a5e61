import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from symlra.families import ternary_tensor
from symlra.genfit import (_commutator_jacobian, _normal_system, commutator_residuals,
                           companion_matrices, fit_generating, monomial_basis)
from symlra.numerics import LMConfig, _norm, levenberg_marquardt, minnorm_lstsq
from symlra.pipeline import _refine_closures
from symlra.tensors import perturb, random_low_rank

from helpers import (finite_difference_jacobian, normal_equations,
                     reference_levenberg_marquardt, reference_minnorm_lstsq, stateless)
from test_pipeline import reference_refine_jacobian


class TestMinNormLstsq:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0], dtype=complex)
        x, null, rank = minnorm_lstsq(np.eye(3, dtype=complex), b)
        npt.assert_allclose(x, b, atol=1e-14)
        assert rank == 3 and null.shape == (3, 0)

    def test_rank_deficient(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        x, null, rank = minnorm_lstsq(A, np.array([2.0, 5.0], dtype=complex))
        assert rank == 1
        npt.assert_allclose(x, [2.0, 0.0], atol=1e-14)
        npt.assert_allclose(np.abs(null.ravel()), [0.0, 1.0], atol=1e-14)

    def test_solution_set_parameterization(self):
        # x + null @ w solves the normal equations for every w, and x is
        # orthogonal to the null space (min-norm)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        C = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        A = B @ C  # 6 x 5, rank 3
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x, null, rank = minnorm_lstsq(A, b)
        assert rank == 3 and null.shape == (5, 2)
        npt.assert_allclose(null.conj().T @ null, np.eye(2), atol=1e-12)
        npt.assert_allclose(null.conj().T @ x, 0, atol=1e-12)
        for _ in range(3):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            npt.assert_allclose(A @ (x + null @ w), A @ x, atol=1e-12)

    @pytest.mark.parametrize("p,q", [(3, 7), (9, 5)])
    def test_rank_deficient_null_space(self, p, q):
        # rank 2 < min(p, q), on both sides of square
        rng = np.random.default_rng(p)
        A = ((rng.standard_normal((p, 2)) + 1j * rng.standard_normal((p, 2)))
             @ (rng.standard_normal((2, q)) + 1j * rng.standard_normal((2, q))))
        x, null, rank = minnorm_lstsq(A, rng.standard_normal(p) + 0j)
        assert rank == 2 and null.shape == (q, q - 2)
        npt.assert_allclose(null.conj().T @ null, np.eye(q - 2), atol=1e-12)
        npt.assert_allclose(A @ null, 0, atol=1e-12 * np.abs(A).max())

    def test_consistent_system_recovers(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x, null, rank = minnorm_lstsq(A, A @ x0)
        assert rank == 4 and null.shape == (4, 0)
        npt.assert_allclose(x, x0, rtol=1e-10)

    def test_tall_threshold_counts_rows(self):
        # a singular value of 50 eps sigma_max lies below the cutoff
        # 400 eps sigma_max of a 400 x 6 system, though above the 6 eps
        # sigma_max of its 6 x 6 triangle
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((400, 6))
                            + 1j * rng.standard_normal((400, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        s = np.array([1.0, 0.5, 0.2, 0.1, 0.05, 50 * np.finfo(float).eps])
        x, null, rank = minnorm_lstsq((U * s) @ V.conj().T, U[:, 0])
        assert rank == 5 and null.shape == (6, 1)
        npt.assert_allclose(np.abs(null.conj().T @ V[:, 5]), 1.0, rtol=1e-12)


@st.composite
def lstsq_problems(draw):
    """(p, q, rank, k, seed): a p x q system of the given rank and a 1-D b
    (k None) or a (p, k) b, drawn from `seed`.  p of 86 or more makes
    most systems tall enough for the QR reduction."""
    p = draw(st.integers(0, 12) | st.integers(86, 400))
    q = draw(st.integers(0, 12))
    rank = draw(st.integers(0, min(p, q)))
    k = draw(st.none() | st.integers(0, 3))
    return p, q, rank, k, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(lstsq_problems())
@example((400, 6, 4, 2, 7))
@example((400, 6, 6, None, 8))
# zero systems (sigma_max = 0), one through the QR reduction, and empty ones
@example((3, 2, 0, None, 1))
@example((2, 3, 0, 2, 2))
@example((400, 6, 0, None, 3))
@example((0, 3, 0, None, 4))
@example((3, 0, 0, 1, 5))
@example((0, 0, 0, None, 6))
def test_minnorm_lstsq_matches_svd_of_whole_system(problem):
    # large tall systems go through A = QR; the rank, the minimum-norm
    # solution and the null space must be those of the SVD of A itself
    p, q, rank, k, seed = problem
    rng = np.random.default_rng(seed)

    def cx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = cx(p, rank) @ cx(rank, q)       # all zeros at rank 0
    b = cx(p) if k is None else cx(p, k)
    x, null, got = minnorm_lstsq(A, b)
    x_ref, null_ref, want = reference_minnorm_lstsq(A, b)
    assert got == want == rank
    assert x.shape == x_ref.shape == ((q,) if k is None else (q, k))
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert null.shape == null_ref.shape == (q, q - rank)
    npt.assert_allclose(null @ null.conj().T, null_ref @ null_ref.conj().T,
                        atol=1e-10)


class TestLevenbergMarquardt:
    def test_linear_least_squares(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        expect = np.linalg.lstsq(A, b, rcond=None)[0]
        res = levenberg_marquardt(stateless(lambda x: A @ x - b),
                                  normal_equations(lambda x: A), np.zeros(3))
        assert res.status == "converged-gradient"
        npt.assert_allclose(res.x, expect, atol=1e-9)
        assert res.iterations <= 25

    def test_rosenbrock(self):
        def f(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def J(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        res = levenberg_marquardt(stateless(f), normal_equations(J), np.array([-1.2, 1.0]))
        npt.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        assert res.residual_norm < 1e-8

        ref = scipy.optimize.least_squares(f, [-1.2, 1.0], jac=J)
        npt.assert_allclose(res.x, ref.x, atol=1e-7)

    def test_powell_singular(self):
        # singular Jacobian at the solution; still reaches ~0 residual
        def f(x):
            return np.array([x[0] + 10 * x[1],
                             np.sqrt(5.0) * (x[2] - x[3]),
                             (x[1] - 2 * x[2]) ** 2,
                             np.sqrt(10.0) * (x[0] - x[3]) ** 2])

        def J(x):
            return np.array([
                [1.0, 10.0, 0.0, 0.0],
                [0.0, 0.0, np.sqrt(5.0), -np.sqrt(5.0)],
                [0.0, 2 * (x[1] - 2 * x[2]), -4 * (x[1] - 2 * x[2]), 0.0],
                [2 * np.sqrt(10.0) * (x[0] - x[3]), 0.0, 0.0,
                 -2 * np.sqrt(10.0) * (x[0] - x[3])]])

        res = levenberg_marquardt(stateless(f), normal_equations(J),
                                  np.array([3.0, -1.0, 0.0, 1.0]))
        # rank-deficient Jacobian at the optimum: convergence is linear,
        # so expect modest accuracy (MINPACK behaves the same way)
        assert res.residual_norm < 1e-6
        npt.assert_allclose(res.x, np.zeros(4), atol=1e-3)

    def test_zero_residual_at_start(self):
        res = levenberg_marquardt(stateless(lambda x: x - 1.0),
                                  normal_equations(lambda x: np.eye(2)), np.ones(2))
        assert res.status == "converged-gradient"
        assert res.iterations == 0
        assert res.residual_evaluations == 1

    def test_nonfinite_start_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            levenberg_marquardt(stateless(lambda x: np.array([np.nan])),
                                normal_equations(lambda x: np.ones((1, 1))),
                                np.zeros(1))

    def test_iteration_budget(self):
        def f(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def J(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        cfg = LMConfig(max_iterations=2)
        res = levenberg_marquardt(stateless(f), normal_equations(J), np.array([-1.2, 1.0]), cfg)
        assert res.status == "max-iterations"
        assert res.iterations == 2

        cfg = LMConfig(max_residual_evaluations=3)
        res = levenberg_marquardt(stateless(f), normal_equations(J), np.array([-1.2, 1.0]), cfg)
        assert res.status == "max-evaluations"
        assert res.residual_evaluations == 3

    def test_function_tolerance_stops_early(self):
        def f(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def J(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        cfg = LMConfig(function_tolerance=0.9)  # nearly any step "suffices"
        res = levenberg_marquardt(stateless(f), normal_equations(J), np.array([-1.2, 1.0]), cfg)
        assert res.status == "converged-function"
        assert res.iterations < 10
        # default (disabled) runs to the optimum
        full = levenberg_marquardt(stateless(f), normal_equations(J), np.array([-1.2, 1.0]))
        assert full.residual_norm < 1e-8

    def test_objective_never_increases(self):
        costs = []

        def f(x):
            r = np.array([x[0] ** 2 + x[1] - 11.0, x[0] + x[1] ** 2 - 7.0])
            costs.append(float(r @ r))
            return r

        def J(x):
            return np.array([[2 * x[0], 1.0], [1.0, 2 * x[1]]])

        levenberg_marquardt(stateless(f), normal_equations(J), np.array([-3.0, -2.0]))
        accepted = np.minimum.accumulate(costs)
        # every accepted cost is the running minimum: trial points may be
        # worse, but the iterate sequence is monotone
        assert costs[-1] == accepted[-1]


@settings(max_examples=100, deadline=None)
@given(size=st.integers(0, 300), scale=st.sampled_from([1e-200, 1e-5, 1.0, 1e5, 1e200]),
       is_complex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(size=3, scale=np.inf, is_complex=True, seed=0)
@example(size=3, scale=np.nan, is_complex=False, seed=0)
def test_norm_matches_numpy_bits(size, scale, is_complex, seed):
    # the LM's step and point norms: np.linalg.norm's formula, same bits,
    # overflow and underflow included
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        v = scale * rng.standard_normal(size)
        if is_complex:
            v = v + 1j * (scale * rng.standard_normal(size))
        got, ref = _norm(v), np.linalg.norm(v)
    assert isinstance(got, float)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_finite_difference_jacobian():
    def f(x):
        return np.array([np.sin(x[0]) * x[1], x[0] ** 3])

    x = np.array([0.7, -1.3])
    expect = np.array([[np.cos(x[0]) * x[1], np.sin(x[0])],
                       [3 * x[0] ** 2, 0.0]])
    npt.assert_allclose(finite_difference_jacobian(f, x), expect, atol=1e-8)


def test_finite_difference_jacobian_keeps_complex_dtype():
    # along the real directions of a holomorphic map the differences are J
    A = np.array([[1.0 + 2.0j, -0.5j], [0.3, 2.0 - 1.0j]])
    x = np.array([0.4 - 0.2j, -1.1 + 0.7j])
    J = finite_difference_jacobian(lambda z: A @ z + z ** 2, x)
    assert J.dtype == complex
    npt.assert_allclose(J, A + np.diag(2 * x), atol=1e-8)


# The real-lifted form [Re z; Im z] of a holomorphic problem: the reference
# the complex LM must reproduce step for step.
def real_from_complex(z):
    return np.concatenate([z.real, z.imag])


def complex_from_real(x):
    k = x.size // 2
    return x[:k] + 1j * x[k:]


def lift_jacobian(Dc):
    return np.block([[Dc.real, -Dc.imag], [Dc.imag, Dc.real]])


def lifted(residual, jacobian):
    def real_residual(x):
        f, state = residual(complex_from_real(x))
        return real_from_complex(f), state
    return real_residual, normal_equations(
        lambda x: lift_jacobian(jacobian(complex_from_real(x))))


def commutator_closures():
    # the residual returns its companion matrices as its state
    fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))

    def residual(omega):
        M = companion_matrices(fit.matrix(omega), fit.basis)
        return commutator_residuals(M), M

    def jacobian(omega):
        return _commutator_jacobian(fit, companion_matrices(fit.matrix(omega), fit.basis))
    return fit.n_params, residual, jacobian


class TestComplexLM:
    def assert_same_run(self, residual, jacobian, z0, config=None):
        ref = levenberg_marquardt(*lifted(residual, jacobian),
                                  real_from_complex(z0), config)
        out = levenberg_marquardt(residual, normal_equations(jacobian), z0, config)
        assert out.x.dtype == complex
        assert (out.status, out.iterations, out.residual_evaluations) == (
            ref.status, ref.iterations, ref.residual_evaluations)
        x_ref = complex_from_real(ref.x)
        assert np.linalg.norm(out.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        npt.assert_allclose(out.residual_norm, ref.residual_norm,
                            rtol=1e-8, atol=1e-14)
        return out

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_matches_lifted_commutator(self, seed):
        k, residual, jacobian = commutator_closures()
        if seed is None:
            z0 = np.zeros(k, dtype=complex)
        else:
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        self.assert_same_run(residual, jacobian, z0)

    def test_matches_lifted_refine(self):
        F0, d = random_low_rank(4, 3, 3, seed=30)
        F = perturb(F0, 1e-2, seed=31)
        rng = np.random.default_rng(32)
        z0 = (d.vectors + 0.3 * (rng.standard_normal(d.vectors.shape)
                                 + 1j * rng.standard_normal(d.vectors.shape))).ravel()
        residual, _ = _refine_closures(F, 3)
        out = self.assert_same_run(residual, reference_refine_jacobian(F, 3), z0)
        assert out.iterations > 5

    def test_gradient_test_reads_parts_separately(self):
        # g = J^H f = -c at z0 = 0: max(|Re g|, |Im g|) = 1e-10 <= tolerance
        # < |g| = sqrt(2) * 1e-10, so the run stops before any step
        c = np.array([1e-10 + 1e-10j])
        cfg = LMConfig()
        out = levenberg_marquardt(stateless(lambda z: z - c),
                                  normal_equations(lambda z: np.eye(1)),
                                  np.zeros(1, dtype=complex), cfg)
        assert out.status == "converged-gradient"
        assert out.iterations == 0 and out.residual_evaluations == 1

    def test_real_start_stays_real(self):
        out = levenberg_marquardt(stateless(lambda x: x - 2.0),
                                  normal_equations(lambda x: np.eye(2)), [0, 1])
        assert out.x.dtype == float
        npt.assert_allclose(out.x, [2.0, 2.0])


class TestLapackStep:
    """The LM's direct potrf/potrs step against the reference LM's
    `scipy.linalg.cho_factor` and `cho_solve`."""

    def assert_same_trajectory(self, residual, normal, x0):
        # every point the residual is evaluated at, bit for bit
        seen = {"lapack": [], "cho_factor": []}

        def logged(key):
            def wrapped(x):
                seen[key].append(np.array(x).tobytes())
                return residual(x)
            return wrapped
        out = levenberg_marquardt(logged("lapack"), normal, x0)
        ref = reference_levenberg_marquardt(logged("cho_factor"), normal, x0)
        assert seen["lapack"] == seen["cho_factor"]
        assert out.x.tobytes() == ref.x.tobytes()
        assert (out.residual_norm, out.status, out.iterations,
                out.residual_evaluations) == (ref.residual_norm, ref.status,
                                              ref.iterations, ref.residual_evaluations)
        return out

    def test_refine_trajectory(self):
        F0, d = random_low_rank(4, 3, 3, seed=30)
        F = perturb(F0, 1e-2, seed=31)
        rng = np.random.default_rng(32)
        u0 = (d.vectors + 0.3 * (rng.standard_normal(d.vectors.shape)
                                 + 1j * rng.standard_normal(d.vectors.shape))).ravel()
        out = self.assert_same_trajectory(*_refine_closures(F, 3), u0)
        assert out.iterations > 5

    def test_commutator_trajectory(self):
        k, residual, jacobian = commutator_closures()
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        out = self.assert_same_trajectory(residual, normal_equations(jacobian), z0)
        assert out.iterations > 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_normal_system_raises(self, bad):
        def normal(x, f, state):
            return np.array([[1.0, 0.0], [0.0, bad]]), f
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            levenberg_marquardt(stateless(lambda x: x - 1.0), normal, np.zeros(2))

    def test_indefinite_system_backs_off(self):
        # eigenvalues 3 and -1: not positive definite until the Marquardt
        # term lam * I exceeds 1, so the first damping values fail
        JhJ = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(JhJ + 1e-3 * np.eye(2))

        def normal(x, f, state):
            return JhJ, f
        out = self.assert_same_trajectory(stateless(lambda x: x - np.array([1.0, 2.0])),
                                          normal, np.zeros(2))
        assert out.iterations >= 1


class TestBufferedTrials:
    """The LM's damped trials, built in one buffer per run, against the
    loop that builds every trial afresh (`reference_levenberg_marquardt`):
    the same points evaluated, x, norm, status and counts, bit for bit."""

    def assert_same_run(self, residual, normal, x0, config=None):
        seen = {"buffered": [], "reference": []}

        def logged(key):
            def wrapped(x):
                seen[key].append(np.array(x).tobytes())
                return residual(x)
            return wrapped
        out = levenberg_marquardt(logged("buffered"), normal, x0, config)
        ref = reference_levenberg_marquardt(logged("reference"), normal, x0, config)
        assert seen["buffered"] == seen["reference"]
        assert out.x.dtype == ref.x.dtype and out.x.tobytes() == ref.x.tobytes()
        assert (out.residual_norm, out.status, out.iterations, out.residual_evaluations) == (
            ref.residual_norm, ref.status, ref.iterations, ref.residual_evaluations)
        return out

    def test_real_problem(self):
        def f(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def J(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
        out = self.assert_same_run(stateless(f), normal_equations(J), np.array([-1.2, 1.0]))
        assert out.x.dtype == float and out.iterations > 5

    @pytest.mark.parametrize("seed", [None, 1])
    def test_complex_commutator_problem(self, seed):
        # the upper triangle of J^H J only, as the commutator LM passes it
        k, residual, jacobian = commutator_closures()
        z0 = np.zeros(k, dtype=complex)
        if seed is not None:
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)

        def normal(z, f, state):
            return _normal_system(jacobian(z), f)
        out = self.assert_same_run(residual, normal, z0)
        assert out.x.dtype == complex and out.iterations >= 5

    def test_complex_refine_problem(self):
        F0, d = random_low_rank(4, 3, 3, seed=30)
        F = perturb(F0, 1e-2, seed=31)
        rng = np.random.default_rng(32)
        u0 = (d.vectors + 0.3 * (rng.standard_normal(d.vectors.shape)
                                 + 1j * rng.standard_normal(d.vectors.shape))).ravel()
        out = self.assert_same_run(*_refine_closures(F, 3), u0, LMConfig(max_iterations=30))
        assert out.iterations > 5

    def test_not_positive_definite_retry(self):
        # eigenvalues 3 and -1, and a signed zero off the diagonal: the
        # first damping values fail to factor
        JhJ = np.array([[1.0, 2.0, -0.0], [2.0, 1.0, 0.0], [-0.0, 0.0, 4.0]])

        def normal(x, f, state):
            return JhJ, f
        out = self.assert_same_run(stateless(lambda x: x - np.array([1.0, 2.0, 3.0])),
                                   normal, np.zeros(3))
        assert out.iterations >= 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("where", ["system", "gradient", "damped-diagonal"])
    def test_not_finite_raise(self, where):
        # a non-finite system on the third normal system, or a damping that
        # overflows the diagonal of a huge system whose steps never improve
        calls = []

        def normal(x, f, state):
            calls.append(None)
            JhJ, g = np.eye(2), f.copy()
            if where == "damped-diagonal":
                return 1e300 * np.eye(2), np.full(2, 1e300)
            if len(calls) == 3 and where == "system":
                JhJ[0, 1] = np.nan
            elif len(calls) == 3:
                g[1] = np.inf
            return JhJ, g

        @stateless
        def residual(x):
            return (np.ones(2) if where == "damped-diagonal"
                    else np.array([x[0] ** 2 - 2.0, x[1] - 1.0]))
        runs = {}
        for name, lm in (("buffered", levenberg_marquardt),
                         ("reference", reference_levenberg_marquardt)):
            calls.clear()
            evaluated = []

            def counted(x):
                evaluated.append(np.array(x).tobytes())
                return residual(x)
            with pytest.raises(np.linalg.LinAlgError, match="normal system is not finite"):
                lm(counted, normal, np.array([3.0, 0.0]))
            runs[name] = (len(calls), evaluated)
        assert runs["buffered"] == runs["reference"]
        n_systems, evaluated = runs["buffered"]
        assert n_systems == (1 if where == "damped-diagonal" else 3) and len(evaluated) > 2


def test_normal_gets_the_state_of_the_accepted_point():
    # the residual's state is a copy of its point; every normal system is
    # built at an accepted point from the very state the residual returned
    # there, on a real and a complex problem, with rejected trials, on runs
    # that stop on each condition
    def rosenbrock(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def rosenbrock_jacobian(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    k, commutator, commutator_jacobian = commutator_closures()
    rng = np.random.default_rng(1)
    problems = [(rosenbrock, rosenbrock_jacobian, np.array([-1.2, 1.0])),
                (lambda z: commutator(z)[0], commutator_jacobian,
                 rng.standard_normal(k) + 1j * rng.standard_normal(k))]
    configs = [LMConfig(), LMConfig(step_tolerance=1e-3), LMConfig(function_tolerance=0.5),
               LMConfig(max_iterations=4), LMConfig(max_residual_evaluations=5)]
    statuses, rejected = set(), 0
    for f, jacobian, x0 in problems:
        for config in configs:
            evaluated, handed = [], []     # (state, cost) per residual call

            def residual(x):
                fx = f(x)
                evaluated.append((x.copy(), 0.5 * np.vdot(fx, fx).real))
                return fx, evaluated[-1][0]

            def normal(x, fx, state):
                assert state.tobytes() == x.tobytes()
                handed.append(state)
                return normal_equations(jacobian)(x, fx, None)
            out = levenberg_marquardt(residual, normal, x0, config)
            # the accepted points: the start, then each point below the last
            accepted, cost = [], np.inf
            for state, c in evaluated:
                if c < cost:
                    accepted.append(state)
                    cost = c
            assert len(handed) in (len(accepted) - 1, len(accepted))
            assert all(a is b for a, b in zip(handed, accepted))
            assert out.x.tobytes() == accepted[-1].tobytes()
            statuses.add(out.status)
            rejected += len(evaluated) - len(accepted)
    assert statuses == {"converged-gradient", "converged-step", "converged-function",
                        "max-iterations", "max-evaluations"}
    assert rejected > 0
