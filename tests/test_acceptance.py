"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with the measured quantities next to their bounds.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
land; without -s they still appear for any failing criterion.  The slow
criteria (5-7) are batch experiments and take a couple of minutes
combined, far inside their stated budgets.
"""

import time

import numpy as np
import pytest

from symlra.bench import run_decomposition_table, run_nls_comparison, run_table
from symlra.catalecticant import catalecticant_spectrum, estimate_rank
from symlra.families import (linear_tensor, octet_tensor, rootsum_tensor,
                             sin_tensor, ternary_tensor)
from symlra.genfit import (commutator_residuals, companion_matrices,
                           fit_generating, monomial_basis,
                           optimize_generating, _commutator_jacobian)
from symlra.pipeline import (_refine_closures, approximate, decompose,
                             match_distance)
from symlra.tensors import (Decomposition, SymTensor, compact_size, exponents,
                            full_from_compact, perturb, random_low_rank)
from symlra.zerosolve import commutation_gram, extract_zeros, select_mixing

from helpers import finite_difference_jacobian

pytestmark = pytest.mark.filterwarnings("ignore:input tensor is real")


def report(criterion, checks):
    """checks: list of (label, measured, ok).  Prints one line, then asserts."""
    ok = all(c[2] for c in checks)
    detail = "; ".join(f"{label}={measured}" for label, measured, _ in checks)
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    failed = [label for label, _, good in checks if not good]
    assert ok, f"{line}  [failed: {', '.join(failed)}]"


def rel_residual(F, dec):
    return SymTensor(F.n, F.m, dec.tensor().values - F.values).norm() \
        / (1.0 + F.norm())


# ------------------------------------------------------------ criterion 1

def test_criterion_01_sin_rank2():
    t0 = time.perf_counter()
    F = sin_tensor()
    sv = catalecticant_spectrum(F)
    res = approximate(F, 2, seed=0)
    dt = time.perf_counter() - t0
    report(1, [
        ("sv1", f"{sv[0]:.4f}", abs(sv[0] - 5.7857) <= 1e-3),
        ("sv2", f"{sv[1]:.4f}", abs(sv[1] - 5.4357) <= 1e-3),
        ("sv3", f"{sv[2]:.2e}", sv[2] <= 1e-10),
        ("err_opt", f"{res.err_opt:.2e}", res.err_opt <= 1e-8),
        ("seconds", f"{dt:.2f}", dt < 5.0),
    ])


# ------------------------------------------------------------ criterion 2

def test_criterion_02_rootsum_rank4():
    t0 = time.perf_counter()
    F = rootsum_tensor()
    sv = catalecticant_spectrum(F)
    targets = np.array([51.9534, 0.9185, 0.0133, 0.0003, 5.6e-6])
    est = estimate_rank(sv)
    res = approximate(F, 4, seed=0)
    dt = time.perf_counter() - t0
    report(2, [
        ("sv", "/".join(f"{s:.4g}" for s in sv[:5]),
         bool(np.all(np.abs(sv[:5] - targets) <= 1e-3))),
        ("rank", est.rank, est.rank == 4),
        ("err_gp", f"{res.err_gp:.4f}", res.err_gp <= 0.5),
        ("err_opt", f"{res.err_opt:.2e}", res.err_opt <= 1e-3),
        ("seconds", f"{dt:.2f}", dt < 10.0),
    ])


# ------------------------------------------------------------ criterion 3

LINEAR_COMPANIONS = np.array([
    [[0, -1], [1, 2]],
    [[-1, -2], [2, 3]],
    [[-2, -3], [3, 4]],
    [[-3, -4], [4, 5]],
], dtype=complex)


def test_criterion_03_linear_collapsing_zeros():
    t0 = time.perf_counter()
    F = linear_tensor()
    basis = monomial_basis(5, 3, 2)
    fit = fit_generating(F, basis)
    G = fit.matrix()
    M = companion_matrices(G, basis)
    sel = select_mixing(commutation_gram(M), seed=0)
    ext = extract_zeros(M, sel.xi)
    zero_err = np.abs(ext.zeros - 1.0).max()
    res = approximate(F, 2, seed=0)
    dt = time.perf_counter() - t0
    report(3, [
        ("companions", f"{np.abs(M - LINEAR_COMPANIONS).max():.2e}",
         bool(np.abs(M - LINEAR_COMPANIONS).max() <= 1e-6)),
        ("zeros_vs_ones", f"{zero_err:.2e}", zero_err <= 1e-5),
        ("err_opt", f"{res.err_opt:.2e}", res.err_opt <= 1e-6),
        ("seconds", f"{dt:.2f}", dt < 5.0),
    ])


# ------------------------------------------------------------ criterion 4

def test_criterion_04_octet_distinct_decompositions():
    t0 = time.perf_counter()
    F = octet_tensor()
    res = decompose(F, 8, restarts=5, seed=0, distinct=True)
    dists = [match_distance(a, b)
             for i, a in enumerate(res.decompositions)
             for b in res.decompositions[i + 1:]]
    residuals = [rel_residual(F, d) for d in res.decompositions]
    dt = time.perf_counter() - t0
    report(4, [
        ("distinct", len(res.decompositions), len(res.decompositions) >= 2),
        ("min_pair_distance", f"{min(dists):.3f}" if dists else "n/a",
         bool(dists and min(dists) > 0.1)),
        ("max_rel_residual", f"{max(residuals):.2e}",
         max(residuals) <= 1e-6),
        ("seconds", f"{dt:.2f}", dt < 60.0),
    ])


# ------------------------------------------------------------ criterion 5

def test_criterion_05_error_tables():
    t0 = time.perf_counter()
    checks = []
    for n, m in [(10, 3), (10, 4)]:
        for r in (1, 3, 5):
            for eps in (1e-2, 1e-4):
                st = run_table(n, m, r, eps, 20, seed=0)
                worst = float(st.samples["err_opt"].max())
                med = float(np.median(st.samples["err_opt"]))
                checks.append((f"max[{n},{m},r{r},{eps:g}]", f"{worst:.3f}",
                               worst <= 1.05))
                checks.append((f"med[{n},{m},r{r},{eps:g}]", f"{med:.3f}",
                               med <= 1.0))
    dt = time.perf_counter() - t0
    checks.append(("seconds", f"{dt:.1f}", dt < 600.0))
    report(5, checks)


# ------------------------------------------------------------ criterion 6

@pytest.mark.slow
def test_criterion_06_nls_comparison():
    t0 = time.perf_counter()
    st = run_nls_comparison(10, 3, 12, 1e-4, 5, nls_restarts=10, seed=0,
                            tau=1000.0 ** (1.0 / 12.0))
    median_ratio = float(np.median(st.samples["ratio"]))
    dt = time.perf_counter() - t0
    report(6, [
        ("median_ratio", f"{median_ratio:.3g}", median_ratio >= 10.0),
        ("seconds", f"{dt:.1f}", dt < 900.0),
    ])


# ------------------------------------------------------------ criterion 7

def test_criterion_07_decomposition_success_rates():
    t0 = time.perf_counter()
    plain = [run_decomposition_table(*case, trials=20, seed=0)
             for case in [(6, 3, 4), (4, 5, 10)]]
    multi = run_decomposition_table(3, 4, 5, trials=20, seed=0, restarts=5)
    dt = time.perf_counter() - t0
    report(7, [
        ("rate[6,3,4]", f"{plain[0].row['success_rate']:.2f}",
         plain[0].row["success_rate"] >= 0.9),
        ("rate[4,5,10]", f"{plain[1].row['success_rate']:.2f}",
         plain[1].row["success_rate"] >= 0.9),
        ("rate[3,4,5]+5restarts", f"{multi.row['success_rate']:.2f}",
         multi.row["success_rate"] >= 0.8),
        ("seconds", f"{dt:.1f}", dt < 600.0),
    ])


# ------------------------------------------------------------ criterion 8

def test_criterion_08_linear_error_scaling():
    F0, _ = random_low_rank(10, 3, 3, seed=42)
    ratios = []
    for s in range(10):
        direction = perturb(F0, 1.0, seed=1000 + s).values - F0.values
        errs = []
        for eps in (1e-3, 1e-5):
            F = SymTensor(10, 3, F0.values + eps * direction)
            res = approximate(F, 3, seed=0, skip_refine=True)
            errs.append(SymTensor(10, 3,
                                  res.refined.tensor().values - F0.values).norm())
        ratios.append(errs[0] / errs[1])
    report(8, [
        ("min_ratio", f"{min(ratios):.1f}", min(ratios) >= 10.0),
        ("seeds", len(ratios), len(ratios) == 10),
    ])


# ------------------------------------------------------------ criterion 9

def binary_rank2_oracle(F):
    """Independent decomposition of a rank-2 binary tensor.

    In two variables the compact entries form the sequence
    s_k = sum_i lam_i v_i^k (k = 0..m), so a two-term recurrence
    s_{k+2} = c1 s_{k+1} + c0 s_k pins the zeros down as the roots of
    z^2 - c1 z - c0, and the coefficients follow from a Vandermonde
    solve.  No companion matrices, no optimization."""
    s = F.values
    m = F.m
    A = np.stack([s[:-2], s[1:-1]], axis=1)
    c0, c1 = np.linalg.lstsq(A, s[2:], rcond=None)[0]
    roots = np.roots(np.array([1.0, -c1, -c0]))
    V = np.vander(roots, N=m + 1, increasing=True).T
    lam = np.linalg.lstsq(V, s, rcond=None)[0]
    scale = np.abs(lam) ** (1.0 / m) * np.exp(1j * np.angle(lam) / m)
    return Decomposition(m, scale[:, None]
                         * np.stack([np.ones(2), roots], axis=1))


def test_criterion_09_binary_oracle_equivalence():
    checks = []
    for m in (3, 4):
        for seed in (0, 1, 2):
            F, _ = random_low_rank(2, m, 2, seed=seed)
            oracle = binary_rank2_oracle(F)
            res = approximate(F, 2, seed=0)
            pipe_rel = res.err_opt / (1.0 + F.norm())
            oracle_rel = rel_residual(F, oracle)
            dist = match_distance(res.refined, oracle)
            tol = 1e-8 * (1.0 + np.abs(oracle.vectors).max())
            checks.append((f"pipe[m{m},s{seed}]", f"{pipe_rel:.1e}",
                           pipe_rel <= 1e-8))
            checks.append((f"oracle[m{m},s{seed}]", f"{oracle_rel:.1e}",
                           oracle_rel <= 1e-8))
            checks.append((f"match[m{m},s{seed}]", f"{dist:.1e}",
                           dist <= tol))
    report(9, checks)


# ----------------------------------------------------------- criterion 10

def test_criterion_10_numerical_hygiene():
    checks = []
    rng = np.random.default_rng(0)

    # (a) compact weighted norm == dense Frobenius norm
    worst = 0.0
    for n in range(1, 5):
        for m in range(1, 5):
            vals = rng.standard_normal(compact_size(n, m)) \
                + 1j * rng.standard_normal(compact_size(n, m))
            F = SymTensor(n, m, vals)
            dense = np.linalg.norm(full_from_compact(F).ravel())
            worst = max(worst, abs(F.norm() - dense) / dense)
    checks.append(("norm_rel_err", f"{worst:.1e}", worst <= 1e-12))

    # (b) the refine normal system and the commutator Jacobian against
    # complex central differences: a holomorphic residual moves by J along
    # the real directions and by 1j*J along the imaginary ones
    def fd_jacobians(residual, z):
        along_im = finite_difference_jacobian(lambda t: residual(z + 1j * t),
                                              np.zeros(z.size))
        return finite_difference_jacobian(residual, z), along_im / 1j

    def rel_error(got, want):
        return np.abs(got - want).max() / max(1.0, np.abs(got).max())

    def holomorphic_fd_error(residual, jacobian, z):
        J = jacobian(z)
        return max(rel_error(J, J_fd) for J_fd in fd_jacobians(residual, z))

    def normal_fd_error(residual, normal, z):
        f, state = residual(z)
        JhJ, Jhf = normal(z, f, state)
        return max(max(rel_error(JhJ, J.conj().T @ J), rel_error(Jhf, J.conj().T @ f))
                   for J in fd_jacobians(lambda t: residual(t)[0], z))

    def complex_normal(k):
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    F, _ = random_low_rank(4, 3, 3, seed=5)
    residual, normal = _refine_closures(F, 3)
    worst = max(normal_fd_error(residual, normal, complex_normal(3 * 4))
                for _ in range(10))
    checks.append(("refine_normal_system", f"{worst:.1e}", worst <= 1e-5))

    fit = fit_generating(ternary_tensor(), monomial_basis(3, 3, 4))

    def residual(omega):
        return commutator_residuals(companion_matrices(fit.matrix(omega), fit.basis))

    def jacobian(omega):
        M = companion_matrices(fit.matrix(omega), fit.basis)
        return _commutator_jacobian(fit, M)

    worst = max(holomorphic_fd_error(residual, jacobian, complex_normal(fit.n_params))
                for _ in range(10))
    checks.append(("commutator_jacobian", f"{worst:.1e}", worst <= 1e-5))

    # (c) core closure and border structure, exhaustively
    structural = True
    for n in range(2, 11):
        for r in range(1, 51):
            m = next(m for m in range(2, r + 2)
                     if compact_size(n, m - 1) >= r)
            basis = monomial_basis(n, m, r)
            core = set(basis.core)
            border = set(basis.border)
            shifted = set()
            for alpha in basis.core:
                a = np.array(alpha)
                for j in range(n - 1):
                    if a[j] > 0:
                        down = tuple(a - np.eye(n - 1, dtype=int)[j])
                        structural &= down in core
                    shifted.add(tuple(a + np.eye(n - 1, dtype=int)[j]))
            structural &= (shifted - core) == border
            structural &= not (core & border)
    checks.append(("core_border_n<=10_r<=50", structural, structural))

    # (d) exact-rank commutator residual
    worst = 0.0
    for n, m, r in [(4, 3, 2), (5, 3, 4), (3, 4, 3), (6, 3, 5)]:
        F, _ = random_low_rank(n, m, r, seed=7)
        opt = optimize_generating(fit_generating(F, monomial_basis(n, m, r)))
        worst = max(worst, np.sqrt(opt.objective) / (1.0 + F.norm()))
    checks.append(("commutator_residual", f"{worst:.1e}", worst <= 1e-7))

    report(10, checks)
