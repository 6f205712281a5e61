"""Shared numerical kernels: rank-revealing least squares (a large tall
system is reduced by Householder QR first, so the SVD is of its square
triangle), a damped least-squares (Levenberg-Marquardt) minimizer over
real or complex unknowns that takes its Gauss-Newton normal system
(J^H J, J^H f) from the caller, so a structured problem can build it
without forming J, seed keys for random draws and the BLAS thread policy
of every public call."""

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps
# the LM's bound on max(|Re|, |Im|) of J^H f and its starting damping
GRADIENT_TOLERANCE = 1e-10
INITIAL_DAMPING = 1e-3
# Householder QR and the product with its Q, for minnorm_lstsq's tall systems
_GEQRF, _UNMQR = scipy.linalg.get_lapack_funcs(("geqrf", "unmqr"), dtype=complex)

# (setter, getter) symbols of the OpenBLAS builds numpy (64-bit integers)
# and scipy ship in their wheels
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _openblas():
    """{package: (setter, getter)} for each OpenBLAS copy mapped into the
    process (numpy and scipy each load their own), found once from
    /proc/self/maps; empty where /proc is missing or none is loaded.  Both
    copies are mapped by the time this module has imported scipy.linalg."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[Path(path).parent.name.removesuffix(".libs")] = (setter, getter)
                break
    return found


def blas_threads():
    """Thread count now in effect for each loaded OpenBLAS copy, keyed by
    the package that ships it, e.g. {"numpy": 2, "scipy": 2}."""
    return {name: getter() for name, (_, getter) in _openblas().items()}


def _set_blas_threads(counts):
    for name, (setter, _) in _openblas().items():
        setter(counts[name])


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator that runs its body with every loaded
    OpenBLAS copy at one thread, then restores the caller's counts.

    The systems solved here are small (a few hundred unknowns), and two
    thread pools, one per copy, only contend for the cores; parallelism
    comes from running independent trials at once (`bench`'s `threads`).
    The counts are process-wide, so the scope is reference-counted: the
    outermost entry saves and pins them and the last exit restores them,
    which keeps nested calls and concurrent callers from restoring a count
    another call still relies on.  BLAS work that other threads do while a
    scope is open also runs on one thread.  Without a discoverable OpenBLAS
    the scope does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = {}

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = blas_threads()
                _set_blas_threads(dict.fromkeys(self._saved, 1))
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                _set_blas_threads(self._saved)
        return False


one_blas_thread = _OneBlasThread()


def seed_key(seed, *extra):
    """Flatten a seed plus derivation tags into one entropy list."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed), *extra]
    return [*map(int, seed), *extra]


def minnorm_lstsq(A, b):
    """Minimum-norm least-squares solution of A x ~ b with null-space basis.

    b is (p,) or (p, k), k right-hand sides, and x (q,) or (q, k).
    Singular values at most max(p, q) * machine epsilon * sigma_max
    count as zero.  A tall A (p >= 3q and pq >= 1024 entries) is first
    factored A = QR by LAPACK geqrf and Q^H applied to b by unmqr,
    without forming Q; the SVD then runs on the q x q triangle R with the
    first q rows of Q^H b, which have the same minimizers and null space
    (Chan's R-SVD), and the threshold keeps the original p.  Below that
    size the two extra LAPACK calls cost more than the smaller SVD saves.

    Returns (x, null, rank): x is the minimum-norm minimizer, null an
    orthonormal basis of the numerical null space (q x (q - rank)).
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p, q = A.shape
    if p >= 3 * q and p * q >= 1024:
        # A = QR: R and the first q rows of Q^H b pose the same problem
        qr, tau, _, _ = _GEQRF(A)
        c = b[:, None] if b.ndim == 1 else b
        c, _, _ = _UNMQR("L", "C", qr, tau, c, max(1, c.shape[1]))
        A, b = np.triu(qr[:q]), c[:q, 0] if b.ndim == 1 else c[:q]
    # the full V spans the null space; U is square only when p < q
    U, s, Vh = np.linalg.svd(A, full_matrices=p < q)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > max(p, q) * EPS * s[0]))
    # .T / s .T divides row j of U^H b by s_j for a 1-D or a 2-D b
    x = Vh[:rank].conj().T @ ((U[:, :rank].conj().T @ b).T / s[:rank]).T
    null = Vh[rank:].conj().T
    return x, null, rank


@dataclass(frozen=True)
class LMConfig:
    max_iterations: int = 1000
    max_residual_evaluations: int = 10000
    step_tolerance: float = 1e-12
    # relative decrease of 0.5*||f||^2 below which an accepted step stops the
    # run; 0 disables (stock solvers ship ~1e-6, hence the knob)
    function_tolerance: float = 0.0


@dataclass
class LMResult:
    x: np.ndarray
    residual_norm: float
    status: str            # converged-gradient | converged-step | converged-function
    #                      # | max-iterations | max-evaluations
    iterations: int
    residual_evaluations: int


@functools.cache
def _cholesky(dtype):
    """LAPACK's (potrf, potrs) for one dtype, looked up once."""
    return scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=dtype)


def levenberg_marquardt(residual, normal, x0, config=None):
    """Minimize 0.5 * ||residual(x)||^2 by damped least squares over real or
    complex x; the dtype of x0 decides, so real problems stay real.  A
    complex residual must be holomorphic.  `normal(x, f)` returns the
    Gauss-Newton normal system (J^H J, J^H f) at x, where f = residual(x)
    and J is the residual's derivative: refine builds it in closed form
    without J, the commutator minimization from its explicit J.  Only the
    diagonal and the upper triangle of J^H J are read, so `normal` may
    leave the strict lower triangle unset (as BLAS herk does).

    Each step solves (J^H J + lam diag(J^H J)) delta = -J^H f, which is the
    normal system of the problem lifted to [Re x; Im x] with the same
    Marquardt diagonal, so the iterates are the lifted problem's; the
    gradient test bounds Re and Im of J^H f separately, as the lifted one
    does.  The solve calls LAPACK's Cholesky pair potrf/potrs directly, with
    the arguments `scipy.linalg.cho_factor` and `cho_solve` pass (upper
    triangle, factor not cleaned), so the steps are theirs to the bit.  Each
    trial copies J^H J into one buffer kept for the run and adds the damping
    on its diagonal; J^H J and J^H f are tested for finiteness once per
    normal system and the damped diagonal once per trial.  A factorization
    that finds the damped matrix not positive definite raises the damping
    and tries again.  The damping follows a gain ratio and only improving
    steps are accepted, so the objective is nonincreasing; the accepted
    point is the very array the residual was evaluated at, so `normal` can
    recognise it.  `config` is an LMConfig.  Raises np.linalg.LinAlgError,
    a ValueError, if the residual at x0 or a damped normal system is not
    finite: a numerical breakdown, such as an overflow.
    """
    cfg = config if config is not None else LMConfig()
    x = np.array(x0, dtype=np.result_type(np.asarray(x0), float))
    potrf, potrs = _cholesky(x.dtype)
    f = np.asarray(residual(x), dtype=x.dtype)
    nfev = 1
    if not np.isfinite(f).all():
        raise np.linalg.LinAlgError("residual is not finite at the starting point")
    cost = 0.5 * np.vdot(f, f).real
    x_norm = np.linalg.norm(x)
    lam = INITIAL_DAMPING
    nu = 2.0
    status = "max-iterations"
    iterations = 0
    # the damped system, in Fortran order so potrf factors it in place
    damped = np.empty((x.size, x.size), dtype=x.dtype, order="F")
    diagonal = damped.reshape(-1, order="F")[::x.size + 1]     # a view

    for _ in range(cfg.max_iterations):
        JhJ, g = normal(x, f)
        JhJ = np.asarray(JhJ, dtype=x.dtype)
        g = np.asarray(g, dtype=x.dtype)
        if np.max(np.abs(g.view(float)), initial=0.0) <= GRADIENT_TOLERANCE:
            status = "converged-gradient"
            break
        iterations += 1
        d = np.diag(JhJ).real
        scale = np.maximum(d, 1e-14 * max(d.max(), 1.0))
        base = JhJ + 0.0        # -0.0 becomes +0.0, as in a sum with the damping
        if not (np.isfinite(base).all() and np.isfinite(g).all()):
            raise np.linalg.LinAlgError("the normal system is not finite")

        while True:
            np.copyto(damped, base)
            diagonal += lam * scale
            if not np.isfinite(diagonal).all():
                raise np.linalg.LinAlgError("the normal system is not finite")
            c, info = potrf(damped, lower=False, overwrite_a=True, clean=False)
            if info > 0:      # not positive definite at this damping
                lam *= nu
                nu *= 2.0
                continue
            delta, _ = potrs(c, -g, lower=False, overwrite_b=True)
            if np.linalg.norm(delta) <= cfg.step_tolerance * (x_norm + cfg.step_tolerance):
                status = "converged-step"
                break
            if nfev >= cfg.max_residual_evaluations:
                status = "max-evaluations"
                break
            xn = x + delta
            fn = np.asarray(residual(xn), dtype=x.dtype)
            nfev += 1
            costn = 0.5 * np.vdot(fn, fn).real if np.isfinite(fn).all() else np.inf
            if costn < cost:
                predicted = 0.5 * np.vdot(delta, lam * scale * delta - g).real
                rho = (cost - costn) / max(predicted, np.finfo(float).tiny)
                if cfg.function_tolerance > 0.0 and (
                        cost - costn <= cfg.function_tolerance * cost):
                    status = "converged-function"
                x, f, cost = xn, fn, costn
                x_norm = np.linalg.norm(x)
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                break
            lam *= nu
            nu = min(2.0 * nu, 1e8)
        if status in ("converged-step", "max-evaluations", "converged-function"):
            break

    return LMResult(x=x, residual_norm=float(np.sqrt(2.0 * cost)),
                    status=status, iterations=iterations,
                    residual_evaluations=nfev)
