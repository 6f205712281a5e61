"""Shared numerical kernels: rank-revealing least squares (a large tall
system is reduced by Householder QR first, so the SVD is of its square
triangle), a damped least-squares (Levenberg-Marquardt) minimizer over
real or complex unknowns that takes its Gauss-Newton normal system
(J^H J, J^H f) from the caller, so a structured problem can build it
without forming J from what its residual returned at the accepted point,
seed keys for random draws and the BLAS thread policy of every public
call, which finds numpy's and scipy's OpenBLAS copies through their own
extension modules.  The minimizer's loop tests each normal system for
finiteness once and each damped trial's diagonal once, reads the run's
constants once and takes norms without `np.linalg.norm`'s dispatch,
which at a few dozen unknowns costs more than the norm itself."""

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.linalg import _umath_linalg
from scipy.linalg import _fblas

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
    """{package: (setter, getter)} for the OpenBLAS copy each of numpy and
    scipy loads, found once through an extension module of the package
    that links it (a loaded library's symbol lookup also searches the
    libraries it links); a package whose lookup fails (no RTLD_NOLOAD, the
    module not loadable, no symbols) is left out, so where none is found
    the thread policy does nothing.  No /proc file is read."""
    found = {}
    for name, module in (("numpy", _umath_linalg), ("scipy", _fblas)):
        try:
            lib = ctypes.CDLL(module.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except (AttributeError, OSError):
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[name] = (setter, getter)
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
    thread pools, one per copy, only contend for the cores.  The counts
    are process-wide, so the scope is reference-counted under a lock: the
    outermost entry saves and pins them and the last exit restores them,
    which keeps nested calls and callers' own concurrent threads from
    restoring a count another call still relies on.  BLAS work that other
    threads do while a scope is open also runs on one thread.  Without a
    discoverable OpenBLAS the scope does nothing."""

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
    # s[:1] is sigma_max, or empty with s; sigma_max = 0 gives rank 0
    rank = int(np.count_nonzero(s > max(p, q) * EPS * s[:1]))
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


def _norm(v):
    """||v||_2 of a real or complex vector by numpy's own formula for a
    vector's 2-norm, sqrt(Re v . Re v + Im v . Im v) for a complex one,
    so the bits are `np.linalg.norm`'s without its dispatch."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def levenberg_marquardt(residual, normal, x0, config=None):
    """Minimize 0.5 * ||f(x)||^2 by damped least squares over real or
    complex x; the dtype of x0 decides, so real problems stay real.
    `residual(x)` returns (f, state), f the residual vector and state
    whatever of that evaluation the normal system can reuse (or None);
    a complex residual must be holomorphic.  `normal(x, f, state)`
    returns the Gauss-Newton normal system (J^H J, J^H f) at x, where J
    is the residual's derivative, with the f and state the residual
    returned at x: refine builds it in closed form without J, the
    commutator minimization from J written by one sparse product with a
    map its fit keeps.  `normal` is called only at accepted points, and
    the state is dropped once the normal system is built, so the damped
    trials keep no state but their own.  Only the diagonal and the upper
    triangle of J^H J are read, so `normal` may leave the strict lower
    triangle unset (as BLAS herk does).

    Each step solves (J^H J + lam diag(J^H J)) delta = -J^H f, which is the
    normal system of the problem lifted to [Re x; Im x] with the same
    Marquardt diagonal, so the iterates are the lifted problem's; the
    gradient test bounds Re and Im of J^H f separately, as the lifted one
    does.  The solve calls LAPACK's Cholesky pair potrf/potrs directly, with
    the arguments `scipy.linalg.cho_factor` and `cho_solve` pass (upper
    triangle, factor not cleaned), so the steps are theirs to the bit.  Each
    trial writes J^H J + 0.0 into one buffer kept for the run and adds the
    damping on its diagonal.  Per normal system, J^H J and J^H f are tested
    for finiteness (J^H f through the gradient test's maximum, which is
    nan or inf otherwise); per trial, the damped diagonal is.  A residual
    that is not finite gives a cost of inf or nan, which is not below the
    current one, so its step is rejected.  A factorization that finds the
    damped matrix not positive definite raises the damping and tries
    again.  The run's constants (the config's fields, the smallest normal
    float, the step bound of the current point) are read once, and norms
    are taken by `_norm`.  The damping follows a gain ratio and only
    improving steps are accepted, so the objective is nonincreasing.
    `config` is an LMConfig.  Raises np.linalg.LinAlgError, a ValueError,
    if the residual at x0 or a damped normal system is not finite: a
    numerical breakdown, such as an overflow.
    """
    cfg = config if config is not None else LMConfig()
    step_tolerance, function_tolerance = cfg.step_tolerance, cfg.function_tolerance
    max_evaluations = cfg.max_residual_evaluations
    tiny = np.finfo(float).tiny
    x = np.array(x0, dtype=np.result_type(np.asarray(x0), float))
    dtype = x.dtype
    potrf, potrs = _cholesky(dtype)
    f, state = residual(x)
    f = np.asarray(f, dtype=dtype)
    nfev = 1
    if not np.isfinite(f).all():
        raise np.linalg.LinAlgError("residual is not finite at the starting point")
    cost = 0.5 * np.vdot(f, f).real
    bound = step_tolerance * (_norm(x) + step_tolerance)
    lam = INITIAL_DAMPING
    nu = 2.0
    status = "max-iterations"
    iterations = 0
    # the damped system, in Fortran order so potrf factors it in place
    damped = np.empty((x.size, x.size), dtype=dtype, order="F")
    diagonal = damped.reshape(-1, order="F")[::x.size + 1]     # a view

    for _ in range(cfg.max_iterations):
        JhJ, g = normal(x, f, state)
        state = None        # the trials need only the normal system
        JhJ = np.asarray(JhJ, dtype=dtype)
        g = np.asarray(g, dtype=dtype)
        g_max = abs(g.view(float)).max(initial=0.0)     # nan or inf unless g is finite
        if g_max <= GRADIENT_TOLERANCE:
            status = "converged-gradient"
            break
        iterations += 1
        d = JhJ.diagonal().real
        scale = np.maximum(d, 1e-14 * max(d.max(), 1.0))
        if not (math.isfinite(g_max) and np.isfinite(JhJ).all()):
            raise np.linalg.LinAlgError("the normal system is not finite")

        while True:
            damping = lam * scale
            np.add(JhJ, 0.0, out=damped)    # -0.0 becomes +0.0, as in a sum with the damping
            diagonal += damping
            if not np.isfinite(diagonal).all():
                raise np.linalg.LinAlgError("the normal system is not finite")
            c, info = potrf(damped, lower=False, overwrite_a=True, clean=False)
            if info > 0:      # not positive definite at this damping
                lam *= nu
                nu *= 2.0
                continue
            delta, _ = potrs(c, -g, lower=False, overwrite_b=True)
            if _norm(delta) <= bound:
                status = "converged-step"
                break
            if nfev >= max_evaluations:
                status = "max-evaluations"
                break
            xn = x + delta
            # the latest trial's state: `normal` reads it after an acceptance
            fn, state = residual(xn)
            fn = np.asarray(fn, dtype=dtype)
            nfev += 1
            costn = 0.5 * np.vdot(fn, fn).real     # inf or nan if fn is not finite
            if costn < cost:
                predicted = 0.5 * np.vdot(delta, damping * delta - g).real
                rho = (cost - costn) / max(predicted, tiny)
                if cost - costn <= function_tolerance * cost:
                    status = "converged-function"
                x, f, cost = xn, fn, costn
                bound = step_tolerance * (_norm(x) + step_tolerance)
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                break
            lam *= nu
            nu = min(2.0 * nu, 1e8)
        if status != "max-iterations":
            break

    return LMResult(x=x, residual_norm=float(np.sqrt(2.0 * cost)),
                    status=status, iterations=iterations,
                    residual_evaluations=nfev)
