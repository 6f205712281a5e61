"""Symmetric tensors over C^n in compact monomial coordinates.

An order-m symmetric tensor F on C^n is determined by one entry per
monomial: for an exponent alpha = (alpha_1, ..., alpha_{n-1}) with
|alpha| = alpha_1 + ... + alpha_{n-1} <= m, the compact entry F_alpha is
the common value of F at every position tuple (i_1, ..., i_m) in which
the index j+1 appears alpha_j times (index 1 fills the remaining
m - |alpha| slots).  Exponents are enumerated in graded lexicographic
order: total degree ascending, ties broken so that earlier variables
carry the higher powers first (1, x1, ..., x_{n-1}, x1^2, x1*x2, ...).

The number of position tuples that collapse onto alpha is the
multinomial coefficient m! / (alpha_0! * alpha_1! * ... * alpha_{n-1}!)
with alpha_0 = m - |alpha|, so the squared Hilbert-Schmidt norm of F is
sum_alpha multinomial(alpha) * |F_alpha|^2.  Everything downstream works
in these compact coordinates; the dense (n,)*m array only appears at
interface boundaries (`full_from_compact`, `compact_from_full`).
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg


def _homogeneous(nbar, d):
    # exponent tuples of total degree d over nbar variables, first variable major
    if nbar == 0:
        return [()] if d == 0 else []
    out = []
    for lead in range(d, -1, -1):
        for rest in _homogeneous(nbar - 1, d - lead):
            out.append((lead,) + rest)
    return out


def exponents(nbar, degree):
    """All exponent tuples over `nbar` variables with total degree <= `degree`,
    in graded lexicographic order."""
    if nbar < 0 or degree < 0:
        raise ValueError("nbar and degree must be nonnegative")
    out = []
    for d in range(degree + 1):
        out.extend(_homogeneous(nbar, d))
    return out


def multinomial(alpha, m):
    """Number of length-m position tuples with the exponent pattern `alpha`:
    m! / (alpha_0! * alpha_1! * ...) where alpha_0 = m - sum(alpha)."""
    total = sum(alpha)
    if total > m or any(a < 0 for a in alpha):
        raise ValueError(f"exponent {tuple(alpha)} does not fit into degree {m}")
    c = 1
    remaining = m
    for a in alpha:
        c *= math.comb(remaining, a)
        remaining -= a
    return c


class ExponentTable:
    """Per-(n, m) index data for the compact layout, built once and cached.

    `slots` ranks exponents in closed form.  With S(k, t) = C(k+t-1, k)
    (0 at t = 0) the number of exponents over k variables of degree < t,

        slot(alpha) = sum_{j=1..n-1} S(n-j, alpha_j + ... + alpha_{n-1}):

    term 1 counts the exponents of lower degree, term j > 1 those of
    degree |alpha| that share alpha_1..alpha_{j-2} and carry a larger
    power of x_{j-1}.  Each S is at most the table length, so int64
    holds it.  The order is degree-graded, so the exponents of degree
    <= d are the first compact_size(n, d) rows of `alpha_mat`: the
    Hankel gathers (catalecticant, generating systems) rely on this
    prefix property.
    """

    __slots__ = ("n", "m", "alphas", "index", "alpha_mat", "powers",
                 "weights", "sqrt_weights", "_below")

    def __init__(self, n, m):
        nbar = n - 1
        self.n = n
        self.m = m
        self.alphas = tuple(exponents(nbar, m))
        self.index = {a: k for k, a in enumerate(self.alphas)}
        N = len(self.alphas)
        A = np.array(self.alphas, dtype=np.int64).reshape(N, nbar)
        # powers of every coordinate of u = (u_1, ..., u_n); column 0 gets the slack
        self.alpha_mat = A
        self.powers = np.column_stack([m - A.sum(axis=1), A])
        self.weights = np.array([multinomial(a, m) for a in self.alphas], dtype=float)
        self.sqrt_weights = np.sqrt(self.weights)
        # _below[k, t] = S(k, t) for k <= n-1 variables and degrees t <= m
        self._below = np.array([[0] + [math.comb(k + t, k) for t in range(m)]
                                for k in range(n)], dtype=np.int64)

    def __len__(self):
        return len(self.alphas)

    def slots(self, E):
        """Compact slots of the exponents in the integer array E of shape
        (..., n-1); each exponent must be nonnegative with degree <= m."""
        E = np.asarray(E, dtype=np.int64)
        suffix = np.cumsum(E[..., ::-1], axis=-1)[..., ::-1]
        return self._below[np.arange(self.n - 1, 0, -1), suffix].sum(axis=-1)


@lru_cache(maxsize=None)
def table(n, m):
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    return ExponentTable(n, m)


def compact_size(n, m):
    """Number of compact entries: C(n - 1 + m, m)."""
    return math.comb(n - 1 + m, m)


class SymTensor:
    """Order-m symmetric tensor on C^n, stored as compact coefficients.

    `values[k]` is the entry for the k-th exponent of ``table(n, m)``.
    Instances are immutable; arithmetic returns new tensors.
    """

    __slots__ = ("n", "m", "values")

    def __init__(self, n, m, values):
        tab = table(n, m)
        vals = np.array(values, dtype=complex)
        if vals.shape != (len(tab),):
            raise ValueError(
                f"expected {len(tab)} compact entries for n={n}, m={m}, "
                f"got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("tensor entries must be finite (no NaN or Inf)")
        vals.flags.writeable = False
        self.n = n
        self.m = m
        self.values = vals

    @classmethod
    def zeros(cls, n, m):
        return cls(n, m, np.zeros(compact_size(n, m), dtype=complex))

    @property
    def table(self):
        return table(self.n, self.m)

    def entry(self, alpha):
        """The compact entry F_alpha."""
        return complex(self.values[self.table.index[tuple(alpha)]])

    def norm(self):
        """Hilbert-Schmidt norm (the dense Frobenius norm) from the weighted
        compact entries; BLAS nrm2 rescales, so squares never over/underflow."""
        return float(scipy.linalg.norm(self.table.sqrt_weights * self.values))

    def _check_compatible(self, other):
        if not isinstance(other, SymTensor):
            raise TypeError("expected a SymTensor")
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"shape mismatch: ({self.n}, {self.m}) vs ({other.n}, {other.m})")

    def __add__(self, other):
        self._check_compatible(other)
        return SymTensor(self.n, self.m, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return SymTensor(self.n, self.m, self.values - other.values)

    def __neg__(self):
        return SymTensor(self.n, self.m, -self.values)

    def __mul__(self, c):
        return SymTensor(self.n, self.m, self.values * complex(c))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymTensor(n={self.n}, m={self.m}, norm={self.norm():.6g})"


class Decomposition:
    """Vectors u_1, ..., u_r in C^n representing sum_i u_i^{(m)} (m-th
    symmetric tensor powers).  `vectors` has shape (r, n), one vector per row."""

    __slots__ = ("m", "vectors")

    def __init__(self, m, vectors):
        vecs = np.array(vectors, dtype=complex)
        if vecs.ndim != 2:
            raise ValueError("vectors must be a 2-d array, one vector per row")
        if m < 1 or vecs.shape[1] < 1:
            raise ValueError("need m >= 1 and n >= 1")
        if not np.isfinite(vecs).all():
            raise ValueError("vectors must be finite")
        vecs.flags.writeable = False
        self.m = m
        self.vectors = vecs

    @property
    def n(self):
        return self.vectors.shape[1]

    @property
    def rank(self):
        return self.vectors.shape[0]

    def tensor(self):
        """The represented tensor sum_i u_i^{(m)} in compact coordinates."""
        tab = table(self.n, self.m)
        if self.rank == 0:
            return SymTensor.zeros(self.n, self.m)
        # (r, N): compact entries of each u_i^{(m)} are plain monomials u_i^powers
        P = np.prod(self.vectors[:, None, :] ** tab.powers[None, :, :], axis=2)
        return SymTensor(self.n, self.m, P.sum(axis=0))

    def __repr__(self):
        return f"Decomposition(n={self.n}, m={self.m}, rank={self.rank})"


def rank_one(u, m):
    """The m-th symmetric power u^{(m)} of a single vector."""
    u = np.asarray(u, dtype=complex)
    return Decomposition(m, u[None, :]).tensor()


@lru_cache(maxsize=None)
def _position_map(n, m):
    # dense index tuple -> compact slot, as an (n,)*m integer array
    counts = (np.indices((n,) * m)[..., None] == np.arange(1, n)).sum(axis=0)
    pos = table(n, m).slots(counts)
    pos.flags.writeable = False
    return pos


def full_from_compact(F):
    """Expand to the dense (n,)*m array (use only at interface boundaries)."""
    return F.values[_position_map(F.n, F.m)]


def _compress(full, n, m):
    # take the first occurrence (C-order) of each symmetry class; no check
    pos = _position_map(n, m).reshape(-1)
    values = np.empty(compact_size(n, m), dtype=complex)
    values[pos[::-1]] = full.reshape(-1)[::-1]
    return values


def compact_from_full(full, tol=1e-12):
    """Compress a dense array into compact coordinates, verifying symmetry.

    Entries within one symmetry class must agree to `tol` relative to the
    largest entry magnitude; the first violating position pair is reported.
    """
    full = np.asarray(full, dtype=complex)
    if full.ndim < 1 or len(set(full.shape)) != 1:
        raise ValueError(f"expected a (n,)*m cube, got shape {full.shape}")
    n, m = full.shape[0], full.ndim
    values = _compress(full, n, m)
    spread = np.abs(full - values[_position_map(n, m)])
    scale = np.abs(full).max()
    if scale > 0 and spread.max() > tol * scale:
        at = np.unravel_index(np.argmax(spread), full.shape)
        rep = tuple(sorted(at))
        raise ValueError(
            f"input is not symmetric: entry at {at} differs from entry at "
            f"{rep} by {spread.max():.3e} (tolerance {tol:.1e} relative)")
    return SymTensor(n, m, values)


def transform(F, A):
    """Apply an invertible matrix to every mode: sum u_i^{(m)} maps to
    sum (A u_i)^{(m)}.  Expands to the dense array internally."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (F.n, F.n):
        raise ValueError(f"matrix must be {F.n} x {F.n}, got {A.shape}")
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= F.n * np.finfo(float).eps * s[0]:
        raise np.linalg.LinAlgError("transform matrix is singular to working precision")
    G = full_from_compact(F)
    for _ in range(F.m):
        # contract the current leading mode; the new axis lands at the end,
        # so m applications transform every mode exactly once
        G = np.tensordot(G, A, axes=([0], [1]))
    return SymTensor(F.n, F.m, _compress(G, F.n, F.m))


def random_low_rank(n, m, r, seed=0, tau=None):
    """A random rank-<= r instance: vectors with independent standard normal
    real and imaginary parts.  With `tau` given, the i-th term is scaled by
    tau^i (i = 1..r), producing terms of strongly unequal size.

    Returns (tensor, decomposition); the decomposition reproduces the tensor
    exactly (scaling is folded into the vectors as tau^(i/m))."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    if tau is not None:
        U = U * (float(tau) ** (np.arange(1, r + 1) / m))[:, None]
    d = Decomposition(m, U)
    return d.tensor(), d


def perturb(F, eps, seed=0):
    """F plus a random symmetric perturbation of Hilbert-Schmidt norm
    exactly `eps` (complex standard normal direction)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return F
    rng = np.random.default_rng(seed)
    N = len(F.table)
    E = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    w = F.table.weights
    E *= eps / np.sqrt(np.sum(w * (E.real ** 2 + E.imag ** 2)))
    return SymTensor(F.n, F.m, F.values + E)
