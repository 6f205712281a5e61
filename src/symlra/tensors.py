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
in these compact coordinates, `transform` included; the dense (n,)*m
array serves only the JSON `full` format and the public conversions
`full_from_compact` and `compact_from_full`.
"""

import itertools
import math
import sys
from functools import lru_cache

import numpy as np
import scipy.linalg

# the most compact entries, and dense entries read from a full document, a
# layout may have; (20, 6) has 177,100 and its table builds in seconds
MAX_ENTRIES = 2 ** 20
# complex entries gathered at once by a step of `transform` (4 MiB)
TRANSFORM_BLOCK = 2 ** 18


def exponents(nbar, degree):
    """All exponent tuples over `nbar` variables with total degree <= `degree`,
    in graded lexicographic order: the multisets of `degree` coordinates of
    u = (u_0, ..., u_nbar) in lex order, counted over u_1..u_nbar."""
    if nbar < 0 or degree < 0:
        raise ValueError("nbar and degree must be nonnegative")
    combos = itertools.combinations_with_replacement(range(nbar + 1), degree)
    return [tuple(c.count(j) for j in range(1, nbar + 1)) for c in combos]


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

    Exponents are ranked in closed form.  With S(k, t) = C(k+t-1, k)
    (0 at t = 0) the number of exponents over k variables of degree < t,
    and suffix_j(alpha) = alpha_j + ... + alpha_{n-1},

        slot(alpha) = sum_{j=1..n-1} S(n-j, suffix_j(alpha)):

    term 1 counts the exponents of lower degree, term j > 1 those of
    degree |alpha| that share alpha_1..alpha_{j-2} and carry a larger
    power of x_{j-1}.  Each S is at most the table length, so int64
    holds it.  The ranking runs one coordinate at a time: one lookup in
    `_below[n-j]` per coordinate, summed.

    Suffix sums add: suffix_j(alpha + beta) = suffix_j(alpha) +
    suffix_j(beta).  The table keeps every exponent's suffix sums in
    `_suffix` ((n-1) x N, row j-1 holding suffix_j), so `sum_slots` ranks
    each entry F_{alpha+beta} of a Hankel-type matrix from one (p, q) add
    and one lookup per coordinate, with no (p, q, n-1) array of summed
    exponents.  The order is degree-graded, so the exponents of degree
    <= d are the first compact_size(n, d) rows of `alpha_mat`: the
    Hankel gathers (catalecticant, generating systems, refine) pass such
    prefixes as rows and columns.

    `monomials` reads the same prefix as the homogeneous exponents
    (d - |alpha|, alpha) of degree d and builds them by degree recursion:
    u^beta is its parent u^(beta - e_j) of degree d - 1 times u_j, with j
    the first coordinate of beta with a positive power (j = 0 below degree
    d, the parent then in the same slot).  `_steps` holds each level's
    parent slots and j, found once per table through `slots`; `transform`
    walks the same levels, one mode of the tensor per level.
    """

    __slots__ = ("n", "m", "alphas", "index", "alpha_mat", "weights",
                 "sqrt_weights", "_below", "_suffix", "_steps")

    def __init__(self, n, m):
        nbar = n - 1
        self.n = n
        self.m = m
        self.alphas = tuple(exponents(nbar, m))
        self.index = {a: k for k, a in enumerate(self.alphas)}
        N = len(self.alphas)
        A = np.array(self.alphas, dtype=np.int64).reshape(N, nbar)
        self.alpha_mat = A
        self.weights = np.array([multinomial(a, m) for a in self.alphas], dtype=float)
        self.sqrt_weights = np.sqrt(self.weights)
        # _below[k, t] = S(k, t) for k <= n-1 variables and degrees t <= m
        self._below = np.array([[0] + [math.comb(k + t, k) for t in range(m)]
                                for k in range(n)], dtype=np.int64)
        # _suffix[j-1, k] = suffix_j of exponent k, row by row for `sum_slots`
        self._suffix = np.cumsum(A[:, ::-1], axis=1)[:, ::-1].T.copy()
        # degree recursion: level d's parent slots and coordinates j
        deg = A.sum(axis=1)
        first = (np.cumsum(A, axis=1) == 0).sum(axis=1)   # leading zeros
        parent = self.slots(A - (np.arange(nbar) == first[:, None]))
        self._steps = tuple((np.where(deg[:k] < d, np.arange(k), parent[:k]),
                             np.where(deg[:k] < d, 0, first[:k] + 1))
                            for d in range(1, m + 1) for k in [compact_size(n, d)])

    def __len__(self):
        return len(self.alphas)

    def _rank(self, shape, suffixes):
        # sum over j = n-1, ..., 1 of S(n-j, s_j), `suffixes` yielding the
        # suffix-sum arrays s_j in that order
        out = np.zeros(shape, dtype=np.int64)
        for below, s in zip(self._below[1:], suffixes):
            out += below[s]
        return out

    def slots(self, E):
        """Compact slots of the exponents in the integer array E of shape
        (..., n-1); each exponent must be nonnegative with degree <= m."""
        E = np.asarray(E, dtype=np.int64)
        if E.shape[-1:] != (self.n - 1,):
            raise ValueError(f"exponents must have {self.n - 1} entries, "
                             f"got shape {E.shape}")
        if E.size and (E.min() < 0 or E.sum(axis=-1).max() > self.m):
            raise ValueError(f"exponents must be nonnegative with degree "
                             f"<= {self.m}")
        return self._rank(E.shape[:-1], itertools.accumulate(
            E[..., j] for j in range(self.n - 2, -1, -1)))

    def sum_slots(self, rows, cols):
        """(p, q) slots of alpha_mat[rows][:, None] + alpha_mat[cols], the
        gather of a Hankel-type matrix.  `rows` and `cols` are each a
        prefix length or an index array into the table."""
        a, b = (self._suffix[:, :k] if np.ndim(k) == 0 else self._suffix[:, k]
                for k in (rows, cols))
        p, q = a.shape[1], b.shape[1]
        if p and q and self.n > 1 and a[0].max() + b[0].max() > self.m:
            raise ValueError(f"summed exponents exceed degree {self.m}")
        return self._rank((p, q), (s[:, None] + t for s, t in zip(a[::-1], b[::-1])))

    def monomials(self, U, degree=None, below=None):
        """(r, compact_size(n, degree)) values of the rows of U (shape
        (r, n)) at the homogeneous exponents (degree - |alpha|, alpha) of
        the first rows of `alpha_mat`; degree defaults to m.  One gather and
        one multiply per degree (class docstring), no (r, N, n) array.
        `below`, this method's result for U at degree - 1, skips the levels
        up to it: the result is the same to the bit."""
        degree = self.m if degree is None else degree
        if not 0 <= degree <= self.m:
            raise ValueError(f"degree must be in 0..{self.m}, got {degree}")
        UT = np.array(U, dtype=complex).T   # a copy: level 1 is U itself
        if below is not None:
            parent, first = self._steps[degree - 1]
            return (below.T[parent] * UT[first]).T
        P = UT if degree else np.ones((1, UT.shape[1]), dtype=complex)
        for parent, first in self._steps[1:degree]:
            P = P[parent] * UT[first]
        return P.T


@lru_cache(maxsize=None)
def table(n, m):
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if compact_size(n, m) > MAX_ENTRIES:
        raise ValueError(f"n={n}, m={m} has more than {MAX_ENTRIES} compact "
                         "entries")
    q, extra = divmod(m, n)     # the most even exponent has the largest weight
    if multinomial([q + 1] * extra + [q] * (n - 1 - extra), m) > sys.float_info.max:
        raise ValueError(f"n={n}, m={m} has multinomial weights beyond the float range")
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
        # compact entries of each u_i^{(m)} are its degree-m monomials
        P = table(self.n, self.m).monomials(self.vectors)
        return SymTensor(self.n, self.m, P.sum(axis=0))

    def __repr__(self):
        return f"Decomposition(n={self.n}, m={self.m}, rank={self.rank})"


@lru_cache(maxsize=None)
def _position_map(n, m):
    # dense index tuple -> compact slot, as an (n,)*m integer array; its
    # suffix_j is the number of modes with index >= j, an int8 sum of one
    # broadcast step per mode (int8 holds m: for n >= 2, n^m entries fit
    # in memory only when m < 128, and n = 1 has no coordinates)
    shapes = [(n,) + (1,) * (m - 1 - k) for k in range(m)]
    suffixes = (sum(np.reshape(np.arange(n) >= j, shape).astype(np.int8)
                    for shape in shapes)
                for j in range(n - 1, 0, -1))
    pos = table(n, m)._rank((n,) * m, suffixes)
    pos.flags.writeable = False
    return pos


def full_from_compact(F):
    """Expand to the dense (n,)*m array (use only at interface boundaries)."""
    return F.values[_position_map(F.n, F.m)]


def compact_from_full(full):
    """Compress a dense array into compact coordinates, verifying symmetry.

    Entries within one symmetry class must agree to 1e-12 relative to the
    largest entry magnitude; the first violating position pair is reported.
    """
    full = np.asarray(full, dtype=complex)
    if full.ndim < 1 or len(set(full.shape)) != 1:
        raise ValueError(f"expected a (n,)*m cube, got shape {full.shape}")
    n, m = full.shape[0], full.ndim
    pos = _position_map(n, m)
    values = np.empty(compact_size(n, m), dtype=complex)
    values[pos.ravel()[::-1]] = full.ravel()[::-1]   # each class's first entry
    spread = np.abs(full - values[pos])
    scale = np.abs(full).max()
    if scale > 0 and spread.max() > 1e-12 * scale:
        at = np.unravel_index(np.argmax(spread), full.shape)
        rep = tuple(sorted(at))
        raise ValueError(
            f"input is not symmetric: entry at {at} differs from entry at "
            f"{rep} by {spread.max():.3e} (tolerance 1.0e-12 relative)")
    return SymTensor(n, m, values)


def transform(F, A):
    """Apply an invertible matrix to every mode: sum u_i^{(m)} maps to
    sum (A u_i)^{(m)}.  One mode at a time in compact coordinates: T_k, F
    with A on k modes, has rows I of degree k and columns J of degree m - k,
    and T_{k+1}[I + e_i, J] = sum_j A[i, j] T_k[I, J + e_j], one gather
    (`sum_slots`) and one matmul, read at the rows' parents (`_steps`).
    Each step runs over blocks of the columns J, each block gathering at
    most TRANSFORM_BLOCK entries of T_k (or one column, if that is more)
    into a preallocated T_{k+1}, so the memory peak stays near T_k and
    T_{k+1}."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (F.n, F.n):
        raise ValueError(f"matrix must be {F.n} x {F.n}, got {A.shape}")
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= F.n * np.finfo(float).eps * s[0]:
        raise np.linalg.LinAlgError("transform matrix is singular to working precision")
    tab, T = F.table, F.values[None, :]
    for k, (parent, first) in enumerate(tab._steps):
        up = tab.sum_slots(compact_size(F.n, F.m - k - 1), F.n)   # J + e_j
        width = max(1, TRANSFORM_BLOCK // (T.shape[0] * F.n))
        out = np.empty((parent.size, len(up)), dtype=complex)
        for j in range(0, len(up), width):
            out[:, j:j + width] = (T[:, up[j:j + width]] @ A.T)[parent, :, first]
        T = out
    return SymTensor(F.n, F.m, T[:, 0])


def random_low_rank(n, m, r, seed=0, tau=None):
    """A random rank-<= r instance: vectors with independent standard normal
    real and imaginary parts.  With `tau` given, the i-th term is scaled by
    tau^i (i = 1..r), producing terms of strongly unequal size.

    Returns (tensor, decomposition); the decomposition reproduces the tensor
    exactly (scaling is folded into the vectors as tau^(i/m))."""
    if tau is not None and not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    if tau is not None:
        U = U * (float(tau) ** (np.arange(1, r + 1) / m))[:, None]
    d = Decomposition(m, U)
    return d.tensor(), d


def perturb(F, eps, seed=0):
    """F plus a random symmetric perturbation of Hilbert-Schmidt norm
    exactly `eps` (complex standard normal direction)."""
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    if eps == 0:
        return F
    rng = np.random.default_rng(seed)
    N = len(F.table)
    E = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    w = F.table.weights
    E *= eps / np.sqrt(np.sum(w * (E.real ** 2 + E.imag ** 2)))
    return SymTensor(F.n, F.m, F.values + E)
