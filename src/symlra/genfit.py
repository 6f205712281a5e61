"""Generating-system fit.

For a target rank r, the first r exponents in graded lex order form the
`core` monomial set; multiplying the core by each variable and removing
the core itself leaves the `border`.  For every border monomial x^alpha
the tensor imposes the least-squares system

    A[gamma, beta] = F_{beta+gamma},   b[gamma] = F_{alpha+gamma},

rows over all |gamma| <= m - |alpha|, columns over the core.  The rows
and the core are prefixes of the compact layout, so each system, A and
its right-hand sides together, is one slot matrix of
`ExponentTable.sum_slots` (rows gamma, columns the core followed by the
border slots).  A solution g expresses x^alpha as sum_beta g_beta x^beta
on the (unknown) zero set.
A depends only on |alpha|, so each border degree is one system with a
right-hand side per column, and A's null space gives every column of
that degree its free parameters.  Stacking the border coefficient vectors
gives the r x |border| generating matrix G, from which one
multiplication matrix per variable follows.  The free parameters are
tuned so the multiplication matrices commute (they do exactly when F
has rank r and the core is interpolating).

G(omega) and the multiplication matrices M(omega) are affine in the free
parameters omega: border column alpha moves by N omega_alpha, N the null
basis of alpha's degree.  Each fit keeps that map as arrays built once:
the degrees' null bases side by side (r x Q) and each parameter's slot
in a Q x |border| grid (G(omega) is one grid write and one r x Q matmul),
and the companion wiring as (variable, core slot, border column) index
arrays, which the basis also keeps as a read-only template of the unit
columns and flat indices of the rest (M(omega) is a copy of the template
and one flat write of G's columns; an LM run builds its grid once).  The
commutator residual is one batched product over the pairs i < j.  Its
Jacobian J is linear in M, with coefficients +-N entries that only the
fit decides, so the fit's first commutator LM builds that map once as
a sparse W, vec(J) = W vec(M), kept as the CSR arrays scipy's kernel
reads, and each J is one call of that kernel on the M that the
residual returned, as its state, at the LM's accepted point; J^H J is
one Hermitian rank-k product (BLAS zherk).
`optimize_generating` runs one LM from one start; the pipeline picks starts.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemv, zherk

from .tensors import compact_size, table
from .numerics import levenberg_marquardt, minnorm_lstsq, seed_key


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    n: int
    m: int
    rank: int
    core: tuple                 # first `rank` exponents, graded lex
    border: tuple               # multiplicative border of the core, graded lex
    # companion wiring: shifting core slot nu by e_i lands either on a core
    # slot (column nu of M_i is a unit vector, set in `template`) or on
    # border monomial `col` (column nu of M_i is column col of G); a border
    # monomial is core[nu] + e_i for at most one nu per variable i
    template: np.ndarray = field(repr=False)    # (n-1, r, r) unit columns, read-only
    wires: tuple = field(repr=False)            # (i, nu, col)
    # the wires as flat indices, M.ravel()[into] = G.ravel()[take]: entry s
    # of wire (i, nu, col) is (i r + s) r + nu of M and s |border| + col of G
    wire_flat: tuple = field(repr=False)        # (into, take)


def monomial_basis(n, m, r):
    """Core and border monomial sets for target rank r, plus companion wiring.

    Requires the whole border to stay within degree m, i.e.
    r <= C(n-1+m-1, m-1); beyond that the border systems would need
    entries of degree > m that the tensor does not have.
    """
    nbar = n - 1
    tab = table(n, m)
    if not 1 <= r <= len(tab):
        raise ValueError(f"rank {r} is out of range for n={n}, m={m}")
    first = compact_size(n, m - 1)      # the first degree-m slot
    if n > 1 and r > first:
        # the core reaches degree m; graded lex puts the lex-largest first
        top = tab.alphas[first]
        raise ValueError(
            f"rank {r} is too large for n={n}, m={m}: the border monomial "
            f"{(top[0] + 1, *top[1:])} has degree {m + 1} > m")
    # slot[i, nu] of core[nu] + e_i, which lands in the core or the border
    slot = tab.sum_slots(r, n)[:, 1:].T
    border_slots = np.unique(slot[slot >= r])
    template = np.zeros((nbar, r, r), dtype=complex)
    i, nu = np.nonzero(slot < r)
    template[i, slot[i, nu], nu] = 1.0
    i, nu = np.nonzero(slot >= r)
    col = np.searchsorted(border_slots, slot[i, nu])
    s = np.arange(r)
    wire_flat = (((i[:, None] * r + s) * r + nu[:, None]).ravel(),
                 (s * border_slots.size + col[:, None]).ravel())
    for a in (template, *wire_flat):
        a.flags.writeable = False
    return MonomialBasis(
        n=n, m=m, rank=r, core=tab.alphas[:r],
        border=tuple(tab.alphas[k] for k in border_slots),
        template=template, wires=(i, nu, col), wire_flat=wire_flat)


def generating_system(F, alpha, basis):
    """The least-squares system (A, B) tying border monomials alpha to the
    core: one exponent gives a 1-D b, a (k, n-1) group of one degree gives
    one column of B per exponent."""
    alpha = np.asarray(alpha, dtype=np.int64)
    degree = np.unique(alpha.sum(axis=-1))
    if degree.size != 1:
        raise ValueError(f"border exponents {alpha.tolist()} are not of one degree")
    d = F.m - int(degree[0])
    if d < 0:
        raise ValueError(f"exponent {alpha.tolist()} exceeds degree {F.m}")
    tab = table(F.n, F.m)
    r = basis.rank
    S = tab.sum_slots(compact_size(F.n, d), np.append(np.arange(r), tab.slots(alpha)))
    # two gathers, so A and B are C-contiguous: strided views of one gather
    # move the least-squares solve's round-off
    return F.values[S[:, :r]], F.values[S[:, r] if alpha.ndim == 1 else S[:, r:]]


@dataclass(eq=False)
class GeneratingFit:
    """Minimum-norm solutions plus null-space parameterization.

    `matrix(omega)` assembles G = gls + null @ grid, where omega is the
    complex free-parameter vector (length n_params, border column by
    border column, a column's in its degree's direction order) and grid
    is Q x n_border, omega at `slots` and zeros elsewhere.  G is affine
    in omega, and so are the companion matrices; `null` and `slots` are
    that map's parts, built once per fit.  The commutator Jacobian is
    linear in the companion matrices, and `jacobian_map` is that linear
    map as a CSR triple, built on the fit's first commutator LM and kept."""
    basis: MonomialBasis
    gls: np.ndarray                 # (rank, n_border) minimum-norm solutions
    residuals: np.ndarray           # ||A g - b|| per column at omega = 0
    n_params: int
    null: np.ndarray = field(repr=False)    # (rank, Q): the degrees' null bases side by side
    slots: np.ndarray = field(repr=False)   # (n_params,): q * n_border + column per parameter

    def matrix(self, omega=None):
        if omega is None:
            return self.gls.copy()
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} free parameters, got {omega.shape}")
        if not self.n_params:
            return self.gls.copy()
        return self._assemble(
            np.zeros((self.null.shape[1], self.gls.shape[1]), dtype=complex), omega)

    def _assemble(self, grid, omega):
        """G(omega) through the caller's Q x n_border `grid`, which must be
        zero away from `slots`: omega is written at `slots`, so an LM run
        can keep one grid for all its points."""
        grid.flat[self.slots] = omega
        return self.gls + self.null @ grid

    @functools.cached_property
    def jacobian_map(self):
        """W with vec(J) = W vec(M), as the CSR triple (indptr, indices,
        data) that scipy's CSR kernel reads: J is the commutator Jacobian at
        companion matrices M, vec(J) runs down J's columns (entry (row, p)
        at p R + row, R = pairs * r^2, so W has n_params * R rows) and
        vec(M) is M.ravel() (W has (n - 1) r^2 columns).

        Parameter p with direction w = N[:, q] moves column nu of M_x by w.
        On pair k = (a, b) with other variable y, that is
        w M_y[nu, :] - (M_y w) e_nu^T for x = a and its negative for x = b,
        so J's entry (k, i, j) reads M_y[nu, j] with coefficient N[i, q],
        and for j = nu also every M_y[i, t] with coefficient -N[t, q] (signs
        flipped for x = b).  At i = j = nu the two M_y[nu, nu] coefficients
        cancel, and both are left out; no other entry repeats a (row,
        column) pair.  W's values are gathered from N and -N; its pointers
        and indices are int32 while the entries and rows fit, and int64
        otherwise."""
        basis, r, n_params = self.basis, self.basis.rank, self.n_params
        nbar, rr = basis.n - 1, r * r
        n_rows = len(_pairs(nbar)[0]) * rr
        # terms: parameter p moves column nu of M_x, on each pair (x, y)
        q, col = np.divmod(self.slots, len(basis.border))
        wire_i, wire_nu, wire_col = basis.wires
        w, p = np.nonzero(wire_col[:, None] == col)
        x = wire_i[w]
        e, y = np.nonzero(x[:, None] != np.arange(nbar))
        x, nu, p, q = x[e], wire_nu[w][e], p[e], q[p[e]]
        a, b = np.minimum(x, y), np.maximum(x, y)
        k = a * (2 * nbar - a - 1) // 2 + b - a - 1     # rank of (a, b) in `_pairs`
        signed = np.stack([self.null, -self.null])
        s = (x > y).astype(np.intp)[:, None, None]      # signed[s] is N for x = a
        nu, y, q = nu[:, None, None], y[:, None, None], q[:, None, None]
        i, j = np.arange(r)[:, None], np.arange(r)     # J's block entry; j is t below
        block = (p * n_rows + k * rr)[:, None, None] + i * r
        keep = np.broadcast_to((i != nu) | (j != nu), (x.size, r, r))
        # (row, column, value): N[i, q] M_y[nu, j] at (k, i, j), then
        # -N[t, q] M_y[i, t] at (k, i, nu)
        first = (block + j, y * rr + nu * r + j, signed[s, i, q])
        second = (block + nu, y * rr + i * r + j, signed[1 - s, j, q])
        row, column, value = (np.concatenate([np.broadcast_to(u, keep.shape)[keep],
                                              np.broadcast_to(v, keep.shape)[keep]])
                              for u, v in zip(first, second))
        # entries by row, a row's first-term entry first; int32 indices while
        # the entries and rows fit, as scipy's constructor chooses (the
        # columns, one per entry of the basis's template, would need a
        # 32 GiB template to overflow int32)
        order = np.argsort(row, kind="stable")
        index = np.int32 if max(row.size, n_params * n_rows) < 2 ** 31 else np.int64
        indptr = np.zeros(n_params * n_rows + 1, dtype=index)
        np.cumsum(np.bincount(row, minlength=n_params * n_rows), out=indptr[1:])
        return indptr, column.take(order).astype(index), value.take(order)


def fit_generating(F, basis):
    """Minimum-norm least squares for the border, one system per degree."""
    n_border = len(basis.border)
    border = np.array(basis.border, dtype=np.int64).reshape(n_border, basis.n - 1)
    degree = border.sum(axis=1)
    gls = np.empty((basis.rank, n_border), dtype=complex)
    residuals = np.empty(n_border)
    # an empty start, as a single variable's border is empty
    nulls, slots = [np.zeros((basis.rank, 0), dtype=complex)], [np.zeros(0, dtype=np.intp)]
    for d in np.unique(degree):
        cols = np.flatnonzero(degree == d)      # consecutive: the border is graded
        A, B = generating_system(F, border[cols], basis)
        X, null, _ = minnorm_lstsq(A, B)
        gls[:, cols] = X
        residuals[cols] = np.linalg.norm(A @ X - B, axis=0)
        # column c's parameters, in turn, are its degree's directions q: grid (q, c)
        q = sum(N.shape[1] for N in nulls) + np.arange(null.shape[1])
        slots.append((q * n_border + cols[:, None]).ravel())
        nulls.append(null)
    slots = np.concatenate(slots)
    return GeneratingFit(basis=basis, gls=gls, residuals=residuals, n_params=slots.size,
                         null=np.hstack(nulls), slots=slots)


def companion_matrices(G, basis):
    """One r x r multiplication matrix per variable.

    Column nu of matrix i represents x_i * x^{core[nu]}: a unit vector when
    the shifted monomial is again in the core, else the matching column of G:
    a copy of the basis's template and one flat write of G's wire columns.
    G must be rank x |border|, as the flat indices assume.
    """
    if G.shape != (basis.rank, len(basis.border)):
        raise ValueError(f"expected G of shape {(basis.rank, len(basis.border))}, "
                         f"got {G.shape}")
    into, take = basis.wire_flat
    M = basis.template.copy()
    M.reshape(-1)[into] = G.take(take)
    return M


@functools.cache
def _pairs(nbar):
    """Read-only index arrays (a, b) of the variable pairs a < b, ordered by
    a, then b; built once per variable count."""
    pairs = np.triu_indices(nbar, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def commutator_residuals(M):
    """Entries of all pairwise commutators M_i M_j - M_j M_i, i < j, stacked
    pair by pair (i, then j, ascending), each pair's r x r block row-major."""
    a, b = _pairs(M.shape[0])
    A, B = M.take(a, axis=0), M.take(b, axis=0)
    return (A @ B - B @ A).ravel()


def _commutator_jacobian(fit, M):
    """Complex Jacobian of `commutator_residuals` in the free parameters, at
    the companion matrices M = M(omega): one product of the fit's
    `jacobian_map` with vec(M) by scipy's CSR kernel, read as an
    F-contiguous (pairs * r^2) x n_params array.  The kernel checks no
    length, so M's size is checked here against W's (n - 1) r^2 columns,
    the size of the basis's template."""
    indptr, indices, data = fit.jacobian_map
    v, n_cols = M.ravel(), fit.basis.template.size
    if v.size != n_cols:
        raise ValueError(f"expected {n_cols} companion matrix entries, got {v.size}")
    J = np.zeros(indptr.size - 1, dtype=complex)
    _csr_matvec()(J.size, n_cols, indptr, indices, data, v, J)
    return J.reshape(fit.n_params, -1).T


@functools.cache
def _csr_matvec():
    """scipy's CSR matrix-vector kernel (y += W x), looked up on first use
    so that runs without free parameters never load scipy.sparse."""
    from scipy.sparse._sparsetools import csr_matvec
    return csr_matvec


def _normal_system(J, f):
    """(J^H J, J^H f) of the commutator LM: the upper triangle and diagonal
    of J^H J by one BLAS zherk, its strict lower triangle zero (the LM reads
    only the upper one), and J^H f by zgemv, neither with a conjugate copy
    of J.  With no variable pair (n = 2) J has no rows, which both routines
    reject, and the system is zero."""
    n_params = J.shape[1]
    if not J.shape[0]:
        return np.zeros((n_params, n_params), dtype=complex), np.zeros(n_params, dtype=complex)
    return zherk(1.0, J, trans=2), zgemv(1.0, J, f, trans=2)


@dataclass(eq=False)
class GeneratingOpt:
    matrix: np.ndarray          # G at the parameters found
    omega: np.ndarray           # complex free parameters (empty if none)
    objective: float            # sum of squared commutator entries
    status: str | None          # LM status, None if no parameters
    iterations: int = 0         # the LM's iterations, 0 if no parameters
    evaluations: int = 0        # the LM's residual evaluations, 0 if no parameters


def optimize_generating(fit, config=None, seed=0, start=0):
    """Minimize the total squared commutator norm over the free parameters
    by one LM run from one start.

    Each run builds its own Q x n_border grid (zero away from the fit's
    `slots`) once, so a residual costs one slot write and one matmul for
    G, a copy of the basis's template and one flat write for M and one
    batched product for `commutator_residuals`, whatever the number of
    border columns.  Nothing is kept on the fit but its `jacobian_map`,
    so callers' threads may run it on one fit at once.  The residual
    hands the LM its M as its state, and the normal system at the accepted
    point is built from that M: J is one sparse product with the fit's
    `jacobian_map` (built on the fit's first LM), and `_normal_system`
    forms J^H J's upper triangle by one Hermitian rank-k product.

    Start 0 is omega = 0; start k > 0 is a complex standard normal draw
    seeded by (seed, k).  The pipeline, not this function, chooses among
    starts, by the tensor error of a whole run from each.  With no free
    parameters the assembled G is returned with its objective evaluated.
    """
    if fit.n_params == 0:
        res = commutator_residuals(companion_matrices(fit.matrix(), fit.basis))
        return GeneratingOpt(matrix=fit.matrix(), omega=np.zeros(0, dtype=complex),
                             objective=float(np.sum(res.real ** 2 + res.imag ** 2)),
                             status=None)
    grid = np.zeros((fit.null.shape[1], fit.gls.shape[1]), dtype=complex)

    def residual(omega):
        M = companion_matrices(fit._assemble(grid, omega), fit.basis)
        return commutator_residuals(M), M

    def normal(omega, f, M):
        return _normal_system(_commutator_jacobian(fit, M), f)

    x0 = np.zeros(fit.n_params, dtype=complex)
    if start:
        rng = np.random.default_rng(seed_key(seed, int(start)))
        x0 = rng.standard_normal(fit.n_params) + 1j * rng.standard_normal(fit.n_params)
    lm = levenberg_marquardt(residual, normal, x0, config)
    return GeneratingOpt(matrix=fit.matrix(lm.x), omega=lm.x,
                         objective=lm.residual_norm ** 2, status=lm.status,
                         iterations=lm.iterations, evaluations=lm.residual_evaluations)
