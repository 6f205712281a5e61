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
arrays (M(omega) is one fancy-index write of G's columns over the unit
columns).  The commutator residual is one batched product over the pairs
i < j, and its Jacobian one write per side of a pair: each entry's r x r
block goes to J[pair, :, :, parameter], from (pair, core slot, parameter,
direction, other variable) index arrays built with the fit.
`optimize_generating` runs one LM from one start; the pipeline picks starts.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensors import compact_size, table
from .numerics import levenberg_marquardt, minnorm_lstsq, seed_key


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    n: int
    m: int
    rank: int
    core: tuple                 # first `rank` exponents, graded lex
    border: tuple               # multiplicative border of the core, graded lex
    # companion wiring as index arrays: shifting core slot nu by e_i lands
    # either on core slot `target` (column nu of M_i is a unit vector) or on
    # border monomial `col` (column nu of M_i is column col of G); a border
    # monomial is core[nu] + e_i for at most one nu per variable i
    units: tuple = field(repr=False)    # (i, nu, target)
    wires: tuple = field(repr=False)    # (i, nu, col)


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
    # shifted[nu, i] = core[nu] + e_i, which lands in the core or the border
    shifted = tab.alpha_mat[:r, None, :] + np.eye(nbar, dtype=np.int64)
    too_deep = shifted[shifted.sum(axis=-1) > m].tolist()
    if too_deep:
        # all of degree m + 1, where graded lex puts the lex-largest first
        raise ValueError(
            f"rank {r} is too large for n={n}, m={m}: the border monomial "
            f"{tuple(max(too_deep))} has degree {m + 1} > m")
    slot = tab.slots(shifted).T                  # slot[i, nu]
    border_slots = np.unique(slot[slot >= r])
    unit_i, unit_nu = np.nonzero(slot < r)
    wire_i, wire_nu = np.nonzero(slot >= r)
    return MonomialBasis(
        n=n, m=m, rank=r, core=tab.alphas[:r],
        border=tuple(tab.alphas[k] for k in border_slots),
        units=(unit_i, unit_nu, slot[unit_i, unit_nu]),
        wires=(wire_i, wire_nu,
               np.searchsorted(border_slots, slot[wire_i, wire_nu])))


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
    in omega, and so are the companion matrices; `null`, `slots` and
    `sides` are that map's parts, built once per fit, so the commutator
    Jacobian is one (pair, parameter) block write per side of a pair."""
    basis: MonomialBasis
    gls: np.ndarray                 # (rank, n_border) minimum-norm solutions
    residuals: np.ndarray           # ||A g - b|| per column at omega = 0
    n_params: int
    null: np.ndarray = field(repr=False)    # (rank, Q): the degrees' null bases side by side
    slots: np.ndarray = field(repr=False)   # (n_params,): q * n_border + column per parameter
    sides: tuple = field(repr=False)        # `_jacobian_sides`: (k, nu, p, q, y) per side

    def matrix(self, omega=None):
        if omega is None or not self.n_params:
            return self.gls.copy()
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} free parameters, got {omega.shape}")
        grid = np.zeros((self.null.shape[1], self.gls.shape[1]), dtype=complex)
        grid.flat[self.slots] = omega
        return self.gls + self.null @ grid


def _jacobian_sides(basis, slots):
    """Index arrays of `_commutator_jacobian`, one (k, nu, p, q, y) tuple
    per side of a pair (a, b), a < b.  Entry l: parameter p, direction q,
    moves column nu of M_x (x = a on the first side, x = b on the second)
    and enters pair k, whose other matrix is M_y.  Parameter p sits at
    grid slot (q, col) and moves every wire to border column col."""
    nbar = basis.n - 1
    q, col = np.divmod(slots, len(basis.border))
    wire_i, wire_nu, wire_col = basis.wires
    w, p = np.nonzero(wire_col[:, None] == col)
    x = wire_i[w]
    e, y = np.nonzero(x[:, None] != np.arange(nbar))
    x, nu, p, q = x[e], wire_nu[w][e], p[e], q[p[e]]
    a, b = np.minimum(x, y), np.maximum(x, y)
    k = a * (2 * nbar - a - 1) // 2 + b - a - 1     # rank of (a, b) in `_pairs`
    return tuple((k[side], nu[side], p[side], q[side], y[side]) for side in (x < y, x > y))


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
                         null=np.hstack(nulls), slots=slots,
                         sides=_jacobian_sides(basis, slots))


def companion_matrices(G, basis):
    """One r x r multiplication matrix per variable.

    Column nu of matrix i represents x_i * x^{core[nu]}: a unit vector when
    the shifted monomial is again in the core, else the matching column of G.
    """
    r = basis.rank
    M = np.zeros((basis.n - 1, r, r), dtype=complex)
    i, nu, target = basis.units
    M[i, target, nu] = 1.0
    i, nu, col = basis.wires
    M[i, :, nu] = G[:, col].T
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
    A, B = M[a], M[b]
    return (A @ B - B @ A).ravel()


def _commutator_jacobian(fit, M):
    """Complex Jacobian of `commutator_residuals` in the free parameters, at
    the companion matrices M = M(omega).

    Parameter p with direction w = N[:, q] moves column nu of M_x by w, i.e.
    dM_x = w e_nu^T.  On pair (a, b) that gives w M_b[nu, :] - (M_b w) e_nu^T
    when x = a and the negative of w M_a[nu, :] - (M_a w) e_nu^T when x = b:
    per side, the outer products less the M_y N columns, written as r x r
    blocks J[k, :, :, p] of a (pairs, r, r, P) array through the fit's
    (pair, parameter) indices.  A border column feeds at most one nu per
    variable, so no side repeats a (k, p) pair; the two sides can share
    blocks, so the first is written and the second subtracted from it."""
    r, P = M.shape[1], fit.n_params
    N = fit.null
    MN = M @ N

    def blocks(nu, q, y):
        # w M_y[nu, :] - (M_y w) e_nu^T for each entry's direction w = N[:, q]
        D = N.T[q][:, :, None] * M[y, nu][:, None, :]
        D[np.arange(q.size), :, nu] -= MN[y, :, q]
        return D

    npairs = M.shape[0] * (M.shape[0] - 1) // 2
    J = np.zeros((npairs, r, r, P), dtype=complex)
    (k, nu, p, q, y), (k2, nu2, p2, q2, y2) = fit.sides
    J[k, :, :, p] = blocks(nu, q, y)
    J[k2, :, :, p2] -= blocks(nu2, q2, y2)
    return J.reshape(npairs * r * r, P)


@dataclass(eq=False)
class GeneratingOpt:
    matrix: np.ndarray          # G at the parameters found
    omega: np.ndarray           # complex free parameters (empty if none)
    objective: float            # sum of squared commutator entries
    status: str | None          # LM status, None if no parameters


def optimize_generating(fit, config=None, seed=0, start=0):
    """Minimize the total squared commutator norm over the free parameters
    by one LM run from one start.

    The residual at omega is `commutator_residuals` of the companion
    matrices of `fit.matrix(omega)`, and its Jacobian comes from the fit's
    affine map (`_commutator_jacobian`), so an LM step does one grid write
    and one matmul for G, one index write for M and a few scatters for J,
    whatever the number of border columns; the normal system reuses the M
    the residual built at the point the LM accepted.

    Start 0 is omega = 0; start k > 0 is a complex standard normal draw
    seeded by (seed, k).  The pipeline, not this function, chooses among
    starts, by the tensor error of a whole run from each.  With no free
    parameters the assembled G is returned with its objective evaluated.
    """
    basis = fit.basis
    last = [None, None]     # the residual's latest point and its M

    def residual(omega):
        M = companion_matrices(fit.matrix(omega), basis)
        last[:] = omega, M
        return commutator_residuals(M)

    if fit.n_params == 0:
        res = residual(None)
        return GeneratingOpt(matrix=fit.matrix(), omega=np.zeros(0, dtype=complex),
                             objective=float(np.sum(res.real ** 2 + res.imag ** 2)),
                             status=None)

    def normal(omega, f):
        M = (last[1] if last[0] is omega
             else companion_matrices(fit.matrix(omega), basis))
        J = _commutator_jacobian(fit, M)
        Jh = J.conj().T
        return Jh @ J, Jh @ f

    x0 = np.zeros(fit.n_params, dtype=complex)
    if start:
        rng = np.random.default_rng(seed_key(seed, int(start)))
        x0 = rng.standard_normal(fit.n_params) + 1j * rng.standard_normal(fit.n_params)
    lm = levenberg_marquardt(residual, normal, x0, config)
    return GeneratingOpt(matrix=fit.matrix(lm.x), omega=lm.x,
                         objective=lm.residual_norm ** 2, status=lm.status)
