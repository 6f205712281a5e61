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
parameters omega.  Each fit keeps that map as arrays built once: the
stacked null directions and a 0/1 placement of each parameter in its
border column (G(omega) is one matmul), and the companion wiring of the
basis as (variable, core slot, border column) index arrays (M(omega) is
one fancy-index write of G's columns over the unit columns).  The
commutator residual is one batched product over the pairs i < j, and its
Jacobian is scattered from precomputed indices, with no loop over feeds.
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

    `matrix(omega)` assembles G = gls + (null-space directions) * omega,
    where omega is the complex free-parameter vector (length n_params,
    border column by border column).  G is affine in omega, and so are
    the companion matrices; `directions`, `placement` and `sides` are that
    affine map's parts, built once per fit: G(omega) is one matmul and the
    commutator Jacobian one scatter per side of a variable pair."""
    basis: MonomialBasis
    gls: np.ndarray                 # (rank, n_border) minimum-norm solutions
    residuals: np.ndarray           # ||A g - b|| per column at omega = 0
    n_params: int
    directions: np.ndarray = field(repr=False)  # (rank, n_params): each column's null basis
    placement: np.ndarray = field(repr=False)   # (n_params, n_border): 1 at each parameter's column
    sides: tuple = field(repr=False)            # `_commutator_jacobian`'s scatter indices

    def matrix(self, omega=None):
        if omega is None or not self.n_params:
            return self.gls.copy()
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} free parameters, got {omega.shape}")
        return self.gls + (self.directions * omega) @ self.placement


def _jacobian_sides(basis, param_col):
    """Scatter indices of `_commutator_jacobian`, one (rows, nu, p, y) tuple
    of arrays per side of a pair (a, b), a < b.  Entry l: parameter p moves
    column nu of M_x (x = a on the first side, x = b on the second) and
    enters pair k, whose other matrix is M_y; rows[l] holds the flat
    positions (k r^2 + s r + t) P + p of its r x r block in J.  Parameter p
    lies in border column param_col[p] and moves every wire to it."""
    nbar, r, n_params = basis.n - 1, basis.rank, param_col.size
    wire_i, wire_nu, wire_col = basis.wires
    w, p = np.nonzero(wire_col[:, None] == param_col)
    x = wire_i[w]
    e, y = np.nonzero(x[:, None] != np.arange(nbar))
    pair = np.zeros((nbar, nbar), dtype=np.intp)
    a, b = _pairs(nbar)
    pair[a, b] = pair[b, a] = np.arange(a.size)
    x, nu, p = x[e], wire_nu[w][e], p[e]
    rows = (pair[x, y][:, None] * r * r + np.arange(r * r)) * n_params + p[:, None]
    return tuple((rows[side].ravel(), nu[side], p[side], y[side])
                 for side in (x < y, x > y))


def fit_generating(F, basis):
    """Minimum-norm least squares for the border, one system per degree."""
    n_border = len(basis.border)
    border = np.array(basis.border, dtype=np.int64).reshape(n_border, basis.n - 1)
    degree = border.sum(axis=1)
    gls = np.empty((basis.rank, n_border), dtype=complex)
    residuals = np.empty(n_border)
    n_free = np.zeros(n_border, dtype=np.intp)
    nulls = {}
    for d in np.unique(degree):
        cols = degree == d
        A, B = generating_system(F, border[cols], basis)
        X, nulls[d], _ = minnorm_lstsq(A, B)
        gls[:, cols] = X
        residuals[cols] = np.linalg.norm(A @ X - B, axis=0)
        n_free[cols] = nulls[d].shape[1]
    # parameters run column by column; a column's are its degree's null basis
    param_col = np.repeat(np.arange(n_border), n_free)
    directions = np.empty((basis.rank, param_col.size), dtype=complex)
    for d, null in nulls.items():
        directions[:, degree[param_col] == d] = np.tile(null, np.sum(degree == d))
    placement = np.zeros((param_col.size, n_border), dtype=complex)
    placement[np.arange(param_col.size), param_col] = 1.0
    return GeneratingFit(basis=basis, gls=gls, residuals=residuals,
                         n_params=param_col.size, directions=directions,
                         placement=placement,
                         sides=_jacobian_sides(basis, param_col))


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

    Parameter p with direction w moves column nu of M_x by w, i.e.
    dM_x = w e_nu^T.  On pair (a, b) that gives w M_b[nu, :] - (M_b w) e_nu^T
    when x = a and the negative of w M_a[nu, :] - (M_a w) e_nu^T when x = b:
    per side, the outer products less the M_y W columns, scattered at once
    through the fit's flat indices.  A border column feeds at most one nu per
    variable, so no side repeats an index; the two sides can share entries,
    so the first is written and the second subtracted from it."""
    r, P = fit.directions.shape
    W = fit.directions
    MW = M @ W

    def blocks(nu, p, y):
        # w M_y[nu, :] - (M_y w) e_nu^T for each entry's direction w
        D = W.T[p][:, :, None] * M[y, nu][:, None, :]
        D[np.arange(p.size), :, nu] -= MW[y, :, p]
        return D.ravel()

    npairs = M.shape[0] * (M.shape[0] - 1) // 2
    J = np.zeros(npairs * r * r * P, dtype=complex)
    (rows_a, *first), (rows_b, *second) = fit.sides
    J[rows_a] = blocks(*first)
    J[rows_b] -= blocks(*second)
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
    affine map (`_commutator_jacobian`), so an LM step does one matmul for
    G, one index write for M and a few scatters for J, whatever the
    number of border columns; the normal system reuses the M the residual
    built at the point the LM accepted.

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
