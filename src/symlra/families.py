"""Built-in instance families for the `gen` subcommand and the tests.

Three families are functions of the index sum s = i_1 + ... + i_m
(1-based positions): in compact coordinates s = m + sum_j j * alpha_j.

* sin:     entry sin(s); exact rank 2 for every (n, m) since
           sin(s) = (e^{is} - e^{-is}) / 2i splits into two geometric
           rank-one terms.
* rootsum: entry sqrt(s); full-rank but with sharply decaying
           flattening spectrum, a standard low-rank approximation target.
* linear:  entry s itself; border rank 2 (a degree-1 polynomial tensor),
           the classic case whose best rank-2 approximation does not
           exist and where extracted zeros collide.

Two fixed small instances:

* ternary: a rank-4 tensor on C^3 with integer entries whose generating
           system keeps 8 free parameters (the commutator minimization
           actually has work to do).
* octet:   the sum of the 4th powers of eight integer vectors in C^4;
           it admits more than one Waring decomposition, which is what
           the distinct-solution search is for.

And `random`: `random_low_rank` passed through.
"""

import numpy as np

from .tensors import SymTensor, Decomposition, table, random_low_rank

TERNARY_VALUES = [-8, 2, 15, -7, 17, 7, 17, 4, 3, 18]   # graded lex order, n=3, m=3

OCTET_VECTORS = [
    [1, 1, 1, 1], [1, 1, 2, -3], [1, 2, -3, 1], [1, -3, 2, 1],
    [1, -1, 3, 2], [1, 2, -1, 3], [1, 3, -1, 2], [1, 1, 2, 3],
]


def _index_sums(n, m):
    tab = table(n, m)
    return m + tab.alpha_mat @ np.arange(1, n)


def sin_tensor(n=6, m=3):
    return SymTensor(n, m, np.sin(_index_sums(n, m)))


def rootsum_tensor(n=5, m=4):
    return SymTensor(n, m, np.sqrt(_index_sums(n, m)))


def linear_tensor(n=5, m=3):
    return SymTensor(n, m, _index_sums(n, m).astype(complex))


def ternary_tensor():
    return SymTensor(3, 3, TERNARY_VALUES)


def octet_decomposition():
    return Decomposition(4, np.array(OCTET_VECTORS, dtype=complex))


def octet_tensor():
    return octet_decomposition().tensor()


_SIZED = {"sin": sin_tensor, "rootsum": rootsum_tensor, "linear": linear_tensor}
_FIXED = {"ternary": ternary_tensor, "octet": octet_tensor}
FAMILIES = (*_SIZED, *_FIXED, "random")


def make_family(family, n=None, m=None, r=None, seed=0, tau=None):
    """Construct a named instance; an `n` or `m` left None takes the
    builder's default."""
    size = {key: v for key, v in (("n", n), ("m", m)) if v is not None}
    if family in _SIZED:
        return _SIZED[family](**size)
    if family in _FIXED:
        F = _FIXED[family]()
        if (size.get("n", F.n), size.get("m", F.m)) != (F.n, F.m):
            raise ValueError(f"the {family} instance is fixed at n={F.n}, m={F.m}")
        return F
    if family == "random":
        if n is None or m is None or r is None:
            raise ValueError("the random family needs --n, --m and --r")
        return random_low_rank(n, m, r, seed=seed, tau=tau)[0]
    raise ValueError(f"unknown family {family!r}")
