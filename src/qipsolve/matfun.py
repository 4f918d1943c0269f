"""Spectral calculus for symmetric matrices.

Everything downstream (trace objectives, relative-entropy derivatives,
barrier Hessians) is built from the pieces in this module: spectral
decompositions, scalar generators with analytic first/second derivatives,
first and second divided differences, the column-stacking ``vec`` that
ties matrix equations to their vectorized form, and the svec coordinates
in which every gradient, constraint row and Hessian is expressed.

Conventions used throughout the package:

* ``vec`` stacks columns, so ``vec(A X B) == np.kron(B, A) @ vec(X)`` for
  symmetric ``B``, and Diag(A) is the diagonal matrix of vec(A).
* ``svec`` keeps the n(n+1)/2 upper-triangle entries of a symmetric
  matrix, row by row, off-diagonal ones scaled by sqrt(2), so that
  <A, B> = svec(A) . svec(B). Gradients and constraint rows are svec
  vectors, Hessians d x d matrices on svec coordinates:
  g @ svec(xi) == Df[xi] and H @ svec(xi) == svec(D^2 f[xi]).
* Eigenvalues are returned in descending order. ``spectral_decompose``
  calls LAPACK's divide-and-conquer ``dsyevd`` on the lower triangle
  through ``scipy.linalg.lapack``, the routine and triangle that
  ``np.linalg.eigh`` calls, with less per-call overhead.
* Eigenvalue pairs closer than ``CONFLUENCE_RTOL`` (relative) take the
  derivative/limit branch of the divided differences. Both divided
  differences take a spectrum's ``PairTable`` (``pair_table``): the
  checked eigenvalues, their differences and the confluent pairs. A
  Hessian evaluation builds one per spectrum and hands it to both, so
  the module keeps no state between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import DecompositionFailure, DomainViolation, InvalidMatrix, ShapeError

# Relative eigenvalue-gap threshold below which divided differences switch
# to their confluent (derivative) branch.
CONFLUENCE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# symmetric-matrix helpers
# ---------------------------------------------------------------------------

def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part 0.5*(A + A.T)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product <A, B> = Tr(A B) for symmetric A, B."""
    return float(np.tensordot(a, b))


@dataclass(frozen=True, eq=False)
class SpectralDecomp:
    """Eigenfactorization X = U diag(lam) U.T with lam descending."""

    U: np.ndarray
    lam: np.ndarray


def spectral_decompose(x: np.ndarray) -> SpectralDecomp:
    """Eigendecompose a symmetric matrix, eigenvalues descending."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"spectral_decompose needs a square matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidMatrix("matrix has non-finite entries")
    # exactly symmetric, so its transpose is the same matrix in Fortran
    # order, which dsyevd overwrites with the eigenvectors without a copy;
    # 0.5 (X + X.T) formed in place, the bits of ``symmetrize``
    s = x + x.T
    s *= 0.5
    lam, u, info = lapack.dsyevd(s.T, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise DecompositionFailure(f"eigendecomposition failed (dsyevd info {info})")
    return SpectralDecomp(U=u[:, ::-1].copy(), lam=lam[::-1].copy())


# ---------------------------------------------------------------------------
# scalar generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarGenerator:
    """A scalar function on (0, inf) with analytic first/second derivatives.

    The shipped kinds (neg_log, inverse, neg_sqrt, neg_power) are all
    matrix anti-monotone and convex, which is what the compatibility
    theory behind the solver requires. The callables must accept numpy
    arrays.
    """

    kind: str
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    d2g: Callable[[np.ndarray], np.ndarray]
    alpha: float | None = None


NEG_LOG = ScalarGenerator(
    "neg_log",
    g=lambda t: -np.log(t),
    dg=lambda t: -1.0 / t,
    d2g=lambda t: 1.0 / t**2,
)

INVERSE = ScalarGenerator(
    "inverse",
    g=lambda t: 1.0 / t,
    dg=lambda t: -1.0 / t**2,
    d2g=lambda t: 2.0 / t**3,
)

NEG_SQRT = ScalarGenerator(
    "neg_sqrt",
    g=lambda t: -np.sqrt(t),
    dg=lambda t: -0.5 / np.sqrt(t),
    d2g=lambda t: 0.25 * t**-1.5,
)


def neg_power(alpha: float) -> ScalarGenerator:
    """Generator t -> -t**alpha for 0 < alpha < 1 (matrix anti-monotone)."""
    if not 0.0 < alpha < 1.0:
        raise DomainViolation(f"neg_power exponent must lie in (0, 1), got {alpha}")
    return ScalarGenerator(
        "neg_power",
        g=lambda t: -(t**alpha),
        dg=lambda t: -alpha * t ** (alpha - 1.0),
        d2g=lambda t: alpha * (1.0 - alpha) * t ** (alpha - 2.0),
        alpha=alpha,
    )


# Plain log: not anti-monotone, used internally by the relative-entropy code.
LOG = ScalarGenerator(
    "log",
    g=np.log,
    dg=lambda t: 1.0 / t,
    d2g=lambda t: -1.0 / t**2,
)


def generator_from_name(name: str, alpha: float | None = None) -> ScalarGenerator:
    """Look up one of the four shipped anti-monotone generators by name."""
    table = {"neg_log": NEG_LOG, "inverse": INVERSE, "neg_sqrt": NEG_SQRT}
    if name in table:
        return table[name]
    if name == "neg_power":
        if alpha is None:
            raise DomainViolation("neg_power generator needs an alpha")
        return neg_power(alpha)
    raise DomainViolation(f"unknown generator kind {name!r}")


def _check_positive(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    # min() is NaN when an entry is, and NaN > 0 is false; max() catches +inf
    if lam.size == 0 or not lam.min() > 0.0 or not lam.max() < math.inf:
        raise DomainViolation("generator arguments must be strictly positive")
    return lam


def _confluent(a: np.ndarray, b: np.ndarray):
    """(diff, i, j): diff = [a_i - b_j] and the index pairs (i, j) that are confluent.

    A pair is confluent when |a_i - b_j| <= CONFLUENCE_RTOL * max(a_i, b_j, 1);
    a and b are positive. The divided differences take their limit
    branches on these pairs alone.
    """
    a = a[:, None]
    diff = a - b
    tol = np.maximum(a, b)
    np.maximum(tol, 1.0, out=tol)
    tol *= CONFLUENCE_RTOL
    return (diff, *(np.abs(diff) <= tol).nonzero())


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairTable:
    """The (lam, lam) confluence table of one spectrum.

    ``lam`` holds the checked eigenvalues and ``diff`` = [lam_i - lam_j]
    with 1 at the confluent pairs (j[t], k[t]): the divisor of both
    divided differences, which take their limit branches on those pairs.
    """

    lam: np.ndarray
    diff: np.ndarray
    j: np.ndarray
    k: np.ndarray


def pair_table(lam) -> PairTable:
    """Check that the eigenvalues are positive and finite, and table their pairs."""
    lam = _check_positive(lam)
    diff, j, k = _confluent(lam, lam)
    diff[j, k] = 1.0
    return PairTable(lam, diff, j, k)


def divided_diff_1(gen: ScalarGenerator, table: PairTable) -> np.ndarray:
    """First divided difference matrix [g^[1](lam_i, lam_j)]_{ij} of ``table``'s spectrum.

    Off the confluence region the entry is (g(a) - g(b)) / (a - b); pairs
    within CONFLUENCE_RTOL use g'((a + b) / 2), which keeps the matrix
    exactly symmetric.
    """
    lam, j, k = table.lam, table.j, table.k
    ga = gen.g(lam)
    out = ga[:, None] - ga
    out /= table.diff
    out[j, k] = gen.dg(0.5 * (lam[j] + lam[k]))
    return out


def _dd1_scalar(gen: ScalarGenerator, a: float, b: float) -> float:
    if abs(a - b) <= CONFLUENCE_RTOL * max(abs(a), abs(b), 1.0):
        return float(gen.dg(0.5 * (a + b)))
    return float((gen.g(a) - gen.g(b)) / (a - b))


def divided_diff_2(gen: ScalarGenerator, li: float, lj: float, lk: float) -> float:
    """Second divided difference g^[2], symmetric in its three arguments.

    Arguments are sorted before evaluation so that all six permutations
    produce bit-identical results; confluent tuples take the limit
    branches, down to g''(mean)/2 when all three coincide.
    """
    vals = sorted((float(li), float(lj), float(lk)), reverse=True)
    _check_positive(np.array(vals))
    a, b, c = vals
    ab = abs(a - b) <= CONFLUENCE_RTOL * max(a, b, 1.0)
    bc = abs(b - c) <= CONFLUENCE_RTOL * max(b, c, 1.0)
    if ab and bc:
        return float(0.5 * gen.d2g((a + b + c) / 3.0))
    if ab:
        mu = 0.5 * (a + b)
        return float((gen.dg(mu) - _dd1_scalar(gen, mu, c)) / (mu - c))
    if bc:
        mu = 0.5 * (b + c)
        return float((_dd1_scalar(gen, a, mu) - gen.dg(mu)) / (a - mu))
    return float((_dd1_scalar(gen, a, b) - _dd1_scalar(gen, b, c)) / (a - c))


def second_divided_diff_tensor(gen: ScalarGenerator, table: PairTable, *,
                               f1: np.ndarray) -> np.ndarray:
    """Dense tensor G[i, j, k] = g^[2](lam_i, lam_j, lam_k) of ``table``'s spectrum.

    Used by the Hessian assembly; exactly symmetric in the last two
    indices by construction. The recurrence differences the first
    divided-difference matrix ``f1 = divided_diff_1(gen, table)``, which
    every caller already holds, over the (j, k) pair. The limit branches,
    for a confluent (j, k) pair or a confluent triple, are evaluated on
    the confluent pairs only, entry by entry as the dense formulas would.
    """
    lam, j, k = table.lam, table.j, table.k
    out = f1[:, :, None] - f1[:, None, :]
    out /= table.diff

    # confluent (j, k) pair: d/dmu g^[1](lam_i, mu) at mu = (lam_j+lam_k)/2
    mu = 0.5 * (lam[j] + lam[k])
    dimu, i, t = _confluent(lam, mu)
    dimu[i, t] = 1.0
    block = gen.g(lam)[:, None] - gen.g(mu)
    block /= dimu
    block -= gen.dg(mu)
    block /= dimu
    # confluent triple: g''/2 at the mean of lam_i, lam_j, lam_k
    block[i, t] = 0.5 * gen.d2g((lam[i] + lam[j[t]] + lam[k[t]]) / 3.0)
    out[:, j, k] = block
    return out


# ---------------------------------------------------------------------------
# vectorization, symmetric coordinates
# ---------------------------------------------------------------------------

def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A) = [a11 .. an1 a12 ..]."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


@dataclass(frozen=True)
class SvecLayout:
    """Index tables of svec for one matrix order n.

    svec coordinate a is entry (rows[a], cols[a]) with rows <= cols, in
    row-major upper-triangle order; ``lower`` is the vec (column-major)
    index of its mirror, which is the row-major index of the entry itself,
    ``weight`` is 1 on the diagonal and sqrt(2) off it, ``diag``
    holds the n coordinates of the diagonal entries, and the n x n
    ``coord`` the coordinate of each entry (i, j), of either triangle.
    Column a of the isometry P : svec -> vec has weight / 2 at the vec
    indices of the entry and of its mirror.
    """

    rows: np.ndarray
    cols: np.ndarray
    lower: np.ndarray
    weight: np.ndarray
    diag: np.ndarray
    coord: np.ndarray


@functools.lru_cache(maxsize=None)
def svec_layout(n: int) -> SvecLayout:
    """The svec index tables of order n, built once per order."""
    rows, cols = np.triu_indices(n)
    coord = np.empty((n, n), dtype=np.intp)
    coord[rows, cols] = coord[cols, rows] = np.arange(rows.size)
    tables = (rows, cols, cols + rows * n,
              np.where(rows == cols, 1.0, math.sqrt(2.0)), np.flatnonzero(rows == cols), coord)
    for t in tables:
        t.flags.writeable = False
    return SvecLayout(*tables)


def svec(a: np.ndarray) -> np.ndarray:
    """svec coordinates of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    lay = svec_layout(a.shape[0])
    return a.take(lay.lower) * lay.weight  # lower: the row-major index of (rows, cols)


def unsvec(p: np.ndarray) -> np.ndarray:
    """Symmetric matrix of svec coordinates."""
    p = np.asarray(p, dtype=float)
    n = (math.isqrt(8 * p.size + 1) - 1) // 2
    if n * (n + 1) // 2 != p.size:
        raise ShapeError(f"length {p.size} is not n(n+1)/2 for any order n")
    lay = svec_layout(n)
    return (p / lay.weight)[lay.coord]
