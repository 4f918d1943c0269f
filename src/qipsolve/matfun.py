"""Spectral calculus for symmetric matrices.

Everything downstream (trace objectives, relative-entropy derivatives,
barrier Hessians) is built from the pieces in this module: spectral
decompositions, scalar generators with analytic first/second derivatives,
first and second divided differences, the vec utilities that tie
matrix equations to their vectorized form, and the svec layout in which
every Hessian is assembled.

Conventions used throughout the package:

* ``vec`` stacks columns, so ``vec(A X B) == np.kron(B, A) @ vec(X)`` for
  symmetric ``B``.
* ``svec`` keeps the n(n+1)/2 upper-triangle entries of a symmetric
  matrix, row by row, off-diagonal ones scaled by sqrt(2), so that
  <A, B> = svec(A) . svec(B). Gradients are vec; Hessians are d x d
  matrices on svec coordinates, H @ svec(xi) == svec(D^2 f[xi]).
* Eigenvalues are returned in descending order.
* Eigenvalue pairs closer than ``CONFLUENCE_RTOL`` (relative) take the
  derivative/limit branch of the divided differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenfactorization X = U diag(lam) U.T with lam descending."""

    U: np.ndarray
    lam: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return symmetrize((self.U * self.lam) @ self.U.T)


def spectral_decompose(x: np.ndarray) -> SpectralDecomp:
    """Eigendecompose a symmetric matrix, eigenvalues descending."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidMatrix("matrix has non-finite entries")
    try:
        lam, u = np.linalg.eigh(symmetrize(x))
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
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
    if lam.size == 0 or np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainViolation("generator arguments must be strictly positive")
    return lam


def _conf_scale(a, b):
    return np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def divided_diff_1(gen: ScalarGenerator, lam) -> np.ndarray:
    """First divided difference matrix [g^[1](lam_i, lam_j)]_{ij}.

    Off the confluence region the entry is (g(a) - g(b)) / (a - b); pairs
    within CONFLUENCE_RTOL use g'((a + b) / 2), which keeps the matrix
    exactly symmetric.
    """
    lam = _check_positive(lam)
    a = lam[:, None]
    b = lam[None, :]
    diff = a - b
    conf = np.abs(diff) <= CONFLUENCE_RTOL * _conf_scale(a, b)
    safe = np.where(conf, 1.0, diff)
    ga = gen.g(lam)
    quotient = (ga[:, None] - ga[None, :]) / safe
    return np.where(conf, gen.dg(0.5 * (a + b)), quotient)


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


def second_divided_diff_tensor(gen: ScalarGenerator, lam, *, f1: np.ndarray) -> np.ndarray:
    """Dense tensor G[i, j, k] = g^[2](lam_i, lam_j, lam_k), vectorized.

    Used by the Hessian assembly; exactly symmetric in the last two
    indices by construction. The recurrence differences the first
    divided-difference matrix ``f1 = divided_diff_1(gen, lam)``, which
    every caller already holds, over the (j, k) pair. The limit branches,
    for a confluent (j, k) pair or a confluent triple, are evaluated on
    the confluent pairs only, entry by entry as the dense formulas would.
    """
    lam = _check_positive(lam)

    lj = lam[:, None]
    lk = lam[None, :]
    djk = lj - lk
    sep_jk = np.abs(djk) > CONFLUENCE_RTOL * _conf_scale(lj, lk)
    safe_jk = np.where(sep_jk, djk, 1.0)
    out = (f1[:, :, None] - f1[:, None, :]) / safe_jk

    # confluent (j, k) pair: d/dmu g^[1](lam_i, mu) at mu = (lam_j+lam_k)/2
    j, k = np.nonzero(~sep_jk)
    li = lam[:, None]
    mu = 0.5 * (lam[j] + lam[k])[None, :]
    dimu = li - mu
    sep_imu = np.abs(dimu) > CONFLUENCE_RTOL * _conf_scale(li, mu)
    safe_imu = np.where(sep_imu, dimu, 1.0)
    h1_imu = (gen.g(lam)[:, None] - gen.g(mu)) / safe_imu
    pairwise = (h1_imu - gen.dg(mu)) / safe_imu
    triple = 0.5 * gen.d2g((li + lam[j] + lam[k]) / 3.0)
    out[:, j, k] = np.where(sep_imu, pairwise, triple)
    return out


# ---------------------------------------------------------------------------
# spectral functional calculus
# ---------------------------------------------------------------------------

def apply_matrix_function(gen: ScalarGenerator, x: np.ndarray) -> np.ndarray:
    """g(X) = U diag(g(lam)) U.T for positive definite X."""
    dec = spectral_decompose(x)
    if np.any(dec.lam <= 0.0):
        raise DomainViolation("matrix function requires a positive definite argument")
    return symmetrize((dec.U * gen.g(dec.lam)) @ dec.U.T)


# ---------------------------------------------------------------------------
# vectorization, symmetric coordinates
# ---------------------------------------------------------------------------

def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A) = [a11 .. an1 a12 ..]."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of vec; defaults to a square matrix."""
    v = np.asarray(v, dtype=float)
    cols = rows if cols is None else cols
    if v.size != rows * cols:
        raise ShapeError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


@dataclass(frozen=True)
class SvecLayout:
    """Index tables of svec for one matrix order n.

    svec coordinate a is entry (rows[a], cols[a]) with rows <= cols, in
    row-major upper-triangle order; ``upper``/``lower`` are the vec
    (column-major) indices of that entry and of its mirror, and
    ``weight`` is 1 on the diagonal and sqrt(2) off it. Column a of the
    isometry P : svec -> vec is (e_upper + e_lower) * weight / 2.
    """

    rows: np.ndarray
    cols: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    weight: np.ndarray


@functools.lru_cache(maxsize=None)
def svec_layout(n: int) -> SvecLayout:
    """The svec index tables of order n, built once per order."""
    rows, cols = np.triu_indices(n)
    tables = (rows, cols, rows + cols * n, cols + rows * n,
              np.where(rows == cols, 1.0, math.sqrt(2.0)))
    for t in tables:
        t.flags.writeable = False
    return SvecLayout(*tables)


def svec(a: np.ndarray) -> np.ndarray:
    """svec coordinates of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    lay = svec_layout(a.shape[0])
    return a[lay.rows, lay.cols] * lay.weight


def unsvec(p: np.ndarray) -> np.ndarray:
    """Symmetric matrix of svec coordinates."""
    p = np.asarray(p, dtype=float)
    n = (math.isqrt(8 * p.size + 1) - 1) // 2
    if n * (n + 1) // 2 != p.size:
        raise ShapeError(f"length {p.size} is not n(n+1)/2 for any order n")
    lay = svec_layout(n)
    out = np.empty((n, n))
    out[lay.rows, lay.cols] = out[lay.cols, lay.rows] = p / lay.weight
    return out
