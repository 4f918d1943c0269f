"""Linear operators between symmetric-matrix spaces.

Two concrete kinds are provided: Kraus-form maps X -> sum_j K_j X K_j.T
(the channel-like operators of the key-distribution problem) and the
partial transpose, which is linear but not completely positive and is
therefore represented structurally rather than by Kraus factors.

Both expose the same small surface: ``apply``, ``adjoint_apply`` and
``congruence_batch``, which the Hessian assembly reads. For an order-k
eigenbasis O of a map output it returns V[c] = O.T L(E_c) O for every
svec basis matrix E_c = (w_c/2)(e_a e_b.T + e_b e_a.T) (see ``matfun``),
from the map's own structure:

* Kraus map: with Ktil_t = O.T K_t and ktil_{t,a} its column a,
  V[c] = (w_c/2) sum_t (ktil_{t,a} ktil_{t,b}.T + ktil_{t,b} ktil_{t,a}.T),
  one batched product over both orders and the Kraus rank r: 2r k^2
  multiply-adds per svec coordinate, against 2 k^3 for
  congruence-transforming a column of the dense map matrix.
* Partial transpose: it sends E_c to the basis matrix E_pi(c) of the
  same weight, so V is the identity map's batch (K = O.T) with its svec
  index permuted by pi, built directly on the permuted index pairs.

``vectorized_matrix``, the dense k^2 x n^2 matrix M with
vec(apply(X)) == M @ vec(X), stays only for tests and the benchmark's
tracer; nothing in the solver reads it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError, ValidationError
from .matfun import svec_layout, symmetrize, vec


def _svec_congruence(ktil: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     weight: np.ndarray) -> np.ndarray:
    """V[c] = (w_c/2) sum_t (ktil[a, :, t] ktil[b, :, t].T + transpose), (a, b) = (rows[c], cols[c]).

    ``ktil`` holds the columns of the factors Ktil_t = O.T K_t as an
    (n, k, r) array, ktil[a, :, t] = Ktil_t[:, a]. Both orders of each
    pair go into one batched product of inner size 2r, [A B] [B A].T,
    shaped (len(rows), k, k).
    """
    a, b = ktil[rows], ktil[cols]
    g = np.concatenate([a, b], axis=2) @ np.concatenate([b, a], axis=2).transpose(0, 2, 1)
    g *= (0.5 * weight)[:, None, None]
    return g


class KrausMap:
    """X -> sum_j K_j X K_j.T with real k x n factors K_j."""

    def __init__(self, factors):
        mats = [np.asarray(k, dtype=float) for k in factors]
        if not mats:
            raise ShapeError("a Kraus map needs at least one factor")
        shape = mats[0].shape
        if len(shape) != 2:
            raise ShapeError("Kraus factors must be 2-D matrices")
        for k in mats:
            if k.shape != shape:
                raise ShapeError(f"Kraus factor shapes differ: {k.shape} vs {shape}")
            if not np.all(np.isfinite(k)):
                raise ShapeError("Kraus factor has non-finite entries")
        self.factors = mats
        self.out_order, self.in_order = shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.in_order, self.in_order):
            raise ShapeError(
                f"map expects a {self.in_order}x{self.in_order} input, got {x.shape}"
            )
        out = np.zeros((self.out_order, self.out_order))
        for k in self.factors:
            out += k @ x @ k.T
        return symmetrize(out)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.out_order, self.out_order):
            raise ShapeError(
                f"adjoint expects a {self.out_order}x{self.out_order} input, got {y.shape}"
            )
        out = np.zeros((self.in_order, self.in_order))
        for k in self.factors:
            out += k.T @ y @ k
        return symmetrize(out)

    def congruence_batch(self, o: np.ndarray) -> np.ndarray:
        """V[c] = O.T L(E_c) O for every svec basis matrix E_c, shaped (d, k, k)."""
        n = self.in_order
        # O.T [K_1 ... K_r], one k x rn product
        ktil = (o.T @ np.hstack(self.factors)).reshape(self.out_order, len(self.factors), n)
        lay = svec_layout(n)
        return _svec_congruence(ktil.transpose(2, 0, 1), lay.rows, lay.cols, lay.weight)

    def vectorized_matrix(self) -> np.ndarray:
        """Dense k^2 x n^2 matrix sum_j K_j (x) K_j (column-stacking vec)."""
        m = np.zeros((self.out_order**2, self.in_order**2))
        for k in self.factors:
            m += np.kron(k, k)
        return m

    def trace_contraction_defect(self) -> float:
        """max eigenvalue of sum K_j.T K_j - I (<= 0 means trace-contractive)."""
        gram = sum(k.T @ k for k in self.factors)
        return float(np.linalg.eigvalsh(symmetrize(gram)).max() - 1.0)


def identity_map(n: int) -> KrausMap:
    return KrausMap([np.eye(n)])


def pinching_map(projectors, tol: float = 1e-10) -> KrausMap:
    """Kraus map from orthogonal projectors Z_k with sum_k Z_k = I.

    The constructor enforces Z_k = Z_k.T, Z_k^2 = Z_k and the resolution
    of identity, each to ``tol``.
    """
    mats = [np.asarray(z, dtype=float) for z in projectors]
    if not mats:
        raise ValidationError("pinching needs at least one projector")
    n = mats[0].shape[0]
    total = np.zeros((n, n))
    for z in mats:
        if z.shape != (n, n):
            raise ShapeError("pinching projectors must share one square shape")
        if np.abs(z - z.T).max() > tol:
            raise ValidationError("pinching projector is not symmetric")
        if np.abs(z @ z - z).max() > tol:
            raise ValidationError("pinching projector is not idempotent")
        total += z
    if np.abs(total - np.eye(n)).max() > tol:
        raise ValidationError("pinching projectors do not sum to the identity")
    return KrausMap(mats)


def compose(outer: KrausMap, inner: KrausMap) -> KrausMap:
    """Kraus map of the composition outer(inner(X))."""
    if inner.out_order != outer.in_order:
        raise ShapeError("composition dimension mismatch")
    return KrausMap([zo @ ki for zo in outer.factors for ki in inner.factors])


class PartialTranspose:
    """Transpose on the second tensor factor of an (n1*n2)-dim space.

    On the n1 x n1 block structure with n2 x n2 blocks X_ab, the map sends
    X_ab -> X_ab.T. It is linear, trace preserving, self-adjoint and an
    involution, but not completely positive, so it never appears as a
    Kraus map; it only enters as a constraint map.
    """

    def __init__(self, n1: int, n2: int):
        if n1 < 1 or n2 < 1:
            raise ShapeError("subsystem dimensions must be positive")
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.in_order = self.out_order = self.n1 * self.n2

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.in_order
        if x.shape != (n, n):
            raise ShapeError(f"partial transpose expects {n}x{n}, got {x.shape}")
        blocks = x.reshape(self.n1, self.n2, self.n1, self.n2)
        return blocks.transpose(0, 3, 2, 1).reshape(n, n).copy()

    # The partial transpose is self-adjoint under the trace inner product.
    adjoint_apply = apply

    def congruence_batch(self, o: np.ndarray) -> np.ndarray:
        """V[c] = O.T L(E_c) O = O.T E_pi(c) O for every svec basis matrix E_c."""
        rows, cols = _partial_transpose_pairs(self.n1, self.n2)
        # the identity's single factor: Ktil = O.T, whose column a is row a of O
        return _svec_congruence(o[:, :, None], rows, cols, svec_layout(self.in_order).weight)

    def vectorized_matrix(self) -> np.ndarray:
        n = self.in_order
        m = np.zeros((n * n, n * n))
        for col in range(n * n):
            e = np.zeros(n * n)
            e[col] = 1.0
            m[:, col] = vec(self.apply(e.reshape((n, n), order="F")))
        return m


@functools.lru_cache(maxsize=None)
def _partial_transpose_pairs(n1: int, n2: int):
    """Index pair (a', b') of E_pi(c) for each svec coordinate c = (a, b).

    With a = (a1, a2) and b = (b1, b2) in the (n1, n2) factor indices, the
    partial transpose sends e_a e_b.T to e_(a1, b2) e_(b1, a2).T; the pair
    is diagonal exactly when (a, b) is, so the svec weight is unchanged.
    """
    lay = svec_layout(n1 * n2)
    a1, a2 = np.divmod(lay.rows, n2)
    b1, b2 = np.divmod(lay.cols, n2)
    pairs = (a1 * n2 + b2, b1 * n2 + a2)
    for t in pairs:
        t.flags.writeable = False
    return pairs


def partial_transpose_map(n1: int, n2: int) -> PartialTranspose:
    return PartialTranspose(n1, n2)
