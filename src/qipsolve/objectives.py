"""Value, gradient and Hessian of trace objectives and log-det barriers.

A trace objective is phi(X) = <C, g(X)> = Tr(C g(X)) for a PSD weight C
and an anti-monotone scalar generator g, optionally pre-composed with a
linear map L (phi(X) = <C, g(L(X))>). Derivatives are expressed through
divided differences in the eigenbasis:

* gradient: U (Ctil o g1(lam)) U.T with Ctil = U.T C U,
* Hessian: (U (x) U) S (U (x) U).T, where the sparse core S couples a
  diagonal-selected first term with a second term built from the tensor
  of second divided differences; off-diagonal blocks of S are diagonal.

When a map is present, gradients push through the adjoint and Hessians
are conjugated by the map's matrix restricted to symmetric inputs. A
gradient is delivered as a vec (column stacking), a Hessian as the
d x d matrix on svec coordinates, d = n(n+1)/2 (see ``matfun``): the
KKT layer solves in those coordinates, and a symmetric matrix needs no
more. Every map output is symmetric, so the congruence-batched k x k
matrices are too, and the sandwiches contract over their k(k+1)/2
svec entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, ShapeError, ValidationError
from .matfun import (
    ScalarGenerator,
    SpectralDecomp,
    divided_diff_1,
    second_divided_diff_tensor,
    spectral_decompose,
    svec_columns,
    svec_layout,
    symmetrize,
    vec,
)


@dataclass(frozen=True)
class TraceObjective:
    """Weight matrix, generator and optional pre-composition map."""

    C: np.ndarray
    gen: ScalarGenerator
    map: object | None = None  # KrausMap / PartialTranspose or None

    def __post_init__(self):
        c = symmetrize(self.C)
        if not np.all(np.isfinite(c)):
            raise ValidationError("objective weight has non-finite entries")
        if np.linalg.eigvalsh(c).min() < -1e-10:
            raise ValidationError("objective weight must be positive semidefinite")
        object.__setattr__(self, "C", c)
        if self.map is not None and self.map.out_order != c.shape[0]:
            raise ShapeError(
                "weight order must match the map output order: "
                f"{c.shape[0]} vs {self.map.out_order}"
            )

    def input_order(self) -> int:
        return self.C.shape[0] if self.map is None else self.map.in_order

    def evaluate(self, x: np.ndarray, want_hessian: bool = True) -> DerivativeBundle:
        return phi_eval(self, x, want_hessian=want_hessian)


@dataclass
class DerivativeBundle:
    """Scalar value, vec gradient and (optionally) a dense Hessian.

    The Hessian is d x d on svec coordinates, d = n(n+1)/2:
    ``hessian @ svec(xi) == svec(D^2 f(X)[xi])`` for symmetric xi.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Hessian assembly primitives (shared with the relative-entropy module)
# ---------------------------------------------------------------------------

def congruence_batch(m: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Columns of M viewed as k x k matrices, congruence-transformed by O.T.

    Returns V with V[c] = O.T unvec(M[:, c]) O, shaped (ncols, k, k).
    This realizes (O (x) O).T M without forming the k^2 x k^2 factor.
    M is a map matrix restricted to symmetric inputs (``svec_columns``),
    so each column is a symmetric matrix and its row-major reshape is
    unvec itself.
    """
    k = o.shape[0]
    return o.T @ m.T.reshape(m.shape[1], k, k) @ o


def _triu_batch(v: np.ndarray) -> np.ndarray:
    """Upper-triangle entries of each k x k matrix of a batch, (ncols, k(k+1)/2)."""
    flat = v.reshape(v.shape[0], -1)
    return flat.take(svec_layout(v.shape[1]).lower, axis=1)  # row-major index of (i, j)


def sandwich_diag(v1: np.ndarray, v2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """V1.T diag(vec(phi)) V2 for congruence-batched V1, V2 and symmetric phi.

    The batches are symmetric, so the sum over all k^2 entries is one over
    the upper triangle with the off-diagonal terms counted twice.
    """
    lay = svec_layout(phi.shape[0])
    s1 = _triu_batch(v1)
    s2 = s1 if v2 is v1 else _triu_batch(v2)
    return (s1 * (phi[lay.rows, lay.cols] * lay.weight**2)) @ s2.T


def sandwich_core(v: np.ndarray, ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """V.T S V without materializing the k^2 x k^2 core.

    [S v]_ij = sum_l Ctil_jl Gamma_ijl v_il + sum_k Ctil_ik Gamma_ijk v_kj.
    V's batches are symmetric, so only the symmetric part of each S v
    enters, and the contraction runs over the upper triangle.
    """
    lay = svec_layout(v.shape[1])
    sv = np.einsum("cil,jl,ijl->cij", v, ctil, gamma, optimize=True)
    sv += np.einsum("ip,ijp,cpj->cij", ctil, gamma, v, optimize=True)
    flat = sv.reshape(sv.shape[0], -1)
    sym = flat.take(lay.lower, axis=1)  # row-major index of (i, j)
    sym += flat.take(lay.upper, axis=1)  # and of (j, i)
    return (_triu_batch(v) * (0.5 * lay.weight**2)) @ sym.T


def phi_hessian_in_basis(u: np.ndarray, ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """P.T (U (x) U) S (U (x) U).T P, the svec Hessian, as a d x d matrix.

    S = S1 + S2 with [S1 v]_ij = sum_l Ctil_jl Gamma_ijl v_il and
    [S2 v]_ij = sum_k Ctil_ik Gamma_ijk v_kj. Gamma is symmetric in its
    three indices, so S1 is S2 conjugated by the transpose, and P.T
    absorbs the transpose: the Hessian is 2 P.T (U (x) U) S2 (U (x) U).T P.
    The full-vec entry ((a, b), (c, d)) of (U (x) U) S2 (U (x) U).T is
    sum_j U_bj U_dj K_j[a, c], K_j = U (Ctil o Gamma[:, j, :]) U.T, and
    svec entry (p, q) sums it over both orders of p's and q's index
    pairs, times w_p w_q / 2. Only the d rows of p are formed: O(n^5)
    work and no n^2 x n^2 array.
    """
    n = u.shape[0]
    lay = svec_layout(n)
    rows, cols = lay.rows, lay.cols
    cg = ctil[:, None, :] * gamma  # (i, j, k): Ctil_ik Gamma_ijk
    kmats = np.einsum("ai,ijk,ck->acj", u, cg, u, optimize=True)  # K_j[a, c]
    # f[p, c, j] = U_j1j K_j[i1, c] + U_i1j K_j[j1, c] for p = (i1, j1)
    f = u[cols][:, None, :] * kmats[rows]
    f += u[rows][:, None, :] * kmats[cols]
    # e[p, c, d]: both orders of p, one order (c, d) of q
    e = (f.reshape(-1, n) @ u.T).reshape(-1, n * n)
    out = e.take(lay.lower, axis=1)  # row-major index of (i2, j2)
    out += e.take(lay.upper, axis=1)  # and of (j2, i2)
    half = lay.weight / math.sqrt(2.0)
    out *= np.outer(half, half)
    return out


def _pd_decompose(x: np.ndarray, what: str) -> SpectralDecomp:
    dec = spectral_decompose(x)
    if dec.lam[-1] <= 0.0:
        raise DomainViolation(
            f"{what} must be positive definite (min eigenvalue {dec.lam[-1]:.3e})"
        )
    return dec


# ---------------------------------------------------------------------------
# trace objectives
# ---------------------------------------------------------------------------

def phi_eval(obj: TraceObjective, x: np.ndarray, want_hessian: bool = True) -> DerivativeBundle:
    """Evaluate Tr(C g(.)) and its derivatives at X (optionally through a map)."""
    x = np.asarray(x, dtype=float)
    if obj.map is None:
        y = x
        what = "argument"
    else:
        y = obj.map.apply(x)
        what = "map output"
    dec = _pd_decompose(y, what)
    u, lam = dec.U, dec.lam
    ctil = u.T @ obj.C @ u
    value = float(np.diag(ctil) @ obj.gen.g(lam))
    f1 = divided_diff_1(obj.gen, lam)
    grad_y = symmetrize(u @ (ctil * f1) @ u.T)

    if obj.map is None:
        grad = vec(grad_y)
        hess = None
        if want_hessian:
            gamma = second_divided_diff_tensor(obj.gen, lam)
            hess = symmetrize(phi_hessian_in_basis(u, ctil, gamma))
    else:
        grad = vec(obj.map.adjoint_apply(grad_y))
        hess = None
        if want_hessian:
            gamma = second_divided_diff_tensor(obj.gen, lam)
            v = congruence_batch(svec_columns(obj.map.vectorized_matrix()), u)
            hess = symmetrize(sandwich_core(v, ctil, gamma))
    return DerivativeBundle(value=value, gradient=grad, hessian=hess)


# ---------------------------------------------------------------------------
# log-det barriers
# ---------------------------------------------------------------------------

def barrier_eval(x: np.ndarray, want_hessian: bool = True) -> DerivativeBundle:
    """-ln det X with gradient vec(-X^-1) and Hessian X^-1 (x) X^-1.

    On svec coordinates p = (i, j), q = (k, l), with A = X^-1, the Hessian
    is (w_p w_q / 2)(A_ik A_jl + A_il A_jk), exactly symmetric.
    """
    dec = _pd_decompose(np.asarray(x, dtype=float), "barrier argument")
    u, lam = dec.U, dec.lam
    xinv = symmetrize((u / lam) @ u.T)
    value = -float(np.sum(np.log(lam)))
    hess = None
    if want_hessian:
        # a_r[:, q] = A[:, k], a_c[:, q] = A[:, l]; rows are gathered whole
        lay = svec_layout(xinv.shape[0])
        a_r = xinv[:, lay.rows]
        a_c = xinv[:, lay.cols]
        hess = a_r.take(lay.rows, axis=0)
        hess *= a_c.take(lay.cols, axis=0)
        cross = a_c.take(lay.rows, axis=0)
        cross *= a_r.take(lay.cols, axis=0)
        hess += cross
        half = lay.weight / math.sqrt(2.0)
        hess *= np.outer(half, half)
    return DerivativeBundle(value=value, gradient=vec(-xinv), hessian=hess)


def map_barrier_eval(lmap, x: np.ndarray, want_hessian: bool = True) -> DerivativeBundle:
    """-ln det L(X): gradient -L.T(Y^-1), Hessian L.T P(Y^-1) L, Y = L(X)."""
    y = lmap.apply(np.asarray(x, dtype=float))
    dec = _pd_decompose(y, "mapped barrier argument")
    o, lam = dec.U, dec.lam
    yinv = symmetrize((o / lam) @ o.T)
    value = -float(np.sum(np.log(lam)))
    grad = vec(-lmap.adjoint_apply(yinv))
    hess = None
    if want_hessian:
        d = 1.0 / lam
        v = congruence_batch(svec_columns(lmap.vectorized_matrix()), o)
        hess = symmetrize(sandwich_diag(v, v, np.outer(d, d)))
    return DerivativeBundle(value=value, gradient=grad, hessian=hess)


# ---------------------------------------------------------------------------
# composite barrier family F_beta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDetBarrier:
    """-ln det L(X) for a linear map L; ``map=None`` stands for -ln det X."""

    map: object | None = None

    def evaluate(self, x: np.ndarray, want_hessian: bool = True) -> DerivativeBundle:
        if self.map is None:
            return barrier_eval(x, want_hessian=want_hessian)
        return map_barrier_eval(self.map, x, want_hessian=want_hessian)


def evaluate_terms(terms, n_scaled: int, x: np.ndarray,
                   want_hessian: bool = True) -> list[DerivativeBundle]:
    """Unscaled bundle of every term of F_beta at X, in term order.

    The first ``n_scaled`` terms are the objective's, the rest barriers;
    each term has ``evaluate(x, want_hessian)``. A DomainViolation names
    the term that raised it.
    """
    x = np.asarray(x, dtype=float)
    parts = []
    for i, term in enumerate(terms):
        try:
            parts.append(term.evaluate(x, want_hessian=want_hessian))
        except DomainViolation as exc:
            what = f"objective term {i}" if i < n_scaled else f"barrier term {i - n_scaled}"
            raise DomainViolation(f"{what}: {exc}") from exc
    return parts


def combine_terms(beta: float, parts, n_scaled: int,
                  want_hessian: bool = True) -> DerivativeBundle:
    """beta * (the first ``n_scaled`` parts) + the remaining parts.

    Each sum starts from the first part (times beta when it is scaled)
    and adds the others in place, in term order, so the same parts and
    beta always give bit-identical results, whether the parts were just
    evaluated or kept from an earlier beta. The parts are not modified.
    """
    if beta < 0.0:
        raise DomainViolation("beta must be nonnegative")
    head = parts[0]
    if n_scaled:
        value, grad = beta * head.value, beta * head.gradient
        hess = beta * head.hessian if want_hessian else None
    else:
        value, grad = head.value, head.gradient.copy()
        hess = head.hessian.copy() if want_hessian else None
    for part in parts[1:n_scaled]:
        value += beta * part.value
        grad += beta * part.gradient
        if want_hessian:
            hess += beta * part.hessian
    for part in parts[max(n_scaled, 1):]:
        value += part.value
        grad += part.gradient
        if want_hessian:
            hess += part.hessian
    return DerivativeBundle(value=value, gradient=grad, hessian=hess)


def composite_eval(
    beta: float,
    terms,
    barrier_maps,
    x: np.ndarray,
    want_hessian: bool = True,
) -> DerivativeBundle:
    """beta * sum of trace objectives plus log-det barriers.

    ``barrier_maps`` lists the maps whose outputs receive a -ln det
    barrier; ``None`` stands for the identity (a barrier on X itself).
    """
    all_terms = [*terms, *(LogDetBarrier(lmap) for lmap in barrier_maps)]
    parts = evaluate_terms(all_terms, len(terms), x, want_hessian)
    return combine_terms(beta, parts, len(terms), want_hessian)
