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
are conjugated by the map's vectorized matrix. Everything is delivered
vectorized (column-stacking vec) because the KKT layer solves against
many right-hand sides at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, ShapeError, ValidationError
from .matfun import (
    ScalarGenerator,
    SpectralDecomp,
    divided_diff_1,
    second_divided_diff_tensor,
    spectral_decompose,
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
    """Scalar value, vec gradient and (optionally) a dense Hessian."""

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
    """
    k = o.shape[0]
    cols = m.shape[1]
    mt = m.reshape(k, k, cols, order="F")
    return np.einsum("qi,qrc,rj->cij", o, mt, o, optimize=True)


def sandwich_diag(v1: np.ndarray, v2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """V1.T diag(vec(phi)) V2 for congruence-batched V1, V2."""
    return np.einsum("bij,ij,cij->bc", v1, phi, v2, optimize=True)


def sparse_core_apply(v: np.ndarray, ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Action of the sparse core S on a batch of basis matrices.

    [S v]_ij = sum_l Ctil_jl Gamma_ijl v_il + sum_k Ctil_ik Gamma_ijk v_kj.
    """
    a1 = np.einsum("cil,jl,ijl->cij", v, ctil, gamma, optimize=True)
    a2 = np.einsum("ip,ijp,cpj->cij", ctil, gamma, v, optimize=True)
    return a1 + a2


def sandwich_core(v: np.ndarray, ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """V.T S V without materializing the k^2 x k^2 core."""
    return np.einsum("bij,cij->bc", v, sparse_core_apply(v, ctil, gamma), optimize=True)


def phi_hessian_in_basis(u: np.ndarray, ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(U (x) U) S (U (x) U).T materialized as an n^2 x n^2 matrix.

    Exploits the block-diagonal structure of S: both terms contract in
    O(n^5) instead of the O(n^6) of dense conjugation.
    """
    n = u.shape[0]
    cg = ctil[:, None, :] * gamma  # (i, j, k): Ctil_ik Gamma_ijk
    kmats = np.einsum("ai,ijk,ck->jac", u, cg, u, optimize=True)
    h2 = np.einsum("bj,dj,jac->abcd", u, u, kmats, optimize=True)
    tmats = np.einsum("ai,ijl,ci->jlac", u, gamma, u, optimize=True)
    h1 = np.einsum("bj,jl,dl,jlac->abcd", u, ctil, u, tmats, optimize=True)
    h4 = h1 + h2
    return h4.transpose(1, 0, 3, 2).reshape(n * n, n * n)


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
            v = congruence_batch(obj.map.vectorized_matrix(), u)
            hess = symmetrize(sandwich_core(v, ctil, gamma))
    return DerivativeBundle(value=value, gradient=grad, hessian=hess)


# ---------------------------------------------------------------------------
# log-det barriers
# ---------------------------------------------------------------------------

def barrier_eval(x: np.ndarray, want_hessian: bool = True) -> DerivativeBundle:
    """-ln det X with gradient vec(-X^-1) and Hessian X^-1 (x) X^-1."""
    dec = _pd_decompose(np.asarray(x, dtype=float), "barrier argument")
    u, lam = dec.U, dec.lam
    xinv = symmetrize((u / lam) @ u.T)
    value = -float(np.sum(np.log(lam)))
    hess = np.kron(xinv, xinv) if want_hessian else None
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
        v = congruence_batch(lmap.vectorized_matrix(), o)
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

    Sums start from zero and add the parts one by one in term order, so
    the same parts and beta always give bit-identical results, whether
    the parts were just evaluated or kept from an earlier beta.
    """
    if beta < 0.0:
        raise DomainViolation("beta must be nonnegative")
    size = parts[0].gradient.size
    value = 0.0
    grad = np.zeros(size)
    hess = np.zeros((size, size)) if want_hessian else None
    for part in parts[:n_scaled]:
        value += beta * part.value
        grad += beta * part.gradient
        if want_hessian:
            hess += beta * part.hessian
    for part in parts[n_scaled:]:
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
