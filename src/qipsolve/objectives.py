"""Value, gradient and Hessian of trace objectives and log-det barriers.

A trace objective is phi(X) = <C, g(X)> = Tr(C g(X)) for a PSD weight C
and an anti-monotone scalar generator g, optionally pre-composed with a
linear map L (phi(X) = <C, g(L(X))>). Derivatives are expressed through
divided differences in the eigenbasis:

* gradient: U (Ctil o g1(lam)) U.T with Ctil = U.T C U,
* Hessian: (U (x) U) S (U (x) U).T, where the sparse core S couples a
  diagonal-selected first term with a second term built from the tensor
  of second divided differences; off-diagonal blocks of S are diagonal.

A gradient is delivered as svec(G), the svec vector of the gradient
matrix G, and a Hessian as the d x d matrix on svec coordinates,
d = n(n+1)/2 (see ``matfun``): the KKT layer solves in those
coordinates, and a symmetric matrix needs no more. When a map L is
present, gradients push through the adjoint, and Hessians are
assembled from the congruence batch V[c] = O.T L(E_c) O of the svec
basis matrices E_c in the eigenbasis O of the map output, which the map
builds from its own structure (Kraus factors Ktil_t = O.T K_t, or the
svec permutation of the partial transpose; see ``linmap``). Each V[c]
is symmetric, so the sandwiches contract over the k(k+1)/2
upper-triangle entries of each batch, gathered once.

Every evaluation reads its spectral decompositions from an ``EvalPoint``:
an owned copy of X that decomposes X, and each map image, on first use,
and checks that the image is positive definite. All terms of one
evaluation share it, so X and each image are decomposed once, however
many terms read them. An evaluation has two modes: with ``want_hessian``
it returns value, gradient and Hessian; without, the value alone (no
divided differences, gradient, inverse or adjoint). The value is one
expression in both modes, so it is the same bits either way.
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
    svec,
    svec_layout,
    symmetrize,
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

    def evaluate(self, x: np.ndarray, want_hessian: bool = True, *,
                 point: EvalPoint | None = None) -> DerivativeBundle:
        return phi_eval(self, x, want_hessian=want_hessian, point=point)


@dataclass
class DerivativeBundle:
    """Scalar value, gradient and dense Hessian, or the value alone.

    Both are on svec coordinates, d = n(n+1)/2, for symmetric xi:
    ``gradient @ svec(xi) == Df(X)[xi]`` (the gradient is svec(G) of the
    gradient matrix G) and ``hessian @ svec(xi) == svec(D^2 f(X)[xi])``.
    A value-only evaluation leaves gradient and Hessian None.
    """

    value: float
    gradient: np.ndarray | None
    hessian: np.ndarray | None = None


class EvalPoint:
    """One X and the spectral decompositions that F_beta's terms read there.

    ``x`` is an owned, read-only copy of X. ``image(lmap, shift)`` returns
    Y = L(X) + shift * I (Y = X for ``lmap=None``) and its decomposition,
    computed on first use and kept per (map, shift), the map keyed by
    identity. So terms that read the same image share one decomposition:
    a trace objective on X and -ln det X, or a trace objective through the
    constraint map and the barrier on that map.

    ``parts``, None until set, holds the per-term bundles of a Hessian
    evaluation of F_beta at this point (``pathfollow.FBetaEvaluator``).
    """

    def __init__(self, x: np.ndarray):
        self.x = np.array(x, dtype=float)
        self.x.flags.writeable = False
        self._images = {}
        self.parts = None

    def image(self, lmap=None, shift: float = 0.0) -> tuple[np.ndarray, SpectralDecomp]:
        key = (lmap, shift)
        hit = self._images.get(key)
        if hit is None:
            y = self.x if lmap is None else lmap.apply(self.x)
            if shift:
                y = y + shift * np.eye(y.shape[0])
            hit = self._images[key] = (y, spectral_decompose(y))
        return hit

    def pd_image(self, what: str, lmap=None,
                 shift: float = 0.0) -> tuple[np.ndarray, SpectralDecomp]:
        """``image(lmap, shift)``, which must be positive definite; ``what`` names it."""
        hit = self.image(lmap, shift)
        lam_min = hit[1].lam[-1]
        if lam_min <= 0.0:
            raise DomainViolation(
                f"{what} must be positive definite (min eigenvalue {lam_min:.3e})")
        return hit


# ---------------------------------------------------------------------------
# Hessian assembly primitives (shared with the relative-entropy module)
# ---------------------------------------------------------------------------

def congruence_batch(lmap, o: np.ndarray) -> np.ndarray:
    """V[c] = O.T L(E_c) O for every svec basis matrix E_c, shaped (d, k, k).

    This realizes (O (x) O).T M P for the map matrix M without forming
    it: the map supplies the batch from its Kraus factors or its svec
    permutation (``congruence_batch`` of ``linmap``'s classes).
    """
    return lmap.congruence_batch(o)


def triu_rows(v: np.ndarray) -> np.ndarray:
    """Upper-triangle entries of each k x k matrix of a batch, (ncols, k(k+1)/2)."""
    flat = v.reshape(v.shape[0], -1)
    return flat.take(svec_layout(v.shape[1]).lower, axis=1)  # row-major index of (i, j)


def sandwich_diag(s1: np.ndarray, s2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """V1.T Diag(phi) V2 for congruence batches V1, V2 and symmetric k x k phi.

    ``s1``, ``s2`` are the batches' ``triu_rows``. The batches are
    symmetric, so the sum over all k^2 entries is one over the upper
    triangle with the off-diagonal terms counted twice.
    """
    lay = svec_layout(phi.shape[0])
    return (s1 * (phi[lay.rows, lay.cols] * lay.weight**2)) @ s2.T


def sandwich_core(v: np.ndarray, s: np.ndarray, ctil: np.ndarray,
                  gamma: np.ndarray) -> np.ndarray:
    """V.T S V without materializing the k^2 x k^2 core; ``s`` is ``triu_rows(v)``.

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
    return (s * (0.5 * lay.weight**2)) @ sym.T


def scale_by_weight_pairs(h: np.ndarray, lay) -> np.ndarray:
    """h[p, q] *= w_p w_q / 2 in place, for svec weights w of layout ``lay``.

    This is h *= outer(half, half) with half = w / sqrt(2), which is
    exactly 1 off the diagonal, so only the n diagonal rows and columns
    change, each entry by the outer product's own factor half_p half_q,
    and no d x d temporary is made.
    """
    half = lay.weight / math.sqrt(2.0)
    dg = lay.diag
    rows = h[dg]
    rows *= np.outer(half[dg], half)
    h[:, dg] *= half[dg]
    h[dg] = rows
    return h


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
    # K_j[a, c] as kmats[a, c, j]: the contraction ai,ijk,ck -> acj as two
    # GEMMs, over i and then over k, with the operand layouts of einsum's
    # optimized path (and so its rounding), without its per-call path search
    t = (cg.transpose(1, 2, 0).reshape(n * n, n) @ u.T).reshape(n, n, n)  # (j, k, a)
    t = t.transpose(2, 0, 1).reshape(n * n, n) @ u.T  # (a j, c)
    kmats = np.ascontiguousarray(t.reshape(n, n, n).transpose(0, 2, 1))
    # f[p, c, j] = U_j1j K_j[i1, c] + U_i1j K_j[j1, c] for p = (i1, j1)
    f = kmats[rows]
    f *= u[cols][:, None, :]
    f2 = kmats[cols]
    f2 *= u[rows][:, None, :]
    f += f2
    # e[p, c, d]: both orders of p, one order (c, d) of q
    e = (f.reshape(-1, n) @ u.T).reshape(-1, n * n)
    out = e.take(lay.lower, axis=1)  # row-major index of (i2, j2)
    out += e.take(lay.upper, axis=1)  # and of (j2, i2)
    return scale_by_weight_pairs(out, lay)


# ---------------------------------------------------------------------------
# trace objectives
# ---------------------------------------------------------------------------

def phi_eval(obj: TraceObjective, x: np.ndarray, want_hessian: bool = True, *,
             point: EvalPoint | None = None) -> DerivativeBundle:
    """Evaluate Tr(C g(.)) and its derivatives at X (optionally through a map).

    As in every evaluation here, ``point``, when given, is the EvalPoint
    of X, whose decompositions are read instead of computed; without
    ``want_hessian`` the value alone is returned (gradient None), the
    same bits as a full evaluation's.
    """
    point = EvalPoint(x) if point is None else point
    _, dec = point.pd_image("argument" if obj.map is None else "map output", obj.map)
    u, lam = dec.U, dec.lam
    ctil = u.T @ obj.C @ u
    value = float(np.diag(ctil) @ obj.gen.g(lam))
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)
    f1 = divided_diff_1(obj.gen, lam)
    grad_y = symmetrize(u @ (ctil * f1) @ u.T)
    gamma = second_divided_diff_tensor(obj.gen, lam, f1=f1)
    if obj.map is None:
        grad = svec(grad_y)
        hess = symmetrize(phi_hessian_in_basis(u, ctil, gamma))
    else:
        grad = svec(obj.map.adjoint_apply(grad_y))
        v = congruence_batch(obj.map, u)
        hess = symmetrize(sandwich_core(v, triu_rows(v), ctil, gamma))
    return DerivativeBundle(value=value, gradient=grad, hessian=hess)


# ---------------------------------------------------------------------------
# log-det barriers
# ---------------------------------------------------------------------------

def barrier_eval(x: np.ndarray, want_hessian: bool = True, *,
                 point: EvalPoint | None = None) -> DerivativeBundle:
    """-ln det X with gradient svec(-X^-1) and Hessian X^-1 (x) X^-1 on svec.

    On svec coordinates p = (i, j), q = (k, l), with A = X^-1, the Hessian
    is (w_p w_q / 2)(A_ik A_jl + A_il A_jk), exactly symmetric.
    """
    point = EvalPoint(x) if point is None else point
    _, dec = point.pd_image("barrier argument")
    u, lam = dec.U, dec.lam
    value = -float(np.sum(np.log(lam)))
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)
    xinv = symmetrize((u / lam) @ u.T)
    # a_r[:, q] = A[:, k], a_c[:, q] = A[:, l]; rows are gathered whole
    lay = svec_layout(xinv.shape[0])
    a_r = xinv[:, lay.rows]
    a_c = xinv[:, lay.cols]
    hess = a_r.take(lay.rows, axis=0)
    hess *= a_c.take(lay.cols, axis=0)
    cross = a_c.take(lay.rows, axis=0)
    cross *= a_r.take(lay.cols, axis=0)
    hess += cross
    scale_by_weight_pairs(hess, lay)
    return DerivativeBundle(value=value, gradient=svec(-xinv), hessian=hess)


def map_barrier_eval(lmap, x: np.ndarray, want_hessian: bool = True, *,
                     point: EvalPoint | None = None) -> DerivativeBundle:
    """-ln det L(X), Y = L(X): gradient svec(-L.T(Y^-1)), Hessian L.T P(Y^-1) L on svec."""
    point = EvalPoint(x) if point is None else point
    _, dec = point.pd_image("mapped barrier argument", lmap)
    o, lam = dec.U, dec.lam
    value = -float(np.sum(np.log(lam)))
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)
    yinv = symmetrize((o / lam) @ o.T)
    grad = svec(-lmap.adjoint_apply(yinv))
    d = 1.0 / lam
    s = triu_rows(congruence_batch(lmap, o))
    hess = symmetrize(sandwich_diag(s, s, np.outer(d, d)))
    return DerivativeBundle(value=value, gradient=grad, hessian=hess)


# ---------------------------------------------------------------------------
# composite barrier family F_beta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDetBarrier:
    """-ln det L(X) for a linear map L; ``map=None`` stands for -ln det X."""

    map: object | None = None

    def evaluate(self, x: np.ndarray, want_hessian: bool = True, *,
                 point: EvalPoint | None = None) -> DerivativeBundle:
        if self.map is None:
            return barrier_eval(x, want_hessian=want_hessian, point=point)
        return map_barrier_eval(self.map, x, want_hessian=want_hessian, point=point)


def evaluate_terms(terms, n_scaled: int, x: np.ndarray, want_hessian: bool = True, *,
                   point: EvalPoint | None = None) -> list[DerivativeBundle]:
    """Unscaled bundle of every term of F_beta at X, in term order.

    The first ``n_scaled`` terms are the objective's, the rest barriers;
    each term has ``evaluate(x, want_hessian, point=)``. All terms read
    one EvalPoint of X (``point``, or a new one). A DomainViolation names
    the term that raised it.
    """
    point = EvalPoint(x) if point is None else point
    parts = []
    for i, term in enumerate(terms):
        try:
            parts.append(term.evaluate(point.x, want_hessian=want_hessian, point=point))
        except DomainViolation as exc:
            what = f"objective term {i}" if i < n_scaled else f"barrier term {i - n_scaled}"
            raise DomainViolation(f"{what}: {exc}") from exc
    return parts


def combine_terms(beta: float, parts, n_scaled: int) -> DerivativeBundle:
    """beta * (the first ``n_scaled`` parts) + the remaining parts.

    Each sum starts from the first part (times beta when it is scaled)
    and adds the others in place, in term order, so the same parts and
    beta always give bit-identical results, whether the parts were just
    evaluated or kept from an earlier beta, and the value is the same
    whether the parts are full or value-only. Value-only parts (gradient
    None) give a value-only bundle. The parts are not modified.
    """
    if beta < 0.0:
        raise DomainViolation("beta must be nonnegative")
    head = parts[0]
    value = beta * head.value if n_scaled else head.value
    for part in parts[1:n_scaled]:
        value += beta * part.value
    for part in parts[max(n_scaled, 1):]:
        value += part.value
    if head.gradient is None:
        return DerivativeBundle(value=value, gradient=None)

    if n_scaled:
        grad = beta * head.gradient
        hess = beta * head.hessian
    else:
        grad = head.gradient.copy()
        hess = head.hessian.copy()
    for part in parts[1:n_scaled]:
        grad += beta * part.gradient
        hess += beta * part.hessian
    for part in parts[max(n_scaled, 1):]:
        grad += part.gradient
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
    return combine_terms(beta, parts, len(terms))
