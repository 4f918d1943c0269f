"""Value, gradient and Hessian of trace objectives and log-det barriers.

A trace objective is phi(X) = <C, g(X)> = Tr(C g(X)) for a PSD weight C
and an anti-monotone scalar generator g, optionally pre-composed with a
linear map L (phi(X) = <C, g(L(X))>). Derivatives are expressed through
divided differences in the eigenbasis of the generator's argument, with
Ctil = U.T C U: the gradient matrix is U (Ctil o g1(lam)) U.T, and the
Hessian's core S couples a diagonal-selected first term with a second
term built from the tensor of second divided differences.

Every gradient and Hessian is on the svec coordinates of
xi~ = U.T xi U, where X = U Lam U.T is the eigendecomposition of X (see
``matfun`` for svec; d = n(n+1)/2): ``gradient @ svec(U.T xi U) ==
Df(X)[xi]`` and ``hessian @ svec(U.T xi U) == svec(U.T D^2 f(X)[xi] U)``,
and the bundle carries U as ``basis``. The KKT layer solves in those
coordinates. There, the structures are sparse, with no rotation:

* -ln det X has gradient svec(-Lam^-1) and the diagonal Hessian
  diag(1/(lam_a lam_b)) over the svec coordinates (a, b) (the slack logs
  that join it add the rotated inequality rows, ``barrier_eval``);
* Tr(C g(X)) has gradient svec(Ctil o g1), and its Hessian couples
  (a, b) only with the pairs that share an index: the n^3 entries of the
  core, scattered into the d x d matrix (``phi_hessian_in_basis``).

When a map L is present, gradients and Hessians are assembled from the
congruence batch V[c] = O.T L(U E_c U.T) O of the svec basis matrices
E_c, with O the eigenbasis of the map output, which the map builds from
its own structure (see ``linmap``): the gradient entry c is
<M, V[c]> for the gradient matrix M in O's basis, which is
svec(U.T L.T(O M O.T) U) with no adjoint or rotation (``batch_inner``).
Each V[c] is symmetric, so the gradient and the diagonal-core
contractions run over the k(k+1)/2 upper-triangle entries of each
batch, gathered once (``triu_rows``); the core of a trace objective is
one batched product and one GEMM on the whole batch
(``sandwich_core``), exactly symmetric as built. The barrier
-ln det L(X) takes its batch in the basis O Lam^-1/2 instead, which
makes its Hessian a Gram matrix of the batch's svec rows
(``map_barrier_eval``).

Every evaluation takes an ``EvalPoint``, held by whatever holds X (the
solver's iterate, or an entry point such as ``composite_eval``): an
owned copy of X that decomposes X, and each map image, on first use,
and checks that the image is positive definite. All terms of one
evaluation share it, so X and each image are decomposed once, however
many terms read them, and every term's bundle is in the one basis U of
X. An evaluation has two modes: with ``want_hessian`` it returns value,
gradient and Hessian; without, the value alone (no divided differences,
gradient, inverse or adjoint). The value is one expression in both
modes, so it is the same bits either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .errors import DomainViolation, ShapeError, ValidationError
from .matfun import (
    ScalarGenerator,
    SpectralDecomp,
    divided_diff_1,
    pair_table,
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

    @property
    def in_order(self) -> int:
        return self.C.shape[0] if self.map is None else self.map.in_order

    def evaluate(self, point: EvalPoint, want_hessian: bool = True) -> DerivativeBundle:
        return phi_eval(self, point, want_hessian)


@dataclass(eq=False)
class DerivativeBundle:
    """Scalar value, gradient and dense Hessian, or the value alone.

    Both are on the svec coordinates of xi~ = U.T xi U, d = n(n+1)/2, for
    symmetric xi and the orthogonal ``basis`` U:
    ``gradient @ svec(xi~) == Df(X)[xi]`` (the gradient is svec(U.T G U)
    of the gradient matrix G) and ``hessian @ svec(xi~) ==
    svec(U.T D^2 f(X)[xi] U)``. A term's U is the eigenbasis of X
    (``EvalPoint.basis``). A value-only evaluation leaves gradient,
    Hessian and basis None.
    """

    value: float
    gradient: np.ndarray | None
    hessian: np.ndarray | None = None
    basis: np.ndarray | None = None


class EvalPoint:
    """One X and the spectral decompositions that F_beta's terms read there.

    ``x`` is an owned, read-only copy of X. ``image(lmap, shift)`` returns
    Y = L(X) + shift * I (Y = X for ``lmap=None``) and its decomposition,
    computed on first use and kept per (map, shift), the map keyed by
    identity. So terms that read the same image share one decomposition:
    a trace objective on X and -ln det X, or a trace objective through the
    constraint map and the barrier on that map. Images and decompositions
    are read-only like X, since the terms share them: a term that wrote
    into one would change what the others read.

    ``parts`` and ``system``, None until set, hold the per-term bundles of
    a Hessian evaluation of F_beta at this point (``pathfollow.FBetaEvaluator``)
    and the last Newton system solved here, (beta, F_beta gradient,
    ``kkt.NewtonStep``) (``pathfollow.newton_system``).
    """

    def __init__(self, x: np.ndarray):
        self.x = np.array(x, dtype=float)
        self.x.flags.writeable = False
        self._images = {}
        self.parts = None
        self.system = None

    def image(self, lmap=None, shift: float = 0.0) -> tuple[np.ndarray, SpectralDecomp]:
        key = (lmap, shift)
        hit = self._images.get(key)
        if hit is None:
            y = self.x if lmap is None else lmap.apply(self.x)
            if shift:
                y = y + shift * np.eye(y.shape[0])
            dec = spectral_decompose(y)
            for a in (y, dec.U, dec.lam):
                a.flags.writeable = False
            hit = self._images[key] = (y, dec)
        return hit

    @property
    def basis(self) -> np.ndarray:
        """U of X = U Lam U.T, whose svec coordinates every term's derivatives use."""
        return self.image()[1].U

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

def congruence_batch(lmap, o: np.ndarray, u: np.ndarray) -> np.ndarray:
    """V[c] = O.T L(U E_c U.T) O for every svec basis matrix E_c, shaped (d, k, k).

    This realizes (O (x) O).T M (U (x) U) P for the map matrix M without
    forming it: the map supplies the batch from its Kraus factors or its
    index structure (``congruence_batch`` of ``linmap``'s classes).
    """
    return lmap.congruence_batch(o, u)


def triu_rows(v: np.ndarray) -> np.ndarray:
    """Upper-triangle entries of each k x k matrix of a batch, (ncols, k(k+1)/2)."""
    flat = v.reshape(v.shape[0], -1)
    return flat.take(svec_layout(v.shape[1]).lower, axis=1)  # row-major index of (i, j)


def batch_inner(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """<M, V[c]> for every matrix V[c] of a batch, from ``s = triu_rows(V)``.

    M is symmetric k x k. For a map term, M is the gradient matrix in the
    output eigenbasis O and V the batch O.T L(U E_c U.T) O, so this is
    the gradient svec(U.T L.T(O M O.T) U) without the adjoint or a
    rotation: <L.T(G), U E_c U.T> = <G, L(U E_c U.T)>.
    """
    lay = svec_layout(m.shape[0])
    return s @ (m.take(lay.lower) * lay.weight**2)


def sandwich_diag(out: np.ndarray, s1: np.ndarray, phi: np.ndarray,
                  s2: np.ndarray | None = None, alpha: float = 1.0) -> None:
    """Add alpha V1.T Diag(phi) V1, or alpha (V1.T Diag(phi) V2 + its transpose), to ``out``.

    V1, V2 are congruence batches, ``s1``, ``s2`` their ``triu_rows``,
    and phi is symmetric k x k. The batches are symmetric, so the sum over
    all k^2 entries is one over the upper triangle with the off-diagonal
    terms counted twice: weight phi_ij w_ij^2. Without ``s2`` the block is
    (s1 sqrt(weight))(s1 sqrt(weight)).T, one ``dsyrk``; this needs
    phi > 0 entrywise, which holds for the callers' phi = ln^[1](Lam):
    (ln a - ln b)/(a - b) > 0 for a != b > 0, and 1/a on the diagonal.
    With ``s2`` it is one ``dsyr2k`` of s1 weight and s2. Both are exactly
    symmetric as computed and update only the lower triangle of the
    C-ordered ``out`` in place (the upper one of its Fortran view
    ``out.T``, which BLAS takes with no copy); the caller mirrors it once.
    """
    lay = svec_layout(phi.shape[0])
    weight = phi.take(lay.lower) * lay.weight**2
    if s2 is None:
        blas.dsyrk(alpha, (s1 * np.sqrt(weight)).T, beta=1.0, c=out.T, trans=1, overwrite_c=1)
    else:
        blas.dsyr2k(alpha, (s1 * weight).T, s2.T, beta=1.0, c=out.T, trans=1, overwrite_c=1)


def mirror_lower(h: np.ndarray) -> None:
    """Copy the lower triangle of the square C-ordered ``h`` onto its upper one, in place."""
    np.copyto(h, h.T, where=_strict_upper(h.shape[0]))


@functools.lru_cache(maxsize=None)
def _strict_upper(d: int) -> np.ndarray:
    mask = np.triu(np.ones((d, d), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def sandwich_core(v: np.ndarray, ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """V.T S V without materializing the k^2 x k^2 core; exactly symmetric.

    S = S1 + S2 with [S1 v]_ij = sum_l Ctil_jl Gamma_ijl v_il and
    [S2 v]_ij = sum_k Ctil_ik Gamma_ijk v_kj. Ctil is symmetric and Gamma
    symmetric in its three indices, so S2 v = (S1 v).T for symmetric v,
    and V's batches are symmetric, so <V[c], S2 V[c']> = <V[c], S1 V[c']>:
    the core is 2 r with r = V_flat (S1 V)_flat.T. Row i of S1 V[c] is
    row i of V[c] times W_i, W_i[l, j] = Ctil_jl Gamma_ijl, so S1 V is one
    batched product over i, written in (c, i, j) order. W_i is symmetric,
    which makes r symmetric, so r + r.T is 2 r up to rounding and exactly
    symmetric as computed: one GEMM and one add.
    """
    d = v.shape[0]
    # (i, l, j): Ctil_jl Gamma_ilj = W_i[l, j] bit for bit, Gamma being exactly
    # symmetric in its last two indices (``matfun``); C-ordered, the faster layout
    w = ctil.T * gamma
    sv = np.empty_like(v)
    np.matmul(v.transpose(1, 0, 2), w, out=sv.transpose(1, 0, 2))
    r = v.reshape(d, -1) @ sv.reshape(d, -1).T
    return r + r.T


@functools.lru_cache(maxsize=None)
def _shared_index_scatter(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat d x d index s(i,j) d + s(i,l) and weight 2 c_ij c_il of each triple (i, j, l).

    s(i, j) is the svec coordinate of the pair {i, j}, and c is 1 on the
    diagonal and 1/sqrt(2) off it (column s of the isometry P has
    entries c at (i, j) and (j, i)). Both tables have n^3 entries.
    """
    s = svec_layout(n).coord
    d = n * (n + 1) // 2
    c = np.full((n, n), 1.0 / math.sqrt(2.0))
    np.fill_diagonal(c, 1.0)
    index = (s[:, :, None] * d + s[:, None, :]).ravel()
    coef = 2.0 * c[:, :, None] * c[:, None, :]
    for t in (index, coef):
        t.flags.writeable = False
    return index, coef


def phi_hessian_in_basis(ctil: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """P.T S P, the svec Hessian of Tr(C g(X)) in X's eigenbasis, as a d x d matrix.

    S = S1 + S2 with [S1 v]_ij = sum_l Ctil_jl Gamma_ijl v_il and
    [S2 v]_ij = sum_k Ctil_ik Gamma_ijk v_kj. Gamma is symmetric in its
    three indices, so S2 is S1 conjugated by the transpose, which P.T
    absorbs: the Hessian is 2 P.T S1 P. S1 couples the vec index (i, j)
    only with (i, l), so its n^3 entries Ctil_jl Gamma_ijl, times
    2 c_ij c_il, are scattered into the svec pairs (s(i, j), s(i, l)):
    O(n^3) work, with about 4/n of the d^2 entries nonzero. Gamma is exactly
    symmetric in its last two indices, so for an exactly symmetric Ctil
    the result is exactly symmetric: each off-diagonal entry receives one
    term, the same as its mirror's.
    """
    n = ctil.shape[0]
    d = n * (n + 1) // 2
    index, coef = _shared_index_scatter(n)
    weights = ctil * gamma  # (i, j, l): Ctil_jl Gamma_ijl
    weights *= coef
    return np.bincount(index, weights=weights.ravel(), minlength=d * d).reshape(d, d)


# ---------------------------------------------------------------------------
# trace objectives
# ---------------------------------------------------------------------------

def phi_eval(obj: TraceObjective, point: EvalPoint, want_hessian: bool = True) -> DerivativeBundle:
    """Evaluate Tr(C g(.)) and its derivatives at the X of ``point`` (optionally through a map).

    As in every evaluation here, the decompositions are read from the
    point; without ``want_hessian`` the value alone is returned (gradient
    None), the same bits as a full evaluation's.
    """
    _, dec = point.pd_image("argument" if obj.map is None else "map output", obj.map)
    o, lam = dec.U, dec.lam
    ctil = symmetrize(o.T @ obj.C @ o)
    value = float(ctil.diagonal() @ obj.gen.g(lam))
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)
    table = pair_table(lam)
    f1 = divided_diff_1(obj.gen, table)
    gamma = second_divided_diff_tensor(obj.gen, table, f1=f1)
    u = point.basis
    if obj.map is None:
        grad = svec(ctil * f1)
        hess = phi_hessian_in_basis(ctil, gamma)
    else:
        v = congruence_batch(obj.map, o, u)
        grad = batch_inner(triu_rows(v), ctil * f1)
        hess = sandwich_core(v, ctil, gamma)
    return DerivativeBundle(value=value, gradient=grad, hessian=hess, basis=u)


# ---------------------------------------------------------------------------
# log-det barriers
# ---------------------------------------------------------------------------

def barrier_eval(point: EvalPoint, want_hessian: bool = True,
                 constraints=None) -> DerivativeBundle:
    """B_X = -ln det X - sum_i ln s_i, the barrier of X's domain, s = b - A_ineq(X).

    s holds the slacks of the inequality rows of ``constraints``, if any
    (``kkt.AffineConstraints.slacks``); a slack <= 0 raises DomainViolation.
    In X's eigenbasis, D^2(-ln det X)[xi, xi] = sum_ab xi~_ab^2 / (lam_a lam_b),
    a diagonal svec Hessian. The logs add R.T (1/s) to the gradient and
    G G.T to the Hessian, G = R.T diag(1/s), for the inequality rows
    rotated into the basis, R = svec(U.T A_i U)
    (``AffineConstraints.rotated_rows``); the Newton step rotates the
    equality rows itself.
    """
    _, dec = point.pd_image("barrier argument")
    lam = dec.lam
    value = -float(np.log(lam).sum())
    m = 0 if constraints is None else constraints.n_ineq
    if m:
        s = constraints.slacks(point.x)
        s_min = s.min()
        if s_min <= 0.0:
            raise DomainViolation(f"inequality slacks must be positive (min {s_min:.3e})")
        value -= float(np.log(s).sum())
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)
    lay = svec_layout(lam.size)
    inv = 1.0 / lam
    grad = np.zeros(lay.rows.size)
    grad[lay.diag] = -inv
    curv = inv[lay.rows] * inv[lay.cols]
    if m:
        gw = constraints.rotated_rows(dec.U, slice(m)).T / s
        grad += gw.sum(axis=1)
        hess = gw @ gw.T  # numpy's rank-k path: exactly symmetric
        hess.reshape(-1)[::hess.shape[0] + 1] += curv  # the diagonal, in place
    else:
        hess = np.diag(curv)
    return DerivativeBundle(value=value, gradient=grad, hessian=hess, basis=dec.U)


def map_barrier_eval(lmap, point: EvalPoint, want_hessian: bool = True) -> DerivativeBundle:
    """-ln det L(X), Y = L(X): gradient -L.T(Y^-1) and Hessian L.T P(Y^-1) L, in X's eigenbasis.

    Both come from the batch W[c] = Lam^-1/2 O.T L(U E_c U.T) O Lam^-1/2,
    the congruence batch in the basis O Lam^-1/2 (Y = O Lam O.T): the
    gradient entry is -<Lam^-1, V[c]> = -Tr W[c], and the Hessian entry
    sum_ij V[c]_ij V[c']_ij / (lam_i lam_j) = <W[c], W[c']>, a Gram
    matrix. On the svec coordinates of the batches, <A, B> = svec(A) .
    svec(B), so the Hessian is w w.T with w the batches' svec rows, which
    numpy's rank-k path makes exactly symmetric.
    """
    _, dec = point.pd_image("mapped barrier argument", lmap)
    o, lam = dec.U, dec.lam
    value = -float(np.log(lam).sum())
    if not want_hessian:
        return DerivativeBundle(value=value, gradient=None)
    u = point.basis
    s = triu_rows(congruence_batch(lmap, o / np.sqrt(lam), u))
    lay = svec_layout(lam.size)
    grad = -s[:, lay.diag].sum(axis=1)
    w = s * lay.weight
    return DerivativeBundle(value=value, gradient=grad, hessian=w @ w.T, basis=u)


# ---------------------------------------------------------------------------
# composite barrier family F_beta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDetBarrier:
    """-ln det L(X) for a linear map L; ``map=None`` stands for B_X on ``constraints``."""

    map: object | None = None
    constraints: object | None = None

    def evaluate(self, point: EvalPoint, want_hessian: bool = True) -> DerivativeBundle:
        if self.map is None:
            return barrier_eval(point, want_hessian, self.constraints)
        return map_barrier_eval(self.map, point, want_hessian)


def evaluate_terms(terms, n_scaled: int, point: EvalPoint,
                   want_hessian: bool = True) -> list[DerivativeBundle]:
    """Unscaled bundle of every term of F_beta at the X of ``point``, in term order.

    The first ``n_scaled`` terms are the objective's, the rest barriers;
    each term has ``evaluate(point, want_hessian)``, and all read the one
    point. A DomainViolation names the term that raised it.
    """
    parts = []
    for i, term in enumerate(terms):
        try:
            parts.append(term.evaluate(point, want_hessian))
        except DomainViolation as exc:
            what = f"objective term {i}" if i < n_scaled else f"barrier term {i - n_scaled}"
            raise DomainViolation(f"{what}: {exc}") from exc
    return parts


def combine_values(beta: float, parts, n_scaled: int) -> float:
    """The value of ``combine_terms(beta, parts, n_scaled)``, alone: the same sum."""
    if beta < 0.0:
        raise DomainViolation("beta must be nonnegative")
    # sum starts from 0, and 0 + v is v: the sum from the first part, in order
    return sum(beta * p.value if i < n_scaled else p.value for i, p in enumerate(parts))


def combine_terms(beta: float, parts, n_scaled: int) -> DerivativeBundle:
    """beta * (the first ``n_scaled`` parts) + the remaining parts.

    Each sum starts from the first part (times beta when it is scaled)
    and adds the others in place, in term order, so the same parts and
    beta always give bit-identical results, whether the parts were just
    evaluated or kept from an earlier beta, and the value is the same
    whether the parts are full or value-only (``combine_values``).
    Value-only parts (gradient None) give a value-only bundle. Full parts
    share one basis, the eigenbasis of their common X, which the sum
    keeps. The parts are not modified.
    """
    value = combine_values(beta, parts, n_scaled)
    head = parts[0]
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
    return DerivativeBundle(value=value, gradient=grad, hessian=hess, basis=head.basis)


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
    All terms read one EvalPoint of X.
    """
    all_terms = [*terms, *(LogDetBarrier(lmap) for lmap in barrier_maps)]
    parts = evaluate_terms(all_terms, len(terms), EvalPoint(x), want_hessian)
    return combine_terms(beta, parts, len(terms))
