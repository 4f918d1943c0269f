"""Newton direction and decrement under affine trace constraints.

The Newton system is solved on the tangent space of the equality rows,
in symmetric coordinates: ``svec`` (``matfun``) keeps the n(n+1)/2
upper-triangle entries of a symmetric matrix, off-diagonal ones scaled
by sqrt(2), so that <A, X> = svec(A) . svec(X). The bundle's gradient
and Hessian are on the svec coordinates of xi~ = U.T xi U, U the
eigenbasis of X that the bundle carries (``objectives``), and so is the
whole solve: the step rotates the equality rows into that basis,
svec(U.T A_i U) (2 k n^3 work, ``AffineConstraints.rotated_rows``), and
factors them by LAPACK's dgeqrt, svec(U.T A_eq U)^T = Q R with
Q = I - V T V^T in compact WY form (Q is never formed). The trailing
columns of Q span the tangent space
{svec(P~) : <A_i, U P~ U.T> = 0 on equality rows}. The Hessian
evaluation of the X barrier rotates the inequality rows
(``objectives.barrier_eval``), so the two read disjoint row ranges. The
direction is rotated back once, P = U P~ U.T.

Expanding Q^T H Q = (I - V Y^T) H (I - Y V^T) with W = H Y and
S = Y^T W gives H - W V^T - V W^T + V S V^T, and Z = W - V S / 2 folds
the last term into two rank-k products: Q^T H Q = H - Z V^T - V Z^T. A
step writes only what the Cholesky factor reads, the lower triangle of
the tangent block. It copies the (d - k)^2 block H_tt into Fortran
order and subtracts Z_t V_t^T + V_t Z_t^T by one rank-2k update
(dsyr2k), which writes the lower triangle alone. LAPACK's Cholesky
(dpotrf) factors that triangle in place, M = L L^T, and two triangular
solves (dtrsv) give c = L^-1 r and y = -L^-T c, so the decrement's
quadratic form r^T M^-1 r is the sum of squares c . c. The step
computes only what the path-following reads, the direction and the
decrement; no multipliers. The reduced solution is mapped back,
p~ = N y, so the direction is tangent by construction.
The step keeps its factored system, L with V, Y and U
(``ReducedSystem``, (d - k)^2 doubles: 2 MB at n = 32). Its
``solve(g)`` gives the direction and the quadratic form for another
gradient g on the same Hessian, for the cost of Q^T g, the two
triangular solves and the rotation back; the step's own direction is
``solve`` of its gradient, so the two are one code path and agree bit
for bit. The path-following's tangent predictor solves with the
objective's gradient this way (``pathfollow``). Only the Hessian
restricted to the tangent space must be positive definite, so the
relative-entropy Hessian, which annihilates svec(X), is fine wherever X
is not tangent (Tr X = 1).
The inequality rows take no part here: their logs -ln(b_i - <A_i, X>)
belong to the barrier of X's domain (``objectives.barrier_eval``),
whose derivatives the bundle already holds, so structure I and
structure II share one system. A non-finite Hessian or gradient raises
SingularKKT before any factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ConstraintError, SingularKKT
from .matfun import svec, svec_layout, symmetrize

# machine epsilon of the float64 Newton system
EPS = np.finfo(float).eps


@dataclass(eq=False)
class AffineConstraints:
    """N trace constraints <A_i, X> (<=|=) b_i; the first n_ineq are inequalities."""

    mats: np.ndarray  # the symmetric A_i, N x n x n
    rhs: np.ndarray
    n_ineq: int = 0
    svec_rows: np.ndarray = field(init=False, repr=False)  # svec(A_i), N x n(n+1)/2

    def __post_init__(self):
        mats = [np.asarray(a, dtype=float) for a in self.mats]
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        n_total = len(mats)
        if n_total < 1:
            raise ConstraintError("at least one constraint row is required")
        if self.rhs.size != n_total:
            raise ConstraintError("constraint right-hand side length mismatch")
        if not 0 <= self.n_ineq <= n_total:
            raise ConstraintError("inequality count out of range")
        shape = mats[0].shape
        # checked before stacking, which would raise numpy's ValueError
        if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in mats):
            raise ConstraintError("constraint matrices must be square and share one order")
        stack = np.stack(mats)
        self.mats = 0.5 * (stack + stack.transpose(0, 2, 1))  # each A_i's symmetric part
        self.svec_rows = np.stack([svec(a) for a in self.mats])

        eq = self.svec_rows[self.n_ineq:]
        if eq.shape[0]:
            w = np.linalg.eigvalsh(eq @ eq.T)
            if w[0] <= w[-1] * len(eq) * 1e-12:
                raise ConstraintError("equality constraint rows are linearly dependent")

    @property
    def order(self) -> int:
        return self.mats.shape[1]

    @property
    def n_total(self) -> int:
        return len(self.mats)

    @property
    def n_eq(self) -> int:
        return self.n_total - self.n_ineq

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """<A_i, X> - b_i of every row."""
        return self.svec_rows @ svec(x) - self.rhs

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """b_i - <A_i, X> on the inequality rows, positive inside the domain."""
        m = self.n_ineq
        return self.rhs[:m] - self.svec_rows[:m] @ svec(x)

    def rotated_rows(self, u: np.ndarray, rows: slice) -> np.ndarray:
        """svec(U.T A_i U) of the rows in the slice ``rows``: those rows in the coordinates of U.

        Each row's rotation is its own product, so a range gives the bits
        of those rows of the whole stack's rotation. An empty range gives
        a 0 x n(n+1)/2 array.
        """
        lay = svec_layout(self.order)
        rot = u.T @ self.mats[rows] @ u
        return rot.reshape(len(rot), u.size).take(lay.lower, axis=1) * lay.weight


def equality_qr(eq_rows: np.ndarray):
    """(V, Y) of the Householder QR eq_rows^T = Q R, Q = I - V Y^T, Y = V T.

    LAPACK's dgeqrt returns the reflectors V (below R's diagonal, unit
    diagonal implied) and the triangular factor T of the compact WY form
    in one call; with no rows, V and Y are empty and Q = I. The solve
    reads Q alone, so R is dropped.
    """
    k, d = eq_rows.shape
    if not k:
        return np.zeros((d, 0)), np.zeros((d, 0))
    qr, t, info = lapack.dgeqrt(k, eq_rows.T)
    if info != 0:
        raise ConstraintError(f"QR of the equality rows failed (info {info})")
    lay = svec_layout(k)
    qr[lay.rows, lay.cols] = lay.rows == lay.cols  # R's triangle out, V's unit diagonal in
    return qr, qr @ t


@dataclass(eq=False)
class ReducedSystem:
    """The factored Newton system of one Hessian, kept for other gradients.

    ``factor`` is the Cholesky factor L of the reduced Hessian M_tt in its
    lower triangle (None when the tangent space is {0}), ``v`` and ``y``
    the compact WY form Q = I - V Y^T of the rotated equality rows, and
    ``basis`` the eigenbasis U whose svec coordinates the system is in.
    """

    factor: np.ndarray | None
    v: np.ndarray
    y: np.ndarray
    basis: np.ndarray

    def solve(self, gradient: np.ndarray):
        """(svec(P~), P, quad): the Newton direction for ``gradient`` on this Hessian.

        The tangent step solves M_tt y = -(Q^T g)_t by two triangular
        solves, c = L^-1 r and y = -L^-T c; quad = c . c is the quadratic
        form r^T M_tt^-1 r, and P = U P~ U^T with p~ = Q [0; y].
        """
        v, vt, u = self.v, self.y, self.basis
        k = v.shape[1]
        # with no equality rows Q = I, and x - 0 is x: the products are skipped
        g_q = gradient - v @ (vt.T @ gradient) if k else gradient
        p_s = np.zeros(gradient.size)  # [0; y], then Q [0; y]
        quad = 0.0
        if self.factor is not None:
            c = blas.dtrsv(self.factor, g_q[k:], lower=1)
            quad = float(c @ c)
            np.negative(blas.dtrsv(self.factor, c, lower=1, trans=1), out=p_s[k:])
        if k:
            p_s -= vt @ (v.T @ p_s)
        lay = svec_layout(u.shape[0])
        p_x = u @ (p_s / lay.weight)[lay.coord] @ u.T  # U unsvec(p~) U^T
        return p_s, symmetrize(p_x), quad


@dataclass(eq=False)
class NewtonStep:
    """Newton direction P with its decrement, diagnostics and factored system.

    ``schur_condition`` estimates the condition of the reduced Hessian as
    the squared ratio of the extreme diagonal entries of its Cholesky
    factor. ``system`` is the factored system the direction came from.
    """

    direction_X: np.ndarray
    decrement: float
    decrement_innerprod: float
    schur_condition: float
    tangency_residual: float
    system: ReducedSystem | None = field(default=None, repr=False)

    def solve(self, gradient: np.ndarray):
        """(P, quad) for another gradient on this step's Hessian (``ReducedSystem.solve``)."""
        _, p_x, quad = self.system.solve(gradient)
        return p_x, quad


def _decrements(quad: float, innerprod: float, scale: float):
    """Pair (delta, delta_innerprod) from the two equivalent formulas.

    The quadratic form <p, H p> is the primary value: it cannot go
    negative by cancellation, which -<grad F, p> can when the iterate is
    essentially centered and the gradient's constraint-normal component
    is huge (extreme beta). The guard only rejects an inner product
    negative by a margin comparable to the quadratic form or to the
    pre-cancellation scale ||grad|| * ||p||: that is the signature of a
    real sign or transpose error, not of roundoff.
    """
    quad = max(quad, 0.0)
    noise = 0.5 * quad + 1e-8 * scale + 1e-14
    if innerprod < -noise:
        raise SingularKKT(
            f"decrement radicand is negative: {innerprod:.3e} "
            f"(quadratic form {quad:.3e})"
        )
    return math.sqrt(quad), math.sqrt(max(innerprod, 0.0))


def newton_step_type1(bundle, cons: AffineConstraints) -> NewtonStep:
    """Newton direction of F_beta on the tangent space of the equality rows.

    ``bundle`` holds the gradient and Hessian of F_beta, the inequality
    rows' logs included (they are part of the X barrier), on the svec
    coordinates svec(U.T xi U); the step rotates the equality rows to match.
    Coordinates after Q^T are [normal (k); tangent]: with M = Q^T H Q, the
    tangent step y solves M_tt y = -(Q^T g)_t. The factor of M_tt is kept
    on the step, and the direction is its ``system.solve(gradient)``.
    """
    m, k = cons.n_ineq, cons.n_eq
    grad = bundle.gradient
    d = grad.size
    # LAPACK does not check its input for NaN or inf
    if not (np.isfinite(grad).all() and np.isfinite(bundle.hessian).all()):
        raise SingularKKT("Newton system has a non-finite Hessian or gradient entry")

    u = bundle.basis
    eq_rows = cons.rotated_rows(u, slice(m, None))
    v, vt = equality_qr(eq_rows)
    chol, cond = None, 1.0
    if d > k:
        h = bundle.hessian
        # red is in Fortran order, so the update and dpotrf write into it
        red = np.array(h[k:, k:].T, order="F")
        if k:
            w = h @ vt
            z = w - 0.5 * v @ (vt.T @ w)
            red = blas.dsyr2k(-1.0, z[k:].T, v[k:].T, beta=1.0, c=red, trans=1, lower=1,
                              overwrite_c=1)
        # the upper triangle keeps stale entries of H_tt, which nothing reads
        chol, info = lapack.dpotrf(red, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise SingularKKT("reduced Hessian is not positive definite on the tangent space")
        diag = chol.diagonal()  # positive once dpotrf succeeds
        cond = float((diag.max() / diag.min()) ** 2)
        if cond * (d - k) * EPS >= 1.0:
            # a factor that only exists by roundoff: the pivot ratio is at
            # the level of a matrix that is singular on the tangent space
            raise SingularKKT("reduced Hessian is numerically singular on the tangent space",
                              condition=cond)
    system = ReducedSystem(chol, v, vt, u)
    p_s, p_x, quad = system.solve(grad)

    rad = float(-(p_s @ grad))
    scale = np.abs(p_s) @ np.abs(grad) + 1.0
    delta, delta_ip = _decrements(quad, rad, scale)

    return NewtonStep(
        direction_X=p_x,
        decrement=delta,
        decrement_innerprod=delta_ip,
        schur_condition=cond,
        tangency_residual=float(np.abs(eq_rows @ p_s).max(initial=0.0)),
        system=system,
    )


def newton_step_type2(bundle, cons: AffineConstraints) -> NewtonStep:
    """Newton direction with equality constraints only."""
    if cons.n_ineq != 0:
        raise ConstraintError("structure-II steps take equality constraints only")
    return newton_step_type1(bundle, cons)
