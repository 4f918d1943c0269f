"""Newton direction and decrement under affine trace constraints.

The Newton system is solved on the tangent space of the equality rows,
in symmetric coordinates: ``svec`` (``matfun``) keeps the n(n+1)/2
upper-triangle entries of a symmetric matrix, off-diagonal ones scaled
by sqrt(2), so that <A, X> = svec(A) . svec(X). The bundle's gradient
and Hessian are on the svec coordinates of xi~ = U.T xi U, U the
eigenbasis of X that the bundle carries (``objectives``), and so is the
whole solve: each step rotates the constraint rows into that basis,
svec(U.T A_i U) (2 N n^3 work), and factors the rotated equality rows
by LAPACK's dgeqrt, svec(U.T A_eq U)^T = Q R with Q = I - V T V^T in
compact WY form (Q is never formed). The trailing columns of Q span the
tangent space {svec(P~) : <A_i, U P~ U.T> = 0 on equality rows}.
Nothing is cached between steps, since the basis moves with X. The
direction is rotated back once, P = U P~ U.T.

A step copies the Hessian once into Fortran order and applies Q on both
sides there: two rank-N_eq GEMMs accumulate into the copy.
The slack block, which the inequality slack direction q = -A_ineq p
contributes as (A_ineq N)^T diag(1/s^2) (A_ineq N), is accumulated by
one more GEMM onto a Fortran copy of the tangent block, which LAPACK's
Cholesky (dpotrf) then factors in place; dpotrs solves the reduced
system and dtrtrs the triangular system of the equality multipliers.
Each GEMM takes the operands of the plain expressions H - Z V^T - V Z^T
and M_tt + (B^T D) B and adds its product into the target, so the
results are those of the expressions (the tests compare them bit for
bit) without their d x d temporaries.
The reduced solution is mapped back, p~ = N y, so the direction is
tangent by construction. Only the Hessian restricted to the tangent
space must be positive definite, so the relative-entropy Hessian, which
annihilates svec(X), is fine wherever X is not tangent (Tr X = 1).
Structure II is structure I without inequality rows. A non-finite
Hessian or gradient raises SingularKKT before any factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ConstraintError, DomainViolation, SingularKKT
from .matfun import svec, svec_layout, symmetrize, unsvec


@dataclass
class AffineConstraints:
    """N trace constraints <A_i, X> (<=|=) b_i; the first n_ineq are inequalities."""

    mats: list
    rhs: np.ndarray
    n_ineq: int = 0
    svec_rows: np.ndarray = field(init=False, repr=False)  # svec(A_i), N x n(n+1)/2
    eq_gram_condition: float = field(init=False, default=1.0)

    def __post_init__(self):
        self.mats = [symmetrize(a) for a in self.mats]
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        n_total = len(self.mats)
        if n_total < 1:
            raise ConstraintError("at least one constraint row is required")
        if self.rhs.size != n_total:
            raise ConstraintError("constraint right-hand side length mismatch")
        if not 0 <= self.n_ineq <= n_total:
            raise ConstraintError("inequality count out of range")
        n = self.mats[0].shape[0]
        for a in self.mats:
            if a.shape != (n, n):
                raise ConstraintError("constraint matrices must share one order")
        self.svec_rows = np.stack([svec(a) for a in self.mats])

        eq = self.svec_rows[self.n_ineq:]
        if eq.shape[0]:
            gram = eq @ eq.T
            w = np.linalg.eigvalsh(gram)
            if w[0] <= w[-1] * len(eq) * 1e-12:
                raise ConstraintError("equality constraint rows are linearly dependent")
            self.eq_gram_condition = float(w[-1] / w[0])

    @property
    def order(self) -> int:
        return self.mats[0].shape[0]

    @property
    def n_total(self) -> int:
        return len(self.mats)

    @property
    def n_eq(self) -> int:
        return self.n_total - self.n_ineq

    def residuals(self, x: np.ndarray, slacks=None) -> np.ndarray:
        """<A_i, X> + s_i - b_i with s_i = 0 on equality rows."""
        vals = self.svec_rows @ svec(x) - self.rhs
        if slacks is not None and self.n_ineq:
            vals[: self.n_ineq] += np.asarray(slacks, dtype=float)
        return vals

    @cached_property
    def _stack(self) -> np.ndarray:
        """The A_i as one N x n x n array, built on the first Newton step."""
        return np.stack(self.mats)

    def rotated_rows(self, u: np.ndarray) -> np.ndarray:
        """svec(U.T A_i U) of every row, N x n(n+1)/2: the rows in the coordinates of U."""
        lay = svec_layout(self.order)
        rot = u.T @ self._stack @ u
        return rot.reshape(self.n_total, -1).take(lay.lower, axis=1) * lay.weight


def equality_qr(eq_rows: np.ndarray):
    """(V, Y, R) of the Householder QR eq_rows^T = Q R, Q = I - V Y^T, Y = V T.

    LAPACK's dgeqrt returns the reflectors V (below R's diagonal, unit
    diagonal implied) and the triangular factor T of the compact WY form
    in one call; with no rows, V and Y are empty and Q = I. R is the
    upper triangle of the returned k x k block, the only part that a
    triangular solve reads; below its diagonal lie the reflectors.
    """
    k, d = eq_rows.shape
    if not k:
        return np.zeros((d, 0)), np.zeros((d, 0)), np.zeros((0, 0))
    qr, t, info = lapack.dgeqrt(k, eq_rows.T)
    if info != 0:
        raise ConstraintError(f"QR of the equality rows failed (info {info})")
    r = qr[:k].copy()
    lay = svec_layout(k)
    qr[lay.rows, lay.cols] = 0.0  # R's triangle, then V's unit diagonal
    np.fill_diagonal(qr, 1.0)
    return qr, qr @ t, r


def rotate(h: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q^T H Q of a symmetric H, as H - Z V^T - V Z^T, in Fortran order.

    Expanding (I - V Y^T) H (I - Y V^T) with W = H Y and S = Y^T W
    gives H - W V^T - V W^T + V S V^T; Z = W - V S / 2 folds the
    last term into the two rank-k products. They are accumulated
    into one Fortran copy of H (H^T, a plain copy of a C-ordered H),
    first -Z V^T and then -V Z^T, as in the expression.
    """
    w = h @ y
    z = w - 0.5 * v @ (y.T @ w)
    out = np.array(h.T, order="F")
    out = blas.dgemm(-1.0, z.T, v.T, beta=1.0, c=out, trans_a=1, overwrite_c=1)
    return blas.dgemm(-1.0, v.T, z.T, beta=1.0, c=out, trans_a=1, overwrite_c=1)


@dataclass
class NewtonStep:
    """Newton direction (p, q) with its multipliers and diagnostics.

    ``multipliers`` are ordered like the constraint rows, inequality rows
    first. ``schur_condition`` estimates the condition of the reduced
    Hessian as the squared ratio of the extreme diagonal entries of its
    Cholesky factor.
    """

    direction_X: np.ndarray
    direction_slack: np.ndarray
    multipliers: np.ndarray
    decrement: float
    decrement_innerprod: float
    schur_condition: float
    tangency_residual: float


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
    return float(np.sqrt(quad)), float(np.sqrt(max(innerprod, 0.0)))


def _reduced_newton_step(bundle, slacks: np.ndarray, cons: AffineConstraints) -> NewtonStep:
    """Newton step of bundle + slack logs, solved on the tangent space.

    Everything is on the bundle's coordinates, svec(U.T xi U), with the
    rows rotated to match. Coordinates after Q^T are [normal (k);
    tangent]: with M = Q^T H_s Q, the tangent step y solves
    (M_tt + B^T D B) y = -(Q^T (g_s + A_ineq^T / s))_t, B = (A_ineq Q)_t.
    """
    m, k = cons.n_ineq, cons.n_eq
    grad = bundle.gradient
    d = grad.size
    inv_s = 1.0 / slacks
    # LAPACK does not check its input for NaN or inf
    if not (np.isfinite(grad).all() and np.isfinite(bundle.hessian).all()):
        raise SingularKKT("Newton system has a non-finite Hessian or gradient entry")

    u = bundle.basis
    rows = cons.rotated_rows(u)
    a_in = rows[:m]
    v, vt, r_eq = equality_qr(rows[m:])
    h_q = rotate(bundle.hessian, v, vt)
    g_q = grad - v @ (vt.T @ grad)
    a_q = a_in - (a_in @ vt) @ v.T

    b = a_q[:, k:]
    red = np.array(h_q[k:, k:], order="F")
    bd = b.T * inv_s**2
    red = blas.dgemm(1.0, bd.T, b, beta=1.0, c=red, trans_a=1, overwrite_c=1)
    r = g_q[k:] + b.T @ inv_s
    if d > k:
        chol, info = lapack.dpotrf(red, lower=1, clean=1, overwrite_a=1)
        if info > 0:
            raise SingularKKT("reduced Hessian is not positive definite on the tangent space")
        diag = np.abs(np.diag(chol))
        cond = float((diag.max() / diag.min()) ** 2)
        if cond * (d - k) * np.finfo(float).eps >= 1.0:
            # a factor that only exists by roundoff: the pivot ratio is at
            # the level of a matrix that is singular on the tangent space
            raise SingularKKT("reduced Hessian is numerically singular on the tangent space",
                              condition=cond)
        y, _ = lapack.dpotrs(chol, r, lower=1)
        y = -y
        quad = float(np.sum((chol.T @ y) ** 2))
    else:
        y, cond, quad = np.zeros(0), 1.0, 0.0

    p_q = np.concatenate([np.zeros(k), y])
    p_s = p_q - vt @ (v.T @ p_q)
    p2 = -(a_in @ p_s)
    p_x = symmetrize(u @ unsvec(p_s) @ u.T)

    # lambda_ineq from slack stationarity; lambda_eq from the normal rows
    # of the X-equation, R lambda_eq = (Q^T (H_s p + g_s - A_ineq^T lam_ineq))_n
    lam_in = p2 * inv_s**2 - inv_s
    lam = lam_in
    if k:
        # a C-ordered copy of the block: the row-wise products of a C-ordered H_q
        normal = np.ascontiguousarray(h_q[:k, k:]) @ y + g_q[:k] - a_q[:, :k].T @ lam_in
        # R is C-ordered, so LAPACK sees R^T and solves (R^T)^T lambda = normal
        lam_eq, _ = lapack.dtrtrs(r_eq.T, normal, lower=1, trans=1)
        lam = np.concatenate([lam_in, lam_eq])

    grad_slack = -inv_s
    rad = float(-(p_s @ grad + p2 @ grad_slack))
    scale = np.abs(p_s) @ np.abs(grad) + np.abs(p2) @ np.abs(grad_slack) + 1.0
    delta, delta_ip = _decrements(quad, rad, scale)

    tang = rows @ p_s
    tang[:m] += p2

    return NewtonStep(
        direction_X=p_x,
        direction_slack=p2,
        multipliers=lam,
        decrement=delta,
        decrement_innerprod=delta_ip,
        schur_condition=cond,
        tangency_residual=float(np.abs(tang).max()),
    )


def newton_step_type1(bundle, slacks, cons: AffineConstraints) -> NewtonStep:
    """Newton direction for mixed inequality/equality trace constraints.

    ``bundle`` holds gradient and Hessian of the X-block of F_beta;
    ``slacks`` the strictly positive slack values of the inequality rows.
    """
    m = cons.n_ineq
    slacks = np.asarray(slacks, dtype=float).ravel()
    if slacks.size != m:
        raise DomainViolation(f"expected {m} slacks, got {slacks.size}")
    if m and slacks.min() <= 0.0:
        raise DomainViolation("inequality slacks must be strictly positive")
    return _reduced_newton_step(bundle, slacks, cons)


def newton_step_type2(bundle, cons: AffineConstraints) -> NewtonStep:
    """Newton direction with equality constraints only (no slack block)."""
    if cons.n_ineq != 0:
        raise ConstraintError("structure-II steps take equality constraints only")
    return _reduced_newton_step(bundle, np.zeros(0), cons)
