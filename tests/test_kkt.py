import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas

from conftest import rand_spd, rand_sym
from qipsolve import probio
from qipsolve.errors import ConstraintError, DomainViolation, SingularKKT
from qipsolve.kkt import (
    AffineConstraints,
    equality_qr,
    newton_step_type1,
    newton_step_type2,
)
from qipsolve.matfun import INVERSE, symmetrize, unsvec, vec
from qipsolve.objectives import (
    DerivativeBundle,
    EvalPoint,
    TraceObjective,
    barrier_eval,
    composite_eval,
)
from qipsolve.oracle import eigen_rotation, fixed_coordinates, sym_isometry
from qipsolve.pathfollow import FBetaEvaluator


def type1_setup(rng, n=5, m=2, n_total=4, seed=11):
    problem = probio.generate_random("type1", {"n": n, "m": m, "N": n_total}, seed=seed)
    x = probio.random_feasible_point(problem, rng)
    cons = problem.constraints
    slacks = cons.rhs[:m] - np.array([np.tensordot(a, x) for a in cons.mats[:m]])
    return problem, x, slacks


def f_beta_bundle(problem, x, beta=2.0):
    """F_beta's bundle at X, the inequality rows' logs in the X barrier."""
    return FBetaEvaluator(problem).x_bundle(EvalPoint(x), beta)


class TestAffineConstraints:
    def test_rank_deficient_equalities_rejected(self):
        a = np.eye(3)
        with pytest.raises(ConstraintError):
            AffineConstraints([a, 2.0 * a], np.array([1.0, 2.0]), n_ineq=0)

    @pytest.mark.parametrize("mats", [[np.eye(3), np.eye(4)], [np.eye(3), np.ones((3, 4))]],
                             ids=["orders", "not_square"])
    def test_mismatched_shapes_rejected(self, mats):
        with pytest.raises(ConstraintError, match="share one order"):
            AffineConstraints(mats, np.array([1.0, 1.0]), n_ineq=0)

    def test_duplicate_inequality_rows_allowed(self, rng):
        a = rand_sym(rng, 3)
        cons = AffineConstraints([a, a, np.eye(3)], np.array([1.0, 1.0, 1.0]), n_ineq=2)
        assert cons.n_ineq == 2

    @pytest.mark.parametrize("kind, dims", [
        ("type1", {"n": 3, "m": 1, "N": 3}),
        ("type1", {"n": 6, "m": 3, "N": 6}),
        ("type1", {"n": 9, "m": 4, "N": 8}),
        ("type2", {"n": 4, "m": 2}),
        ("type2", {"n": 9, "m": 3}),
    ])
    def test_residuals_and_slacks_match_tensordot(self, rng, kind, dims):
        # every <A_i, X> read from the svec rows, against the plain trace
        # inner product of the constraint matrices, row by row
        for seed in range(4):
            problem = probio.generate_random(kind, dims, seed=seed)
            cons = problem.constraints
            m = cons.n_ineq
            x = rand_spd(rng, cons.order)
            dots = np.array([np.tensordot(a, x) for a in cons.mats])
            scale = np.array([np.tensordot(np.abs(a), np.abs(x)) for a in cons.mats])
            scale += np.abs(cons.rhs)
            resid = cons.residuals(x)
            assert np.all(np.abs(resid - (dots - cons.rhs)) <= 1e-14 * scale)
            slacks = cons.slacks(x)
            assert slacks.shape == (m,)
            assert np.all(np.abs(slacks - (cons.rhs[:m] - dots[:m])) <= 1e-14 * scale[:m])


class TestType1:
    def test_constrained_minimizer_has_zero_decrement(self):
        # min Tr(X^{-1}) s.t. Tr X = 1 is solved by X = I/n for every beta
        n = 4
        obj = TraceObjective(np.eye(n), INVERSE)
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        for beta in (1.0, 10.0, 1e4):
            bundle = composite_eval(beta, [obj], [None], np.eye(n) / n)
            step = newton_step_type1(bundle, cons)
            assert step.decrement <= 1e-8
            assert np.linalg.norm(step.direction_X) <= 1e-7

    def test_tangency_on_random_instances(self, rng):
        problem, x, _ = type1_setup(rng)
        cons = problem.constraints
        step = newton_step_type1(f_beta_bundle(problem, x), cons)
        scale = 1.0 + np.linalg.norm(step.direction_X)
        assert step.tangency_residual <= 1e-8 * scale
        # recompute independently, on the equality rows
        for a in cons.mats[cons.n_ineq:]:
            assert abs(np.tensordot(a, step.direction_X)) <= 1e-8 * scale

    def test_decrement_formulas_agree(self, rng):
        problem, x, _ = type1_setup(rng)
        step = newton_step_type1(f_beta_bundle(problem, x), problem.constraints)
        assert step.decrement > 1e-6  # away from the center, both formulas live
        assert step.decrement_innerprod == pytest.approx(step.decrement, rel=1e-7)

    def test_descent_direction(self, rng):
        problem, x, _ = type1_setup(rng)
        bundle = f_beta_bundle(problem, x)
        step = newton_step_type1(bundle, problem.constraints)
        grad = fixed_coordinates(bundle).gradient
        assert grad @ (sym_isometry(problem.n).T @ vec(step.direction_X)) <= 0.0

    def test_kkt_residual_orthogonal_to_tangent(self, rng):
        # with the slack direction q = -A_in p eliminated, stationarity of
        # the step reads (H + A_in^T D A_in) p + g + A_in^T / s in the span of
        # the equality rows, D = diag(1/s^2), for H and g of the objective
        # and -ln det X alone: the residual must be fitted by those rows
        problem, x, slacks = type1_setup(rng)
        cons = problem.constraints
        m = cons.n_ineq
        step = newton_step_type1(f_beta_bundle(problem, x), cons)
        bundle = fixed_coordinates(composite_eval(2.0, problem.terms, [None], x))
        iso = sym_isometry(cons.order)
        rows = np.stack([iso.T @ vec(a) for a in cons.mats])
        a_in, a_eq = rows[:m], rows[m:]
        p = iso.T @ vec(step.direction_X)
        resid = bundle.hessian @ p + bundle.gradient
        resid += a_in.T @ ((a_in @ p) / slacks**2) + a_in.T @ (1.0 / slacks)
        fit, *_ = np.linalg.lstsq(a_eq.T, resid, rcond=None)
        proj = resid - a_eq.T @ fit
        assert np.linalg.norm(proj) <= 1e-7 * (1 + np.linalg.norm(bundle.gradient))

    def test_nonpositive_slack_rejected(self, rng):
        # the X barrier holds the slacks' logs: outside their domain it
        # raises in both modes, and F_beta's value is +inf
        problem, x, slacks = type1_setup(rng)
        cons = problem.constraints
        for gap in (-1e-9, -0.1):
            rhs = cons.rhs.copy()
            rhs[1] -= slacks[1] - gap
            shifted = AffineConstraints(cons.mats, rhs, n_ineq=cons.n_ineq)
            for want_hessian in (True, False):
                with pytest.raises(DomainViolation, match="slacks must be positive"):
                    barrier_eval(EvalPoint(x), want_hessian, shifted)
            problem.constraints = shifted
            assert FBetaEvaluator(problem).value(EvalPoint(x), 1.0) == np.inf


class TestType2:
    def test_stationary_point_gives_zero_direction(self):
        # analytic center of {Tr X = 1}: gradient of -ln det is in span{I}
        n = 4
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        bundle = barrier_eval(EvalPoint(np.eye(n) / n))
        step = newton_step_type2(bundle, cons)
        assert step.decrement <= 1e-10
        assert np.linalg.norm(step.direction_X) <= 1e-9

    def test_no_tangent_space_gives_the_zero_step(self):
        # n = 1 with Tr X = 1: the equality row spans svec, so p = 0
        cons = AffineConstraints([np.eye(1)], np.array([1.0]), n_ineq=0)
        step = newton_step_type2(barrier_eval(EvalPoint(np.full((1, 1), 0.5))), cons)
        assert np.array_equal(step.direction_X, np.zeros((1, 1)))
        assert step.decrement == 0.0

    def test_ree_toy_tangency(self, rng):
        problem = probio.build_named("ree-2x2")
        x = probio.random_feasible_point(problem, rng, scale=0.1)
        ev = FBetaEvaluator(problem)
        bundle = ev.x_bundle(EvalPoint(x), beta=2.0)
        step = newton_step_type2(bundle, problem.constraints)
        for a in problem.constraints.mats:
            assert abs(np.tensordot(a, step.direction_X)) <= 1e-9 * (
                1 + np.linalg.norm(step.direction_X))

    def test_decrement_matches_quadratic_form(self, rng):
        problem = probio.build_named("ree-2x2")
        x = probio.random_feasible_point(problem, rng, scale=0.1)
        ev = FBetaEvaluator(problem)
        bundle = ev.x_bundle(EvalPoint(x), beta=2.0)
        step = newton_step_type2(bundle, problem.constraints)
        p = sym_isometry(problem.n).T @ vec(step.direction_X)
        hess = fixed_coordinates(bundle).hessian
        quad = float(np.sqrt(max(p @ (hess @ p), 0.0)))
        assert step.decrement == pytest.approx(quad, rel=1e-8)
        if step.decrement > 1e-6:
            assert step.decrement_innerprod == pytest.approx(step.decrement, rel=1e-7)

    def test_rejects_inequality_rows(self, rng):
        cons = AffineConstraints([rand_sym(rng, 3), np.eye(3)],
                                 np.array([0.5, 1.0]), n_ineq=1)
        bundle = DerivativeBundle(0.0, np.zeros(6), np.eye(6), basis=np.eye(3))
        with pytest.raises(ConstraintError):
            newton_step_type2(bundle, cons)

    def test_hessian_singular_off_the_tangent_space(self, rng):
        # PSD Hessian whose only kernel direction is vec(I), as for the
        # relative entropy at X = I / n: vec(I) is not tangent to Tr X = 1,
        # so the step is still a well-defined descent direction
        n = 3
        ident = vec(np.eye(n))
        g = rng.standard_normal((n * n, n * n))
        proj = np.eye(n * n) - np.outer(ident, ident) / n
        hess = proj @ (g @ g.T + np.eye(n * n)) @ proj
        assert np.linalg.eigvalsh(hess)[0] > -1e-12
        assert np.linalg.norm(hess @ ident) <= 1e-12 * np.linalg.norm(hess)
        p = sym_isometry(n)
        grad = p.T @ vec(rand_sym(rng, n))
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        step = newton_step_type2(DerivativeBundle(0.0, grad, p.T @ hess @ p, basis=np.eye(n)),
                                 cons)
        assert grad @ (p.T @ vec(step.direction_X)) < 0.0
        assert abs(np.trace(step.direction_X)) <= 1e-12 * np.linalg.norm(step.direction_X)
        assert step.decrement > 1e-3
        assert step.decrement_innerprod == pytest.approx(step.decrement, rel=1e-7)

    @pytest.mark.parametrize("curvature", [0.0, 1e-20])
    def test_hessian_singular_on_the_tangent_space_rejected(self, rng, curvature):
        # (numerically) no curvature along E_01 + E_10, which is tangent to
        # Tr X = 1: the reduced Hessian is singular, exactly or to roundoff
        n = 3
        g = rng.standard_normal((n * n, n * n))
        hess = g @ g.T + np.eye(n * n)
        pair = [n, 1]  # full-vec indices of entries (0, 1) and (1, 0)
        hess[pair, :] *= np.sqrt(curvature)
        hess[:, pair] *= np.sqrt(curvature)
        cons = AffineConstraints([np.eye(n)], np.array([1.0]), n_ineq=0)
        p = sym_isometry(n)
        with pytest.raises(SingularKKT):
            newton_step_type2(DerivativeBundle(0.0, p.T @ vec(rand_sym(rng, n)), p.T @ hess @ p,
                                               basis=np.eye(n)), cons)

    def test_singular_hessian_rejected(self):
        cons = AffineConstraints([np.eye(2)], np.array([1.0]), n_ineq=0)
        bad = DerivativeBundle(0.0, np.ones(3), np.zeros((3, 3)), basis=np.eye(2))
        with pytest.raises(SingularKKT):
            newton_step_type2(bad, cons)


def reference_newton_step(bundle, slacks, cons):
    """The Newton step from plain expressions and scipy.linalg's wrappers.

    ``bundle`` leaves out the inequality rows' logs, which enter here as a
    slack block: the slack direction q = -A_ineq p is eliminated, adding
    (A_ineq N)^T diag(1/s^2) (A_ineq N) to the reduced Hessian. The
    production step reads them from the X barrier instead, writes only
    the lower triangle of the tangent block by a rank-2k update and solves
    by two triangular solves, so it rounds differently from these
    expressions. Both take the rotated rows and their QR from the
    production helpers.
    """
    m, k = cons.n_ineq, cons.n_eq
    u = bundle.basis
    rows = cons.rotated_rows(u, slice(None))
    a_in = rows[:m]
    v, vt = equality_qr(rows[m:])
    grad = bundle.gradient
    inv_s = 1.0 / slacks
    h = bundle.hessian
    w = h @ vt
    z = w - 0.5 * v @ (vt.T @ w)
    h_q = h - z @ v.T - v @ z.T
    g_q = grad - v @ (vt.T @ grad)
    a_q = a_in - (a_in @ vt) @ v.T
    b = a_q[:, k:]
    red = h_q[k:, k:] + (b.T * inv_s**2) @ b
    r = g_q[k:] + b.T @ inv_s
    chol = scipy.linalg.cholesky(red, lower=True)
    diag = np.abs(np.diag(chol))
    cond = float((diag.max() / diag.min()) ** 2)
    y = -scipy.linalg.cho_solve((chol, True), r)
    quad = float(np.sum((chol.T @ y) ** 2))
    p_q = np.concatenate([np.zeros(k), y])
    p_s = p_q - vt @ (v.T @ p_q)
    p2 = -(a_in @ p_s)
    p_x = symmetrize(u @ unsvec(p_s) @ u.T)
    rad = float(-(p_s @ grad - p2 @ inv_s))
    return {
        "direction_X": p_x,
        "decrement": float(np.sqrt(max(quad, 0.0))),
        "decrement_innerprod": float(np.sqrt(max(rad, 0.0))),
        "schur_condition": cond,
    }


# each setup returns the bundle without the inequality rows' logs, their
# slacks, the constraints, and F_beta's bundle, which holds those logs

def inequality_only_setup(rng, n=6):
    """Every row an inequality: the tangent space is all of svec."""
    problem = probio.generate_random("type1", {"n": n, "m": 2, "N": 4}, seed=11)
    x = rand_spd(rng, n)
    slacks = rng.uniform(0.5, 2.0, 4)
    mats = problem.constraints.mats
    cons = AffineConstraints(mats, [np.tensordot(a, x) for a in mats] + slacks, n_ineq=4)
    problem.constraints = cons
    return (composite_eval(2.0, problem.terms, [None], x), slacks, cons,
            f_beta_bundle(problem, x))


def mixed_setup(rng):
    problem, x, slacks = type1_setup(rng, n=6)
    return (composite_eval(2.0, problem.terms, [None], x), slacks, problem.constraints,
            f_beta_bundle(problem, x))


def equality_only_setup(rng):
    problem = probio.generate_random("type2", {"n": 4, "m": 1}, seed=5)
    x = probio.random_feasible_point(problem, rng)
    bundle = f_beta_bundle(problem, x, 3.0)
    return bundle, np.zeros(0), problem.constraints, bundle


class TestRotatedRows:
    @pytest.mark.parametrize("kind, dims", [("type1", {"n": 5, "m": 2, "N": 4}),
                                            ("type2", {"n": 4, "m": 2})])
    def test_rows_in_a_basis_against_the_oracle_rotation(self, rng, kind, dims):
        # svec(U.T A_i U) = K svec(A_i), with the oracle's K = P.T (U (x) U).T P
        cons = probio.generate_random(kind, dims, seed=2).constraints
        u, _ = np.linalg.qr(rng.standard_normal((cons.order, cons.order)))
        expected = cons.svec_rows @ eigen_rotation(u).T
        rows = cons.rotated_rows(u, slice(None))
        assert np.abs(rows - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [4, 9, 32])
    def test_a_row_range_gives_the_bits_of_the_whole_rotation(self, rng, n):
        # the X barrier rotates the inequality rows and the Newton step the
        # equality rows, each on its own; together they must read the bits
        # of one rotation of every row. The last range is empty, as the
        # equality rows of an inequality-only problem are
        m = n // 2
        cons = AffineConstraints([rand_sym(rng, n) for _ in range(n)],
                                 rng.standard_normal(n), n_ineq=m)
        u = EvalPoint(rand_spd(rng, n)).basis
        whole = cons.rotated_rows(u, slice(None))
        for rows in (slice(m), slice(m, None), slice(m, m)):
            assert np.array_equal(cons.rotated_rows(u, rows), whole[rows]), rows

    def test_equality_qr_factors_the_rows(self, rng):
        # Q is orthogonal and its trailing columns span the tangent space
        # of the equality rows, the property the Newton step rests on
        cons = probio.generate_random("type1", {"n": 5, "m": 1, "N": 4}, seed=2).constraints
        eq = cons.svec_rows[cons.n_ineq:]
        v, vt = equality_qr(eq)
        q = np.eye(eq.shape[1]) - vt @ v.T  # Q = I - V T V^T
        assert np.allclose(q.T @ q, np.eye(q.shape[0]), rtol=0, atol=1e-14)
        assert np.allclose(eq @ q[:, eq.shape[0]:], 0.0, rtol=0, atol=1e-13)


class TestLapackPath:
    # relative error in the 2-norm, the same for every field; the largest
    # measured at this seed is 7.0e-11 (direction_X, mixed, Schur condition
    # 2.5e3), at one and at two BLAS threads. The slack logs enter the
    # step's Hessian before the projection on the tangent space and the
    # reference's after it, so the two round differently
    RTOL = 1e-9

    @pytest.mark.parametrize("setup, rows", [(mixed_setup, (True, True)),
                                             (equality_only_setup, (False, True)),
                                             (inequality_only_setup, (True, False))],
                             ids=["mixed", "equalities_only", "inequalities_only"])
    def test_step_matches_the_plain_expressions(self, rng, setup, rows):
        bundle, slacks, cons, f_beta = setup(rng)
        assert (cons.n_ineq > 0, cons.n_eq > 0) == rows
        hess = f_beta.hessian.copy()
        step = newton_step_type1(f_beta, cons)
        assert np.array_equal(f_beta.hessian, hess)  # the caller's Hessian is untouched
        for name, expected in reference_newton_step(bundle, slacks, cons).items():
            err = np.linalg.norm(getattr(step, name) - expected)
            assert err <= self.RTOL * np.linalg.norm(expected), name

    def test_nan_hessian_entry_rejected(self, rng):
        *_, cons, bundle = mixed_setup(rng)
        d = bundle.hessian.shape[0]
        for entry in np.ndindex(d, d):
            hess = bundle.hessian.copy()
            hess[entry] = np.nan
            with pytest.raises(SingularKKT):
                newton_step_type1(DerivativeBundle(0.0, bundle.gradient, hess), cons)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_entry_rejected(self, rng, bad):
        problem, x, _ = type1_setup(rng, n=3, m=1, n_total=2)
        bundle = f_beta_bundle(problem, x)
        for i in range(bundle.gradient.size):
            grad = bundle.gradient.copy()
            grad[i] = bad
            with pytest.raises(SingularKKT):
                newton_step_type1(DerivativeBundle(0.0, grad, bundle.hessian),
                                  problem.constraints)


def reference_solve(system, gradient):
    """``ReducedSystem.solve`` written with concatenate, unsvec and symmetrize."""
    v, vt, u = system.v, system.y, system.basis
    k = v.shape[1]
    g_q = gradient - v @ (vt.T @ gradient)
    if system.factor is not None:
        c = blas.dtrsv(system.factor, g_q[k:], lower=1)
        quad = float(c @ c)
        y = -blas.dtrsv(system.factor, c, lower=1, trans=1)
    else:
        y, quad = np.zeros(0), 0.0
    p_q = np.concatenate([np.zeros(k), y])
    p_s = p_q - vt @ (v.T @ p_q)
    return p_s, symmetrize(u @ unsvec(p_s) @ u.T), quad


class TestKeptFactor:
    @pytest.mark.parametrize("setup", [inequality_only_setup, mixed_setup, equality_only_setup],
                             ids=["no-equality-rows", "mixed", "equality-rows-only"])
    def test_solve_equals_the_plain_form_bitwise(self, rng, setup):
        # in place and from the cached layout, with the products skipped
        # when there are no equality rows: the same bits as the plain form
        *_, cons, bundle = setup(rng)
        system = newton_step_type1(bundle, cons).system
        for g in (bundle.gradient, rng.standard_normal(bundle.gradient.size)):
            p_s, p_x, quad = system.solve(g)
            ref_s, ref_x, ref_quad = reference_solve(system, g)
            assert np.array_equal(p_s, ref_s)
            assert np.array_equal(p_x, ref_x)
            assert quad == ref_quad


    # the relative entropy; type1 with inequality rows; type2 (map barrier)
    @pytest.mark.parametrize("kind, dims", [
        ("qkd", {"n": 3, "m": 1}),
        ("type1", {"n": 4, "m": 2, "N": 4}),
        ("type2", {"n": 4, "m": 1}),
    ], ids=["qkd", "type1", "type2"])
    def test_solve_matches_a_fresh_step_bitwise(self, rng, kind, dims):
        # another gradient on the kept factor is the step a fresh KKT call
        # makes with that gradient on the same Hessian, bit for bit; the
        # objective's own gradient is the predictor's tangent
        problem = probio.generate_random(kind, dims, seed=2)
        ev = FBetaEvaluator(problem)
        point = EvalPoint(probio.random_feasible_point(problem, rng))
        bundle = ev.x_bundle(point, 3.0)
        step = newton_step_type1(bundle, problem.constraints)
        grad_f = sum(part.gradient for part in point.parts[:ev.n_scaled])
        for g in (bundle.gradient, grad_f, rng.standard_normal(bundle.gradient.size)):
            fresh = newton_step_type1(DerivativeBundle(bundle.value, g, bundle.hessian,
                                                       bundle.basis), problem.constraints)
            direction, quad = step.solve(g)
            assert np.array_equal(direction, fresh.direction_X)
            assert float(np.sqrt(quad)) == fresh.decrement
            assert np.array_equal(fresh.system.factor, step.system.factor)
        own, quad = step.solve(bundle.gradient)
        assert np.array_equal(own, step.direction_X)
        assert float(np.sqrt(quad)) == step.decrement

    def test_no_tangent_space_gives_the_zero_step(self):
        # one equality row at n = 1: the tangent space is {0}
        cons = AffineConstraints([np.eye(1)], [1.0])
        bundle = DerivativeBundle(0.0, np.array([2.0]), np.eye(1), np.eye(1))
        step = newton_step_type1(bundle, cons)
        assert step.system.factor is None
        direction, quad = step.solve(np.array([5.0]))
        assert np.array_equal(direction, np.zeros((1, 1))) and quad == 0.0
