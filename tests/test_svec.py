"""Hessians on svec coordinates: the layout, each term kind, and the Newton step.

Every term returns a d x d Hessian, d = n(n+1)/2, on the svec
coordinates of xi~ = U.T xi U in the eigenbasis U of X that the bundle
carries: H @ svec(xi~) == svec(U.T D^2 f[xi] U). These tests check that
contract against the oracles, which reach svec coordinates through their
own isometry ``sym_isometry`` (P, with vec(xi) = P svec(xi)), and the
eigenbasis through K = P.T (U (x) U).T P, built here with ``np.kron``.
"""

import numpy as np
import pytest

from conftest import rand_density, rand_spd, rand_sym, rel_err
from qipsolve import probio
from qipsolve.kkt import newton_step_type1
from qipsolve.linmap import KrausMap, PartialTranspose, compose, identity_map, pinching_map
from qipsolve.matfun import (
    INVERSE,
    NEG_LOG,
    NEG_SQRT,
    neg_power,
    svec,
    svec_layout,
    unsvec,
    vec,
)
from qipsolve.objectives import (
    EvalPoint,
    TraceObjective,
    barrier_eval,
    composite_eval,
    congruence_batch,
    map_barrier_eval,
    phi_eval,
)
from qipsolve.oracle import (
    dense_hessian_reference,
    fd_gradient,
    fd_hessian_action,
    fixed_coordinates,
    sym_isometry,
    sym_map_matrix,
)
from qipsolve.pathfollow import FBetaEvaluator
from qipsolve.qre import QreObjective, qre_eval


class TestLayout:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_svec_is_the_oracle_isometry(self, rng, n):
        a = rand_sym(rng, n)
        p = sym_isometry(n)
        assert np.allclose(svec(a), p.T @ vec(a), rtol=0, atol=1e-14)
        assert np.allclose(vec(unsvec(svec(a))), vec(a), rtol=0, atol=1e-14)
        lay = svec_layout(n)
        assert lay.weight.size == n * (n + 1) // 2
        assert svec_layout(n) is lay

    def test_inner_product_is_kept(self, rng):
        a, b = rand_sym(rng, 4), rand_sym(rng, 4)
        assert svec(a) @ svec(b) == pytest.approx(np.tensordot(a, b), rel=1e-14)

    def test_unsvec_rejects_a_non_triangular_length(self):
        with pytest.raises(Exception, match="n\\(n\\+1\\)/2"):
            unsvec(np.ones(4))


def _pinched_kraus(rng):
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    pinch = pinching_map([q[:, :2] @ q[:, :2].T, q[:, 2:] @ q[:, 2:].T])
    return compose(pinch, KrausMap([rng.standard_normal((5, 3)) for _ in range(2)]))


# map name -> rng -> map
MAP_CASES = {
    "kraus-r1": lambda rng: KrausMap([rng.standard_normal((5, 3))]),
    "kraus-r3": lambda rng: KrausMap([rng.standard_normal((4, 3)) for _ in range(3)]),
    "pinching-after-kraus": _pinched_kraus,
    "identity": lambda rng: identity_map(4),
    "partial-transpose-2x2": lambda rng: PartialTranspose(2, 2),
    "partial-transpose-2x3": lambda rng: PartialTranspose(2, 3),
    "partial-transpose-3x2": lambda rng: PartialTranspose(3, 2),
}


def eigen_rotation(u):
    """K = P.T (U (x) U).T P, with svec(U.T xi U) = K svec(xi), from P and np.kron."""
    p = sym_isometry(u.shape[0])
    return p.T @ np.kron(u, u).T @ p


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_congruence_batch_is_the_congruence_of_the_mapped_basis(name, rng):
    # V[c] = O.T L(U E_c U.T) O with E_c the c-th column of the oracle's isometry
    lmap = MAP_CASES[name](rng)
    n, k = lmap.in_order, lmap.out_order
    o, _ = np.linalg.qr(rng.standard_normal((k, k)))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = sym_isometry(n)
    expected = np.stack([o.T @ lmap.apply(u @ p[:, c].reshape((n, n), order="F") @ u.T) @ o
                         for c in range(p.shape[1])])
    v = congruence_batch(lmap, o, u)
    assert v.shape == (n * (n + 1) // 2, k, k)
    assert np.abs(v - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())


def fd_svec_hessian(grad_fn, x, h=None):
    """d x d Hessian from central differences of the gradient along each svec direction."""
    n = x.shape[0]
    p = sym_isometry(n)
    cols = [fd_hessian_action(grad_fn, x, (p[:, a]).reshape((n, n), order="F"), h=h)
            for a in range(p.shape[1])]
    return np.stack(cols, axis=1)


def separable_ppt_state(rng, n1, n2):
    x = sum(np.kron(rand_spd(rng, n1, 0.2), rand_spd(rng, n2, 0.2)) for _ in range(3))
    x = x / np.trace(x) + 0.05 * np.eye(n1 * n2)
    return x / np.trace(x)


def random_kraus(rng, k, n, scale):
    return KrausMap([rng.standard_normal((k, n)) * scale for _ in range(2)])


def _trace(rng):
    obj = TraceObjective(rand_spd(rng, 4, 0.1), NEG_SQRT)
    x = rand_spd(rng, 4)
    return obj.evaluate, x, dense_hessian_reference(obj, x)


def _trace_kraus(rng):
    obj = TraceObjective(rand_spd(rng, 5, 0.1), NEG_LOG, map=random_kraus(rng, 5, 3, 0.4))
    x = rand_spd(rng, 3)
    return obj.evaluate, x, dense_hessian_reference(obj, x)


def _trace_partial_transpose(rng):
    obj = TraceObjective(rand_spd(rng, 4, 0.1), NEG_LOG, map=PartialTranspose(2, 2))
    x = separable_ppt_state(rng, 2, 2)
    return obj.evaluate, x, dense_hessian_reference(obj, x)


def _qre(rng):
    obj = QreObjective(random_kraus(rng, 6, 3, 0.3), random_kraus(rng, 6, 3, 0.3))
    return obj.evaluate, rand_density(rng, 3), None


def _logdet(rng):
    x = rand_spd(rng, 4)
    p, xinv = sym_isometry(4), np.linalg.inv(x)
    return barrier_eval, x, p.T @ np.kron(xinv, xinv) @ p


def _logdet_ineq(rng):
    # the X barrier with inequality rows: -ln det X - sum_i ln s_i, whose
    # Hessian adds svec(A_i) svec(A_i)^T / s_i^2 to the log-det part
    problem = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=4)
    cons = problem.constraints
    x = problem.start  # well inside: min eigenvalue 0.08, slacks 0.62 and 0.08
    slacks = cons.rhs[:2] - np.array([np.tensordot(a, x) for a in cons.mats[:2]])
    p, xinv = sym_isometry(4), np.linalg.inv(x)
    rows = np.stack([p.T @ vec(a) for a in cons.mats[:2]])
    return ((lambda y, want_hessian=True: barrier_eval(y, want_hessian, cons)), x,
            p.T @ np.kron(xinv, xinv) @ p + (rows.T / slacks**2) @ rows)


def _logdet_map(rng):
    pt = PartialTranspose(2, 2)
    x = separable_ppt_state(rng, 2, 2)
    mp, yinv = sym_map_matrix(pt), np.linalg.inv(pt.apply(x))
    return ((lambda y, want_hessian=True: map_barrier_eval(pt, y, want_hessian)), x,
            mp.T @ np.kron(yinv, yinv) @ mp)


# term kind -> rng -> (evaluate(point, want_hessian), x, dense reference or None)
TERM_CASES = {
    "trace": _trace,
    "trace-kraus": _trace_kraus,
    "trace-partial-transpose": _trace_partial_transpose,
    "qre": _qre,
    "logdet": _logdet,
    "logdet-ineq": _logdet_ineq,
    "logdet-map": _logdet_map,
}


@pytest.mark.parametrize("kind", sorted(TERM_CASES))
def test_term_hessian_against_the_oracles(kind, rng):
    evaluate, x, reference = TERM_CASES[kind](rng)
    n = x.shape[0]
    d = n * (n + 1) // 2
    b = evaluate(EvalPoint(x), True)
    h = b.hessian
    assert h.shape == (d, d)
    assert np.array_equal(h, h.T)
    k = eigen_rotation(b.basis)
    assert np.allclose(b.basis.T @ x @ b.basis, np.diag(np.diag(b.basis.T @ x @ b.basis)),
                       rtol=0, atol=1e-12 * np.abs(x).max())  # U diagonalizes X

    def grad(y):
        # on the fixed coordinates: the basis moves with X, so the finite
        # difference of an eigen-coordinate gradient is no Hessian action
        by = evaluate(EvalPoint(y), True)
        return eigen_rotation(by.basis).T @ by.gradient

    # the gradient and the whole matrix, rotated back, against central
    # differences along every svec direction
    g_fd = sym_isometry(n).T @ fd_gradient(lambda y: evaluate(EvalPoint(y), False).value, x)
    assert rel_err(k.T @ b.gradient, g_fd) <= 1e-6
    assert rel_err(k.T @ h @ k, fd_svec_hessian(grad, x)) <= 1e-5
    if reference is not None:
        expected = k @ reference @ k.T
        assert np.linalg.norm(h - expected) <= 1e-12 * np.linalg.norm(expected)

    p = sym_isometry(n)
    for _ in range(3):
        xi = rand_sym(rng, n) * 0.1
        act_fd = fd_hessian_action(grad, x, xi)
        assert rel_err(k.T @ (h @ (k @ (p.T @ vec(xi)))), act_fd) <= 1e-5


@pytest.mark.parametrize("kind", ["logdet", "logdet-ineq", "logdet-map"])
def test_barrier_gradient_against_the_closed_form(kind, rng):
    evaluate, x, _ = TERM_CASES[kind](rng)
    b = evaluate(EvalPoint(x), True)
    if kind == "logdet":
        g = -np.linalg.inv(x)
    elif kind == "logdet-ineq":
        # -X^-1 + sum_i A_i / s_i
        cons = probio.generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=4).constraints
        slacks = cons.rhs[:2] - np.array([np.tensordot(a, x) for a in cons.mats[:2]])
        g = -np.linalg.inv(x) + np.tensordot(1.0 / slacks, cons.mats[:2], axes=1)
    else:
        pt = PartialTranspose(2, 2)
        g = -pt.adjoint_apply(np.linalg.inv(pt.apply(x)))
    expected = eigen_rotation(b.basis) @ (sym_isometry(x.shape[0]).T @ vec(g))
    assert np.linalg.norm(b.gradient - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_logdet_hessian_is_diagonal_in_the_eigenbasis(n, rng):
    x = rand_spd(rng, n)
    b = barrier_eval(EvalPoint(x))
    lam = np.diag(b.basis.T @ x @ b.basis)
    rows, cols = np.triu_indices(n)  # the oracle isometry's order of the pairs
    expected = 1.0 / (lam[rows] * lam[cols])
    assert np.count_nonzero(b.hessian - np.diag(np.diag(b.hessian))) == 0
    assert np.allclose(np.diag(b.hessian), expected, rtol=1e-12, atol=0)
    assert np.allclose(b.gradient[rows == cols], -1.0 / lam, rtol=1e-12, atol=0)
    assert np.count_nonzero(b.gradient[rows != cols]) == 0


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("gen", [INVERSE, NEG_LOG, NEG_SQRT, neg_power(0.37)],
                         ids=lambda g: g.kind)
def test_trace_hessian_couples_only_pairs_that_share_an_index(n, gen, rng):
    obj = TraceObjective(rand_spd(rng, n, 0.1), gen)
    h = phi_eval(obj, EvalPoint(rand_spd(rng, n))).hessian
    rows, cols = np.triu_indices(n)
    pair = np.stack([rows, cols], axis=1)
    shares = (pair[:, None, :, None] == pair[None, :, None, :]).any(axis=(2, 3))
    assert np.count_nonzero(h[~shares]) == 0
    assert np.count_nonzero(h[shares]) == shares.sum()  # and dense on the pattern


def test_qre_hessian_annihilates_the_point(rng):
    # f(tX) = t f(X) up to the eps perturbation: X is a null direction
    obj = QreObjective(random_kraus(rng, 6, 3, 0.3), random_kraus(rng, 6, 3, 0.3))
    x = rand_density(rng, 3)
    b = qre_eval(obj, EvalPoint(x))
    h, u = b.hessian, b.basis
    assert np.linalg.norm(h @ svec(u.T @ x @ u)) <= 1e-8 * np.linalg.norm(h)


def dense_kkt_step(bundle, slacks, cons):
    """Newton direction (p, q) of the full saddle-point system on svec coordinates.

    The inequality rows enter by slack variables s = b - A_in(X) with
    their own logs, so ``bundle`` holds the rest of F_beta. Unknowns
    [p; q; lambda_ineq; lambda_eq] with
    H p - A_in^T l_in - A_eq^T l_eq = -g, D q - l_in = 1/s,
    A_in p + q = 0, A_eq p = 0, D = diag(1/s^2), built with the oracle's
    isometry on the fixed coordinates svec(xi) (``bundle`` is on them).
    """
    n, m = cons.order, cons.n_ineq
    p_iso = sym_isometry(n)
    a = np.stack([vec(a_i) for a_i in cons.mats]) @ p_iso
    d, n_rows = a.shape[1], a.shape[0]
    size = d + m + n_rows
    kkt = np.zeros((size, size))
    kkt[:d, :d] = bundle.hessian
    kkt[:d, d + m:] = -a.T
    kkt[d:d + m, d:d + m] = np.diag(1.0 / slacks**2)
    kkt[d:d + m, d + m:d + 2 * m] = -np.eye(m)
    kkt[d + m:, :d] = a
    kkt[d + m:d + 2 * m, d:d + m] = np.eye(m)
    rhs = np.concatenate([-bundle.gradient, 1.0 / slacks, np.zeros(n_rows)])
    sol = np.linalg.solve(kkt, rhs)
    return p_iso @ sol[:d], sol[d:d + m]


@pytest.mark.parametrize("kind, dims", [
    ("type1", {"n": 4, "m": 2, "N": 4}),
    ("type2", {"n": 4, "m": 1}),
    ("qkd", {"n": 3, "m": 1}),
    # d = 136: the blocked BLAS/LAPACK kernels, not only the small ones
    ("type1", {"n": 16, "m": 4, "N": 12}),
])
def test_newton_step_matches_the_dense_kkt_system(kind, dims, rng):
    # the step of F_beta, whose X barrier holds the inequality rows' logs,
    # against the saddle-point system with an explicit slack block
    problem = probio.generate_random(kind, dims, seed=3)
    cons = problem.constraints
    m = cons.n_ineq
    x = probio.random_feasible_point(problem, rng)
    slacks = cons.rhs[:m] - np.array([np.tensordot(a, x) for a in cons.mats[:m]])
    step = newton_step_type1(FBetaEvaluator(problem).hessian_bundle(EvalPoint(x), 5.0), cons)
    maps = [None] if problem.constraint_map is None else [None, problem.constraint_map]
    rest = composite_eval(5.0, problem.terms, maps, x)
    p, q = dense_kkt_step(fixed_coordinates(rest), slacks, cons)
    assert rel_err(vec(step.direction_X), p) <= 1e-8
    assert np.abs(q + np.array([np.tensordot(a, step.direction_X) for a in cons.mats[:m]])).max(
        initial=0.0) <= 1e-8 * (1.0 + np.abs(q).max(initial=0.0))
