"""Hessians on svec coordinates: the layout, each term kind, and the Newton step.

Every term returns a d x d Hessian, d = n(n+1)/2, with
H @ svec(xi) == svec(D^2 f[xi]). These tests check that contract against
the oracles, which reach svec coordinates through their own isometry
``sym_isometry`` (P, with vec(xi) = P svec(xi)).
"""

import numpy as np
import pytest

from conftest import rand_density, rand_spd, rand_sym, rel_err
from qipsolve import probio
from qipsolve.linmap import KrausMap, compose, identity_map, partial_transpose_map, pinching_map
from qipsolve.matfun import NEG_LOG, NEG_SQRT, svec, svec_layout, unsvec, vec
from qipsolve.objectives import TraceObjective, barrier_eval, congruence_batch, map_barrier_eval
from qipsolve.oracle import (
    dense_hessian_reference,
    fd_hessian_action,
    sym_isometry,
    sym_map_matrix,
)
from qipsolve.pathfollow import FBetaEvaluator, _refresh_slacks, _State
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
    "partial-transpose-2x2": lambda rng: partial_transpose_map(2, 2),
    "partial-transpose-2x3": lambda rng: partial_transpose_map(2, 3),
    "partial-transpose-3x2": lambda rng: partial_transpose_map(3, 2),
}


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_congruence_batch_is_the_congruence_of_the_mapped_basis(name, rng):
    # V[c] = O.T L(E_c) O with E_c the c-th column of the oracle's isometry
    lmap = MAP_CASES[name](rng)
    n, k = lmap.in_order, lmap.out_order
    o, _ = np.linalg.qr(rng.standard_normal((k, k)))
    p = sym_isometry(n)
    expected = np.stack([o.T @ lmap.apply(p[:, c].reshape((n, n), order="F")) @ o
                         for c in range(p.shape[1])])
    v = congruence_batch(lmap, o)
    assert v.shape == (n * (n + 1) // 2, k, k)
    assert np.abs(v - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())


def fd_svec_hessian(grad_fn, x, h=None):
    """d x d Hessian from central differences of the gradient along each svec direction."""
    n = x.shape[0]
    p = sym_isometry(n)
    cols = [p.T @ fd_hessian_action(grad_fn, x, (p[:, a]).reshape((n, n), order="F"), h=h)
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
    obj = TraceObjective(rand_spd(rng, 4, 0.1), NEG_LOG, map=partial_transpose_map(2, 2))
    x = separable_ppt_state(rng, 2, 2)
    return obj.evaluate, x, dense_hessian_reference(obj, x)


def _qre(rng):
    obj = QreObjective(random_kraus(rng, 6, 3, 0.3), random_kraus(rng, 6, 3, 0.3))
    return obj.evaluate, rand_density(rng, 3), None


def _logdet(rng):
    x = rand_spd(rng, 4)
    p, xinv = sym_isometry(4), np.linalg.inv(x)
    return barrier_eval, x, p.T @ np.kron(xinv, xinv) @ p


def _logdet_map(rng):
    pt = partial_transpose_map(2, 2)
    x = separable_ppt_state(rng, 2, 2)
    mp, yinv = sym_map_matrix(pt), np.linalg.inv(pt.apply(x))
    return ((lambda y, want_hessian=True: map_barrier_eval(pt, y, want_hessian)), x,
            mp.T @ np.kron(yinv, yinv) @ mp)


# term kind -> rng -> (evaluate(x, want_hessian), x, dense reference or None)
TERM_CASES = {
    "trace": _trace,
    "trace-kraus": _trace_kraus,
    "trace-partial-transpose": _trace_partial_transpose,
    "qre": _qre,
    "logdet": _logdet,
    "logdet-map": _logdet_map,
}


@pytest.mark.parametrize("kind", sorted(TERM_CASES))
def test_term_hessian_against_the_oracles(kind, rng):
    evaluate, x, reference = TERM_CASES[kind](rng)
    n = x.shape[0]
    d = n * (n + 1) // 2
    h = evaluate(x, True).hessian
    assert h.shape == (d, d)
    assert np.array_equal(h, h.T)

    def grad(y):
        return evaluate(y, True).gradient

    # the whole matrix against central differences along every svec direction
    assert rel_err(h, fd_svec_hessian(grad, x)) <= 1e-5
    if reference is not None:
        assert np.linalg.norm(h - reference) <= 1e-10 * np.linalg.norm(reference)

    p = sym_isometry(n)
    for _ in range(3):
        xi = rand_sym(rng, n) * 0.1
        act_fd = p.T @ fd_hessian_action(grad, x, xi)
        assert rel_err(h @ (p.T @ vec(xi)), act_fd) <= 1e-5


def test_qre_hessian_annihilates_the_point(rng):
    # f(tX) = t f(X) up to the eps perturbation: X is a null direction
    obj = QreObjective(random_kraus(rng, 6, 3, 0.3), random_kraus(rng, 6, 3, 0.3))
    x = rand_density(rng, 3)
    h = qre_eval(obj, x).hessian
    assert np.linalg.norm(h @ svec(x)) <= 1e-8 * np.linalg.norm(h)


def dense_kkt_step(bundle, slacks, cons):
    """Newton direction of the full saddle-point system on svec coordinates.

    Unknowns [p; q; lambda_ineq; lambda_eq] with
    H p - A_in^T l_in - A_eq^T l_eq = -g, D q - l_in = 1/s,
    A_in p + q = 0, A_eq p = 0, built with the oracle's isometry.
    """
    n, m = cons.order, cons.n_ineq
    p_iso = sym_isometry(n)
    a = cons.vec_stack @ p_iso
    d, n_rows = a.shape[1], a.shape[0]
    size = d + m + n_rows
    kkt = np.zeros((size, size))
    kkt[:d, :d] = bundle.hessian
    kkt[:d, d + m:] = -a.T
    kkt[d:d + m, d:d + m] = np.diag(1.0 / slacks**2)
    kkt[d:d + m, d + m:d + 2 * m] = -np.eye(m)
    kkt[d + m:, :d] = a
    kkt[d + m:d + 2 * m, d:d + m] = np.eye(m)
    rhs = np.concatenate([-(p_iso.T @ bundle.gradient), 1.0 / slacks, np.zeros(n_rows)])
    sol = np.linalg.solve(kkt, rhs)
    return p_iso @ sol[:d], sol[d:d + m], sol[d + m:]


@pytest.mark.parametrize("kind, dims", [
    ("type1", {"n": 4, "m": 2, "N": 4}),
    ("type2", {"n": 4, "m": 1}),
    ("qkd", {"n": 3, "m": 1}),
])
def test_newton_step_matches_the_dense_kkt_system(kind, dims, rng):
    problem = probio.generate_random(kind, dims, seed=3)
    x = probio.random_feasible_point(problem, rng)
    state = _State(x=x, slacks=_refresh_slacks(problem, x))
    ev = FBetaEvaluator(problem)
    bundle = ev.hessian_bundle(x, 5.0)
    step = ev.newton_step(bundle, state)
    p, q, lam = dense_kkt_step(bundle, state.slacks, problem.constraints)
    assert rel_err(vec(step.direction_X), p) <= 1e-8
    assert rel_err(step.direction_slack, q) <= 1e-8
    assert rel_err(step.multipliers, lam) <= 1e-8
