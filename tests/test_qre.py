import re

import numpy as np
import pytest

from conftest import rand_density, rand_spd, rand_sym, rel_err
from qipsolve import objectives, probio
from qipsolve.errors import DomainViolation, ShapeError, ValidationError
from qipsolve.linmap import KrausMap, compose, identity_map, pinching_map
from qipsolve.matfun import SpectralDecomp, vec
from qipsolve.objectives import EvalPoint
from qipsolve.oracle import fd_gradient, fd_hessian_action, fixed_coordinates, sym_isometry
from qipsolve.qre import QreObjective, qre_eval


def random_contraction(rng, k, n, r):
    mats = [rng.standard_normal((k, n)) for _ in range(r)]
    gram = sum(m.T @ m for m in mats)
    scale = np.sqrt(np.linalg.eigvalsh(gram).max() * 1.05)
    return KrausMap([m / scale for m in mats])


def random_instance(rng, n=4, k=8):
    return QreObjective(random_contraction(rng, k, n, 2),
                        random_contraction(rng, k, n, 2))


def coordinate_pinching(n):
    return pinching_map([np.diag((np.arange(n) == i).astype(float)) for i in range(n)])


class TestConstruction:
    def test_order_mismatch(self, rng):
        with pytest.raises(ShapeError):
            QreObjective(identity_map(3), identity_map(4))

    def test_perturbation_positive(self):
        with pytest.raises(ValidationError):
            QreObjective(identity_map(2), identity_map(2), eps_pert=0.0)


class TestQreEval:
    def test_equal_maps_give_zero(self, rng):
        obj = QreObjective(identity_map(3), pinching_map([np.eye(3)]))
        for _ in range(5):
            x = rand_spd(rng, 3)
            b = qre_eval(obj, EvalPoint(x))
            assert abs(b.value) <= 1e-12 * (1 + np.trace(x))
            assert np.linalg.norm(b.gradient) <= 1e-10

    def test_pinched_state_gives_zero(self):
        obj = QreObjective(identity_map(2), coordinate_pinching(2))
        b = qre_eval(obj, EvalPoint(np.diag([0.5, 0.5])), want_hessian=False)
        assert abs(b.value) <= 1e-12

    def test_gradient_hessian_vs_fd(self, rng):
        obj = random_instance(rng, n=4, k=8)
        x = rand_density(rng, 4)
        b = fixed_coordinates(qre_eval(obj, EvalPoint(x)))
        p = sym_isometry(4)
        g_fd = fd_gradient(lambda y: qre_eval(obj, EvalPoint(y), False).value, x)
        assert rel_err(b.gradient, p.T @ g_fd) <= 1e-5
        xi = rand_sym(rng, 4) * 0.1
        act_fd = fd_hessian_action(
            lambda y: fixed_coordinates(qre_eval(obj, EvalPoint(y))).gradient, x, xi)
        assert rel_err(b.hessian @ (p.T @ vec(xi)), act_fd) <= 1e-5

    def test_domain(self, rng):
        obj = random_instance(rng)
        with pytest.raises(DomainViolation):
            qre_eval(obj, EvalPoint(-np.eye(4)))

    @pytest.mark.parametrize("want_hessian", [True, False])
    def test_domain_violation_names_the_image(self, want_hessian, rng, monkeypatch):
        # the maps keep PSD inputs PSD, so each image is made indefinite by
        # negating the spectrum of its decomposition: X, Y1, Y2 in that order
        obj = random_instance(rng)
        x = rand_density(rng, 4)
        real = objectives.spectral_decompose
        for image, name in enumerate(["relative entropy argument X",
                                      "L1(X) + eps*I", "L2(X) + eps*I"]):
            calls = []

            def negated(y):
                dec = real(y)
                calls.append(None)
                return SpectralDecomp(dec.U, -dec.lam) if len(calls) == image + 1 else dec

            monkeypatch.setattr(objectives, "spectral_decompose", negated)
            with pytest.raises(DomainViolation,
                               match=re.escape(name) + " must be positive definite"):
                qre_eval(obj, EvalPoint(x), want_hessian)


class TestHessianStructure:
    def test_hessian_is_exactly_symmetric(self, rng):
        obj = random_instance(rng)
        for _ in range(3):
            h = qre_eval(obj, EvalPoint(rand_density(rng, 4))).hessian
            assert np.array_equal(h, h.T)

    def test_psd_on_feasible_points(self, rng):
        obj = random_instance(rng)
        for _ in range(3):
            x = rand_density(rng, 4)
            h = qre_eval(obj, EvalPoint(x)).hessian
            hnorm = np.linalg.norm(h, 2)
            assert np.linalg.eigvalsh(h).min() >= -1e-6 * hnorm

    def test_perturbation_continuity(self, rng):
        l1 = random_contraction(rng, 8, 4, 2)
        l2 = random_contraction(rng, 8, 4, 2)
        x = rand_density(rng, 4)
        v12 = qre_eval(QreObjective(l1, l2, eps_pert=1e-12), EvalPoint(x), False).value
        v10 = qre_eval(QreObjective(l1, l2, eps_pert=1e-10), EvalPoint(x), False).value
        assert abs(v12 - v10) <= 1e-6

    @pytest.mark.parametrize("n", [3, 4])
    def test_value_falls_as_the_perturbation_grows(self, n):
        # D(L1(X) + eI || L2(X) + eI) does not increase with e (data
        # processing); at QKD starts and feasible points it falls strictly
        for seed in range(6):
            problem = probio.generate_random("qkd", {"n": n}, seed=seed)
            (obj,) = problem.terms
            rng = np.random.default_rng(seed)
            for x in (problem.start, probio.random_feasible_point(problem, rng)):
                values = [qre_eval(QreObjective(obj.l1, obj.l2, eps_pert=e), EvalPoint(x),
                                   False).value for e in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1)]
                assert all(b < a for a, b in zip(values, values[1:])), (seed, values)


class TestNonnegativity:
    def test_trivial_pinching(self, rng):
        obj = QreObjective(identity_map(3), pinching_map([np.eye(3)]))
        assert abs(qre_eval(obj, EvalPoint(rand_spd(rng, 3)), want_hessian=False).value) <= 1e-10

    def test_random_pinching_of_output(self, rng):
        l1 = random_contraction(rng, 8, 4, 2)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        pinch = pinching_map([q[:, :3] @ q[:, :3].T, q[:, 3:] @ q[:, 3:].T])
        obj = QreObjective(l1, compose(pinch, l1))
        for _ in range(5):
            value = qre_eval(obj, EvalPoint(rand_density(rng, 4)), want_hessian=False).value
            assert value >= -1e-8

    def test_diagonal_state_coordinate_pinching(self, rng):
        obj = QreObjective(identity_map(3), coordinate_pinching(3))
        d = np.diag(rng.uniform(0.1, 1.0, size=3))
        assert abs(qre_eval(obj, EvalPoint(d), want_hessian=False).value) <= 1e-10
