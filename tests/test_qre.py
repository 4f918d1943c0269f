import re

import numpy as np
import pytest

from conftest import rand_density, rand_spd, rand_sym, rel_err
from qipsolve import objectives
from qipsolve.errors import DomainViolation, ShapeError, ValidationError
from qipsolve.linmap import KrausMap, compose, identity_map, pinching_map
from qipsolve.matfun import SpectralDecomp, vec
from qipsolve.oracle import fd_gradient, fd_hessian_action, sym_isometry
from qipsolve.qre import QreObjective, qre_eval, qre_hessian_asymmetry


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
            b = qre_eval(obj, x)
            assert abs(b.value) <= 1e-12 * (1 + np.trace(x))
            assert np.linalg.norm(b.gradient) <= 1e-10

    def test_pinched_state_gives_zero(self):
        obj = QreObjective(identity_map(2), coordinate_pinching(2))
        b = qre_eval(obj, np.diag([0.5, 0.5]), want_hessian=False)
        assert abs(b.value) <= 1e-12

    def test_gradient_hessian_vs_fd(self, rng):
        obj = random_instance(rng, n=4, k=8)
        x = rand_density(rng, 4)
        b = qre_eval(obj, x)
        g_fd = fd_gradient(lambda y: qre_eval(obj, y, False).value, x)
        assert rel_err(b.gradient, g_fd) <= 1e-5
        xi = rand_sym(rng, 4) * 0.1
        act_fd = fd_hessian_action(lambda y: qre_eval(obj, y).gradient, x, xi)
        p = sym_isometry(4)
        assert rel_err(b.hessian @ (p.T @ vec(xi)), p.T @ act_fd) <= 1e-5

    def test_domain(self, rng):
        obj = random_instance(rng)
        with pytest.raises(DomainViolation):
            qre_eval(obj, -np.eye(4))

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
                qre_eval(obj, x, want_hessian)


class TestHessianStructure:
    def test_symmetrization_residual(self, rng):
        obj = random_instance(rng)
        for _ in range(3):
            x = rand_density(rng, 4)
            assert qre_hessian_asymmetry(obj, x) <= 1e-8

    def test_psd_on_feasible_points(self, rng):
        obj = random_instance(rng)
        for _ in range(3):
            x = rand_density(rng, 4)
            h = qre_eval(obj, x).hessian
            hnorm = np.linalg.norm(h, 2)
            assert np.linalg.eigvalsh(h).min() >= -1e-6 * hnorm

    def test_perturbation_continuity(self, rng):
        l1 = random_contraction(rng, 8, 4, 2)
        l2 = random_contraction(rng, 8, 4, 2)
        x = rand_density(rng, 4)
        v12 = qre_eval(QreObjective(l1, l2, eps_pert=1e-12), x, False).value
        v10 = qre_eval(QreObjective(l1, l2, eps_pert=1e-10), x, False).value
        assert abs(v12 - v10) <= 1e-6


class TestNonnegativity:
    def test_trivial_pinching(self, rng):
        obj = QreObjective(identity_map(3), pinching_map([np.eye(3)]))
        assert abs(qre_eval(obj, rand_spd(rng, 3), want_hessian=False).value) <= 1e-10

    def test_random_pinching_of_output(self, rng):
        l1 = random_contraction(rng, 8, 4, 2)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        pinch = pinching_map([q[:, :3] @ q[:, :3].T, q[:, 3:] @ q[:, 3:].T])
        obj = QreObjective(l1, compose(pinch, l1))
        for _ in range(5):
            assert qre_eval(obj, rand_density(rng, 4), want_hessian=False).value >= -1e-8

    def test_diagonal_state_coordinate_pinching(self, rng):
        obj = QreObjective(identity_map(3), coordinate_pinching(3))
        d = np.diag(rng.uniform(0.1, 1.0, size=3))
        assert abs(qre_eval(obj, d, want_hessian=False).value) <= 1e-10
