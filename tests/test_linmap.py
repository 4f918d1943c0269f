import numpy as np
import pytest

from conftest import rand_spd, rand_sym
from qipsolve.errors import ShapeError, ValidationError
from qipsolve.linmap import (
    KrausMap,
    compose,
    identity_map,
    partial_transpose_map,
    pinching_map,
)
from qipsolve.matfun import vec


def random_contraction(rng, k, n, r):
    mats = [rng.standard_normal((k, n)) for _ in range(r)]
    gram = sum(m.T @ m for m in mats)
    scale = np.sqrt(np.linalg.eigvalsh(gram).max() * 1.05)
    return KrausMap([m / scale for m in mats])


class TestKrausMap:
    def test_identity_factor(self, rng):
        m = identity_map(3)
        x = rand_sym(rng, 3)
        assert np.allclose(m.apply(x), x)
        assert np.allclose(m.adjoint_apply(x), x)

    def test_pinching_hand_computation(self, rng):
        z1, z2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        p = pinching_map([z1, z2])
        x = rand_sym(rng, 2)
        assert np.allclose(p.apply(x), np.diag([x[0, 0], x[1, 1]]))

    def test_psd_preserved(self, rng):
        m = random_contraction(rng, 6, 4, 3)
        for _ in range(10):
            x = rand_spd(rng, 4, ridge=0.0)
            assert np.linalg.eigvalsh(m.apply(x)).min() >= -1e-10

    def test_adjoint_pairing(self, rng):
        m = random_contraction(rng, 6, 4, 2)
        for _ in range(5):
            x = rand_sym(rng, 4)
            y = rand_sym(rng, 6)
            lhs = np.tensordot(m.apply(x), y)
            rhs = np.tensordot(x, m.adjoint_apply(y))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_pinching_self_adjoint(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        z = [q[:, :2] @ q[:, :2].T, q[:, 2:] @ q[:, 2:].T]
        p = pinching_map(z)
        x = rand_sym(rng, 4)
        assert np.allclose(p.apply(x), p.adjoint_apply(x), atol=1e-12)

    def test_vectorized_identity(self):
        assert np.allclose(identity_map(3).vectorized_matrix(), np.eye(9))

    def test_vectorized_consistency(self, rng):
        m = random_contraction(rng, 5, 3, 2)
        mat = m.vectorized_matrix()
        for _ in range(5):
            x = rand_sym(rng, 3)
            assert np.linalg.norm(vec(m.apply(x)) - mat @ vec(x)) <= 1e-11

    def test_vectorized_adjoint_is_transpose(self, rng):
        m = random_contraction(rng, 5, 3, 2)
        mat = m.vectorized_matrix()
        adj = KrausMap([k.T for k in m.factors]).vectorized_matrix()
        assert np.allclose(adj, mat.T, atol=1e-13)

    def test_linearity(self, rng):
        m = random_contraction(rng, 5, 4, 2)
        x, y = rand_sym(rng, 4), rand_sym(rng, 4)
        lhs = m.apply(2.5 * x - 0.7 * y)
        rhs = 2.5 * m.apply(x) - 0.7 * m.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))

    def test_trace_contraction(self, rng):
        m = random_contraction(rng, 6, 4, 2)
        assert m.trace_contraction_defect() <= 1e-10
        for _ in range(5):
            x = rand_spd(rng, 4, ridge=0.0)
            assert np.trace(m.apply(x)) <= np.trace(x) + 1e-10

    def test_shape_errors(self, rng):
        m = random_contraction(rng, 5, 3, 2)
        with pytest.raises(ShapeError):
            m.apply(np.eye(4))
        with pytest.raises(ShapeError):
            m.adjoint_apply(np.eye(3))
        with pytest.raises(ShapeError):
            KrausMap([np.zeros((2, 3)), np.zeros((3, 2))])
        with pytest.raises(ShapeError):
            KrausMap([])

    def test_compose(self, rng):
        inner = random_contraction(rng, 6, 3, 2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        outer = pinching_map([q[:, :3] @ q[:, :3].T, q[:, 3:] @ q[:, 3:].T])
        comp = compose(outer, inner)
        x = rand_sym(rng, 3)
        assert np.allclose(comp.apply(x), outer.apply(inner.apply(x)), atol=1e-12)
        assert len(comp.factors) == 4


class TestPinchingValidation:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            pinching_map([0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError):
            pinching_map([np.diag([1.0, 0.0])])

    def test_rejects_asymmetric(self):
        z = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            pinching_map([z, np.eye(2) - z])


class TestPartialTranspose:
    def test_trivial_split(self, rng):
        pt = partial_transpose_map(1, 1)
        x = np.array([[2.0]])
        assert np.allclose(pt.apply(x), x)

    def test_tensor_product(self, rng):
        a, b = rand_sym(rng, 2), rand_sym(rng, 2)
        pt = partial_transpose_map(2, 2)
        assert np.allclose(pt.apply(np.kron(a, b)), np.kron(a, b.T), atol=1e-13)

    def test_trace_preserved(self, rng):
        pt = partial_transpose_map(2, 3)
        for _ in range(5):
            x = rand_sym(rng, 6)
            assert abs(np.trace(pt.apply(x)) - np.trace(x)) <= 1e-13 * (1 + abs(np.trace(x)))

    def test_involution_exact(self, rng):
        pt = partial_transpose_map(3, 2)
        x = rand_sym(rng, 6)
        assert np.array_equal(pt.apply(pt.apply(x)), x)

    def test_vectorized_consistency(self, rng):
        pt = partial_transpose_map(2, 2)
        mat = pt.vectorized_matrix()
        x = rand_sym(rng, 4)
        assert np.allclose(mat @ vec(x), vec(pt.apply(x)), atol=1e-13)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            partial_transpose_map(0, 2)
        with pytest.raises(ShapeError):
            partial_transpose_map(2, 2).apply(np.eye(3))
