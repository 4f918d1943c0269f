import numpy as np
import pytest

from qipsolve.matfun import symmetrize


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_sym(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n))) * scale


def rand_spd(rng, n, ridge=0.5):
    g = rng.standard_normal((n, n))
    return symmetrize(g @ g.T + ridge * np.eye(n))


def rand_density(rng, n):
    x = rand_spd(rng, n, ridge=0.3)
    return x / np.trace(x)


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def non_finite_start(start, bad):
    """A copy of ``start`` with one off-diagonal entry "inf" or "nan", or "all-nan"."""
    x = np.array(start, dtype=float)
    if bad == "all-nan":
        x[:] = np.nan
    else:
        x[0, 1] = float(bad)
    return x
