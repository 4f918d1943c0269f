"""Every layer the span tracer wraps must exist in the program.

The tracer (``perfbench/tracer.py``) patches functions and methods by
name; a renamed or deleted layer would otherwise surface only in the
traced benchmark runs. Two layers are named by their ``want_hessian``
flag, which the tracer reads by position: the flag must sit there. And
a solve must reach the matfun and KKT layers through the names the
tracer wraps, or their per-layer counts would read 0.
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import qipsolve
from qipsolve import objectives, pathfollow, probio

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

TARGETS = [(owner, attr) for owner, attr, _ in tracer.layer_targets(qipsolve)]


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_traced_layer_resolves(owner, attr):
    # a class owner means a method defined on that class itself
    found = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    assert callable(found)


# (owner, attribute, position of want_hessian, self counted) of every layer
# whose span name depends on the flag
FLAGGED = [(owner, attr, inspect.getclosurevars(name).nonlocals["pos"])
           for owner, attr, name in tracer.layer_targets(qipsolve) if callable(name)]


@pytest.mark.parametrize("owner, attr, pos", FLAGGED,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in FLAGGED])
def test_hessian_flag_sits_where_the_tracer_reads_it(owner, attr, pos):
    # a flag moved elsewhere would record Hessian evaluations as value
    # evaluations; when the flag is not passed, the tracer assumes True
    fn = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
    params = list(inspect.signature(fn).parameters.values())
    assert params[pos].name == "want_hessian"
    assert params[pos].default is True


@pytest.mark.parametrize("kind, dims", [("type1", {"n": 4, "generator": "inverse"}),
                                        ("type2", {"n": 4, "n1": 2, "n2": 2})])
def test_traced_layers_are_reached_at_their_import_sites(monkeypatch, kind, dims):
    # the tracer wraps a function where the program looks it up; a layer
    # the solver reached through a private helper instead would read 0
    # calls in the per-layer record
    counts = Counter()

    def count(module, name, counted_as=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[counted_as(args, kwargs) if counted_as else name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("divided_diff_1", "second_divided_diff_tensor", "spectral_decompose"):
        count(objectives, name)
    count(pathfollow, "newton_step_type1")
    # phi_eval(obj, point, want_hessian): the trace objective's evaluations
    count(objectives, "phi_eval",
          lambda args, kwargs: "phi_hessian" if (args[2] if len(args) > 2 else
                                                 kwargs.get("want_hessian", True)) else "phi_value")

    report = pathfollow.solve(probio.generate_random(kind, dims, seed=1000))
    assert report.termination == "Converged"
    assert counts["phi_hessian"] > 0
    assert counts["divided_diff_1"] == counts["phi_hessian"]
    assert counts["second_divided_diff_tensor"] == counts["phi_hessian"]
    assert counts["spectral_decompose"] > 0
    assert counts["newton_step_type1"] >= report.total_newton > 0
