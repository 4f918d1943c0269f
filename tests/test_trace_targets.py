"""Every layer the span tracer wraps must exist in the program.

The tracer (``perfbench/tracer.py``) patches functions and methods by
name; a renamed or deleted layer would otherwise surface only in the
traced benchmark runs. Two layers are named by their ``want_hessian``
flag, which the tracer reads by position: the flag must sit there.
"""

import inspect
import sys
from pathlib import Path

import pytest

import qipsolve

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
