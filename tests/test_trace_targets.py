"""Every layer the span tracer wraps must exist in the program.

The tracer (``perfbench/tracer.py``) patches functions and methods by
name; a renamed or deleted layer would otherwise surface only in the
traced benchmark runs.
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
