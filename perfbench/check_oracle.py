"""Tests of the benchmark itself, kept out of benchmark runs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/check_oracle.py

The file name keeps the repository's default ``pytest`` collection away
from it, so the repository's own test run is unchanged. The reference
optimizer can end inconclusive; that instance is then skipped.
"""

from __future__ import annotations

import dataclasses
import json
import math

import bench_env

bench_env.pin_blas_threads()
qipsolve = bench_env.import_program()

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qipsolve import probio  # noqa: E402
from qipsolve.errors import OracleInconclusive, QipError, SingularKKT  # noqa: E402
from qipsolve.oracle import reference_minimize  # noqa: E402
from qipsolve.pathfollow import SolverConfig, solve  # noqa: E402

REL_TOL = 1e-6


def _sweep_instances(seed, prefix):
    return [(label, spec) for label, spec in workloads.build("sweep-small", seed)
            if label.startswith(prefix)]


def _qkd_n3(instance_seed):
    return f"qkd-n3#{instance_seed}", probio.generate_random("qkd", {"n": 3}, instance_seed)


# Small QKD instances, which the equality-only reference optimizer accepts
# (the type1 n=3 sweep-small shapes carry inequality rows).
@pytest.mark.parametrize("instance_seed", range(3))
def test_f_min_matches_reference_optimizer(instance_seed):
    label, spec = _qkd_n3(instance_seed)
    report = solve(spec, config=SolverConfig())
    assert run.wrong_result(run.Outcome(label, report, None), SolverConfig()) is None
    try:
        f_ref, _ = reference_minimize(spec)
    except OracleInconclusive as exc:
        pytest.skip(f"{label}: reference optimizer inconclusive ({exc})")
    assert abs(report.f_min - f_ref) <= REL_TOL * max(1.0, abs(f_ref)), (label, report.f_min, f_ref)


# A QKD n=3 instance that fails today with a singular Hessian (ROADMAP
# item 1). Such failures are why sweep-small holds no QKD shapes: once
# this test passes, small QKD shapes can go back into the sweep.
@pytest.mark.xfail(raises=SingularKKT, strict=True, reason="singular Hessian, ROADMAP item 1")
def test_known_singular_qkd_instance_fails():
    solve(_qkd_n3(29005)[1], config=SolverConfig())


def test_benchmark_json_names_every_reported_metric():
    with open(bench_env.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def _snapshot(qipsolve):
    """Every module and class namespace of the package, copied."""
    out = {}
    for module in vars(qipsolve).values():
        if isinstance(module, type(qipsolve)):
            out[module.__name__] = dict(vars(module))
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__.startswith("qipsolve"):
                    out[f"{cls.__module__}.{cls.__qualname__}"] = dict(vars(cls))
    return out


def test_tracing_records_nested_spans_and_restores_the_program():
    before = _snapshot(qipsolve)
    plain = solve(_sweep_instances(seed=0, prefix="type2-n4")[0][1])
    with tracer.Tracer() as tr:
        tr.install(tracer.layer_targets(qipsolve))
        assert _snapshot(qipsolve) != before
        with tr.span("solve"):
            traced = solve(_sweep_instances(seed=0, prefix="type2-n4")[0][1])
    assert _snapshot(qipsolve) == before
    assert (traced.f_min, traced.total_newton) == (plain.f_min, plain.total_newton)

    spans = tr.spans
    names = {s[tracer.NAME] for s in spans}
    assert {"pathfollow.center", "pathfollow.line_search", "pathfollow.hessian_eval",
            "pathfollow.value_eval", "kkt.newton_step", "objectives.map_barrier_eval",
            "linmap.apply", "matfun.spectral_decompose"} <= names
    for s in spans[1:]:
        parent = spans[s[tracer.PARENT]]
        assert parent[tracer.START] <= s[tracer.START] <= s[tracer.END] <= parent[tracer.END]
    selfs = tracer.self_times(spans)
    assert min(selfs) >= -1e-9
    assert math.isclose(sum(selfs), spans[0][tracer.END] - spans[0][tracer.START],
                        rel_tol=1e-9)


def test_wrong_results_fail_and_solver_errors_only_count(monkeypatch):
    label, spec = _qkd_n3(0)
    config = SolverConfig()
    good = run.Outcome(label, solve(spec, config=config), None)
    assert run.wrong_result(good, config) is None
    for field, value in (("feas_residual", 1e-3), ("gap_certificates", [math.inf]),
                         ("f_min", math.nan)):
        bad = run.Outcome(label, dataclasses.replace(good.report, **{field: value}), None)
        assert run.wrong_result(bad, config), field

    class Failing(QipError):
        pass

    def fail(spec, config=None):
        raise Failing("forced")

    monkeypatch.setattr(run, "solve", fail)
    outcome = run.run_pass([(label, spec)], config)[0]
    assert outcome.error == "Failing" and not outcome.converged
    assert run.wrong_result(outcome, config) is None
