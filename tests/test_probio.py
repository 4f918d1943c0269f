import json

import numpy as np
import pytest

from qipsolve import probio
from qipsolve.errors import NotFound, ParseError, ShapeError, ValidationError
from qipsolve.linmap import PartialTranspose
from qipsolve.probio import (
    barrier_parameter,
    build_named,
    feasibility_violations,
    generate_random,
    load,
    random_feasible_point,
    save,
    validate_problem,
)


class TestGeneration:
    def test_byte_identical_regeneration(self, tmp_path):
        for kind, dims in (("type1", {"n": 4, "m": 2, "N": 4}),
                           ("type2", {"n": 4, "m": 2}),
                           ("qkd", {"n": 4, "m": 2})):
            p1 = tmp_path / "a.json"
            p2 = tmp_path / "b.json"
            save(generate_random(kind, dims, seed=13), p1)
            save(generate_random(kind, dims, seed=13), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_start_strictly_feasible(self):
        for kind, dims in (("type1", {"n": 5, "m": 2, "N": 5}),
                           ("type2", {"n": 6, "m": 2}),
                           ("qkd", {"n": 4, "m": 3})):
            spec = generate_random(kind, dims, seed=3)
            assert not feasibility_violations(spec, spec.start)

    def test_qkd_maps_trace_contractive(self):
        spec = generate_random("qkd", {"n": 4, "m": 2}, seed=5)
        assert spec.terms[0].l1.trace_contraction_defect() <= 1e-10
        assert spec.terms[0].l2.trace_contraction_defect() <= 1e-10

    def test_qkd_default_output_order(self):
        spec = generate_random("qkd", {"n": 5}, seed=1)
        assert spec.terms[0].out_order == 10  # k defaults to 2n

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            generate_random("type1", {"n": 4, "m": 4, "N": 4}, seed=0)
        with pytest.raises(ShapeError):
            generate_random("nope", {"n": 4}, seed=0)

    def test_barrier_parameters(self):
        assert barrier_parameter(generate_random("type1", {"n": 4, "m": 2, "N": 4}, 0)) == 6.0
        assert barrier_parameter(generate_random("type2", {"n": 4, "m": 1}, 0)) == 8.0
        assert barrier_parameter(generate_random("qkd", {"n": 4, "m": 1}, 0)) == 4.0


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        for kind, dims in (("type1", {"n": 4, "m": 2, "N": 4}),
                           ("type2", {"n": 4, "m": 1}),
                           ("qkd", {"n": 3, "m": 2})):
            spec = generate_random(kind, dims, seed=7)
            path = tmp_path / "p.json"
            save(spec, path)
            loaded = load(path)
            assert loaded.kind == spec.kind
            assert loaded.dims == spec.dims
            assert np.array_equal(loaded.start, spec.start)
            for a, b in zip(loaded.constraints.mats, spec.constraints.mats):
                assert np.array_equal(a, b)
            assert np.array_equal(loaded.constraints.rhs, spec.constraints.rhs)
            if kind == "qkd":
                for a, b in zip(loaded.terms[0].l1.factors, spec.terms[0].l1.factors):
                    assert np.array_equal(a, b)
            else:
                assert np.array_equal(loaded.terms[0].C, spec.terms[0].C)
                assert loaded.offset == spec.offset

    def test_asymmetric_constraint_rejected(self, tmp_path):
        spec = generate_random("type1", {"n": 3, "m": 1, "N": 2}, seed=2)
        doc = probio.to_dict(spec)
        doc["constraints"]["A"][0][0][1] += 1e-6  # break symmetry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="asymmetric"):
            load(path)

    def test_infeasible_start_named_in_error(self, tmp_path):
        spec = generate_random("type1", {"n": 3, "m": 1, "N": 2}, seed=2)
        doc = probio.to_dict(spec)
        doc["start"] = np.diag([5.0, 5.0, 5.0]).tolist()  # violates Tr X = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="equality constraint"):
            load(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load(path)


class TestNamedInstances:
    def test_trace_inverse_structure(self):
        spec = build_named("trace-inverse-n4")
        assert spec.kind == "type1"
        assert np.array_equal(spec.terms[0].C, np.eye(4))
        assert spec.constraints.n_total == 1
        assert np.array_equal(spec.start, np.eye(4) / 4)

    def test_ree_weight_is_ppt_and_feasible(self):
        spec = build_named("ree-2x2")
        c = spec.terms[0].C
        assert isinstance(spec.constraint_map, PartialTranspose)
        assert np.trace(c) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(c).min() > 0
        assert np.linalg.eigvalsh(spec.constraint_map.apply(c)).min() > 0
        assert not feasibility_violations(spec, c)

    def test_qkd_toy(self):
        spec = build_named("qkd-toy")
        assert spec.kind == "qkd"
        assert spec.terms[0].l1.out_order == 2

    def test_qkd_named_pinches_output(self):
        spec = build_named("qkd-n4")
        assert spec.dims["r2"] == 4  # 2-block pinching of the rank-2 map
        validate_problem(spec)

    def test_fidelity_structure(self):
        spec = build_named("fidelity-n4")
        assert spec.terms[0].gen.kind == "neg_sqrt"
        assert spec.terms[0].map is spec.constraint_map

    def test_unknown_name(self):
        with pytest.raises(NotFound):
            build_named("whatever-n3")


class TestFeasiblePoints:
    def test_random_feasible_point(self, rng):
        for kind, dims in (("type1", {"n": 4, "m": 2, "N": 4}),
                           ("type2", {"n": 4, "m": 1}),
                           ("qkd", {"n": 4, "m": 2})):
            spec = generate_random(kind, dims, seed=4)
            for _ in range(3):
                x = random_feasible_point(spec, rng)
                assert not feasibility_violations(spec, x, margin=1e-7)

    def test_points_actually_move(self, rng):
        spec = generate_random("type1", {"n": 4, "m": 2, "N": 4}, seed=4)
        x = random_feasible_point(spec, rng)
        assert np.linalg.norm(x - spec.start) > 1e-3
