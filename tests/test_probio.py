import json
import re

import numpy as np
import pytest

from conftest import non_finite_start
from qipsolve import probio
from qipsolve.errors import NotFound, ParseError, ShapeError, ValidationError
from qipsolve.linmap import KrausMap, PartialTranspose
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

    @pytest.mark.parametrize("kind", ["type2", "qkd"])
    def test_equality_kinds_need_a_row(self, kind):
        # the trace row is always there, so m = 0 would misreport N = 1
        with pytest.raises(ShapeError, match="m >= 1"):
            generate_random(kind, {"n": 4, "m": 0}, seed=0)

    @pytest.mark.parametrize("sizes, split", [
        ({"n1": 4}, (4, 2)),
        ({"n2": 4}, (2, 4)),
        ({}, (2, 4)),
        ({"n1": 8, "n2": 1}, (8, 1)),
    ])
    def test_type2_keeps_the_sizes_given(self, sizes, split):
        lmap = generate_random("type2", {"n": 8, **sizes}, seed=0).constraint_map
        assert (lmap.n1, lmap.n2) == split

    @pytest.mark.parametrize("sizes", [{"n1": 4}, {"n2": 4}, {"n1": 0}, {"n1": 2, "n2": 2}])
    def test_type2_split_must_factor_n(self, sizes):
        with pytest.raises(ShapeError, match="does not factor 6"):
            generate_random("type2", {"n": 6, **sizes}, seed=0)

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

    @pytest.mark.parametrize("bad", ["inf", "nan", "all-nan"])
    def test_non_finite_start_named(self, bad):
        spec = build_named("trace-inverse-n3")
        spec.start = non_finite_start(spec.start, bad)
        with pytest.raises(ValidationError, match="start has non-finite entries"):
            validate_problem(spec)

    @pytest.mark.parametrize("kind", ["type1", "type2", "qkd"])
    def test_term_of_another_order_rejected(self, kind):
        spec = generate_random(kind, {"n": 4}, seed=2)
        spec.terms = generate_random(kind, {"n": 3}, seed=2).terms
        with pytest.raises(ValidationError, match="objective term order does not match"):
            validate_problem(spec)

    def test_map_of_another_order_rejected(self):
        spec = generate_random("type2", {"n": 4}, seed=2)
        spec.constraint_map = KrausMap([np.eye(3)])
        with pytest.raises(ValidationError, match="constraint map order does not match"):
            validate_problem(spec)

    def test_qkd_constraint_map_rejected(self):
        # the file format keeps no map for qkd, so saving would drop its barrier
        spec = generate_random("qkd", {"n": 3}, seed=2)
        spec.constraint_map = KrausMap([np.eye(3)])
        with pytest.raises(ValidationError, match="no constraint map"):
            validate_problem(spec)

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_trace_kind_rejects_relative_entropy_terms(self, kind):
        # a relative-entropy term makes the problem qkd, whose rules then
        # reject the inequality rows (type1) or the constraint map (type2)
        spec = generate_random(kind, {"n": 4}, seed=2)
        spec.terms = generate_random("qkd", {"n": 4}, seed=2).terms
        assert spec.kind == "qkd"
        with pytest.raises(ValidationError,
                           match="qkd problems take (equality constraints only|no constraint map)"):
            validate_problem(spec)

    def test_type2_file_without_its_map_rejected(self, tmp_path):
        doc = probio.to_dict(generate_random("type2", {"n": 4, "m": 1}, seed=2))
        doc["objective"]["barrier_map"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="file kind 'type2' does not match"):
            load(path)

    def test_type1_file_with_a_map_rejected(self, tmp_path):
        doc = probio.to_dict(generate_random("type1", {"n": 4, "m": 1, "N": 2}, seed=2))
        doc["objective"]["barrier_map"] = {"kind": "partial_transpose", "n1": 2, "n2": 2}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="file kind 'type1' does not match"):
            load(path)

    @pytest.mark.parametrize("stale", [True, False])
    def test_dims_come_from_the_data(self, tmp_path, stale):
        spec = generate_random("qkd", {"n": 3, "k": 5, "m": 2, "r1": 3}, seed=2)
        doc = probio.to_dict(spec)
        if stale:
            doc["dims"] = {"n": 9, "k": 1, "m": 0, "N": 7, "r1": 2, "r2": 8}
        else:
            del doc["dims"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        loaded = load(path)
        assert loaded.dims == spec.dims == {"n": 3, "k": 5, "m": 2, "N": 2, "r1": 3, "r2": 2}
        assert probio.to_dict(loaded) == probio.to_dict(spec)

    @pytest.mark.parametrize("field, edit", [
        ("missing field 'n1' (at objective.barrier_map)",
         lambda doc: doc["objective"].update(barrier_map={"kind": "partial_transpose", "n2": 2})),
        ("constraints.n_ineq", lambda doc: doc["constraints"].update(n_ineq="x")),
        ("weight C", lambda doc: doc["C"][1].pop()),
        ("constraints.A must be a JSON array, not int",
         lambda doc: doc["constraints"].update(A=5)),
        ("objective must be a JSON object, not str", lambda doc: doc.update(objective="x")),
    ], ids=["map_without_n1", "n_ineq_not_a_number", "ragged_C", "A_not_a_list",
            "objective_not_an_object"])
    def test_malformed_field_named(self, tmp_path, field, edit):
        doc = probio.to_dict(generate_random("type2", {"n": 4, "n1": 2, "n2": 2}, seed=2))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(field)):
            load(path)

    @pytest.mark.parametrize("source, field, error, edit", [
        ("trace-inverse-n3", "constraints.b has non-finite", ValidationError,
         lambda doc: doc["constraints"].update(b=[float("nan")])),
        ("trace-inverse-n3", "constraints.b has non-finite", ValidationError,
         lambda doc: doc["constraints"].update(b=[float("inf")])),
        ("type1", "constraints.b has non-finite", ValidationError,
         lambda doc: doc["constraints"]["b"].__setitem__(0, float("nan"))),
        ("trace-inverse-n3", "objective.offset has non-finite", ValidationError,
         lambda doc: doc["objective"].update(offset=float("nan"))),
        ("qkd", "objective.epsilon_perturb has non-finite", ValidationError,
         lambda doc: doc["objective"].update(epsilon_perturb=float("inf"))),
        ("trace-inverse-n3", "start has shape (2, 2)", ValidationError,
         lambda doc: doc.update(start=(np.eye(2) / 2).tolist())),
        ("type1", "constraints.n_ineq must be an integer", ParseError,
         lambda doc: doc["constraints"].update(n_ineq=1.5)),
        ("type1", "constraints.n_ineq must be an integer", ParseError,
         lambda doc: doc["constraints"].update(n_ineq=True)),
        ("type2", "objective.barrier_map.n2 must be an integer", ParseError,
         lambda doc: doc["objective"]["barrier_map"].update(n2=float("inf"))),
        ("type1", "objective.alpha is malformed", ParseError,
         lambda doc: doc["objective"].update(generator="neg_power", alpha="x")),
    ], ids=["b_nan", "b_inf", "inequality_b_nan", "offset_nan", "perturbation_inf",
            "start_of_another_order", "n_ineq_fractional", "n_ineq_boolean", "n2_inf",
            "alpha_not_a_number"])
    def test_non_finite_or_misshapen_field_named(self, tmp_path, source, field, error, edit):
        # Python's json reads NaN and Infinity, so the loader must reject them
        if source in ("type1", "type2", "qkd"):
            spec = generate_random(source, {"n": 4, "m": 1, "N": 2}, seed=2)
        else:
            spec = build_named(source)
        doc = probio.to_dict(spec)
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=re.escape(field)):
            load(path)

    def test_integral_float_n_ineq_accepted(self, tmp_path):
        spec = generate_random("type1", {"n": 3, "m": 1, "N": 2}, seed=2)
        doc = probio.to_dict(spec)
        doc["constraints"]["n_ineq"] = 1.0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert load(path).constraints.n_ineq == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load(path)


class TestKindAndDims:
    @pytest.mark.parametrize("kind, dims, expected", [
        ("type1", {"n": 4, "m": 2, "N": 4},
         {"n": 4, "k": None, "m": 2, "N": 4, "r1": None, "r2": None}),
        ("type2", {"n": 6, "m": 2}, {"n": 6, "k": 6, "m": 2, "N": 2, "r1": None, "r2": None}),
        ("qkd", {"n": 4}, {"n": 4, "k": 8, "m": 2, "N": 2, "r1": 2, "r2": 2}),
    ])
    def test_generated(self, kind, dims, expected):
        spec = generate_random(kind, dims, seed=1)
        assert spec.kind == kind
        assert spec.dims == expected

    @pytest.mark.parametrize("name, kind, dims", [
        ("trace-inverse-n3", "type1", {"n": 3, "k": None, "m": 0, "N": 1, "r1": None, "r2": None}),
        ("ree-2x3", "type2", {"n": 6, "k": 6, "m": 1, "N": 1, "r1": None, "r2": None}),
        ("fidelity-n4", "type2", {"n": 4, "k": 4, "m": 1, "N": 1, "r1": 1, "r2": None}),
        ("qkd-toy", "qkd", {"n": 2, "k": 2, "m": 1, "N": 1, "r1": 1, "r2": 1}),
        ("qkd-n6", "qkd", {"n": 6, "k": 12, "m": 3, "N": 3, "r1": 2, "r2": 4}),
    ])
    def test_named(self, name, kind, dims):
        spec = build_named(name)
        assert spec.kind == kind
        assert spec.dims == dims


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

    @pytest.mark.parametrize("name", ["trace-inverse-n4", "ree-2x3", "fidelity-n4",
                                      "qkd-toy", "qkd-n4"])
    def test_valid_and_round_trips(self, tmp_path, name):
        spec = build_named(name)
        validate_problem(spec)
        path = tmp_path / "p.json"
        save(spec, path)
        assert probio.to_dict(load(path)) == probio.to_dict(spec)


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
