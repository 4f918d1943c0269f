import csv
import json

import pytest

from qipsolve import objectives, pathfollow
from qipsolve.cli import main
from qipsolve.errors import DecompositionFailure, LineSearchFailure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_qkd_defaults_k_to_2n(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        code, out, _ = run(capsys, "gen", "--kind", "qkd", "--n", "4",
                           "--seed", "7", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        doc = json.loads(out_path.read_text())
        assert doc["dims"]["k"] == 8
        assert "k=8" in out

    def test_type1_dims_echo(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "type1", "--n", "4", "--m", "2",
                           "--N", "4", "--seed", "1", "--out", str(tmp_path / "t.json"))
        assert code == 0
        assert "n=4" in out and "m=2" in out and "N=4" in out

    def test_missing_n_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "type1",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "--n" in err

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--bogus", "1", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_named_instance(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--named", "trace-inverse-n4",
                         "--out", str(tmp_path / "c.json"))
        assert code == 0


class TestSolve:
    def test_canonical_trace_inverse(self, capsys):
        code, out, _ = run(capsys, "solve", "trace-inverse-n4")
        assert code == 0
        f_min = float(next(line.split()[1] for line in out.splitlines()
                           if line.startswith("f_min")))
        assert abs(f_min - 16.0) <= 1e-4 * 16.0

    def test_qkd_toy(self, capsys):
        code, out, _ = run(capsys, "solve", "qkd-toy")
        assert code == 0
        lines = dict(line.split() for line in out.splitlines() if " " in line.strip())
        assert abs(float(lines["f_min"])) <= 1e-7
        assert int(lines["nNewton"]) <= 20

    def test_prints_prediction_counts(self, capsys):
        # every centering after the first starts with one prediction
        code, out, _ = run(capsys, "solve", "trace-inverse-n4")
        assert code == 0
        lines = dict(line.split() for line in out.splitlines() if " " in line.strip())
        predictions = int(lines["predictions_accepted"]) + int(lines["predictions_rejected"])
        assert int(lines["predictions_accepted"]) > 0
        assert predictions == int(lines["outer"]) - 1

    def test_report_and_trace_files(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        run(capsys, "gen", "--kind", "qkd", "--n", "3", "--seed", "2",
            "--out", str(problem))
        rep = tmp_path / "rep.json"
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "solve", str(problem), "--out", str(rep),
                         "--trace", str(trace))
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["termination"] == "Converged"
        assert doc["total_newton"] <= doc["bound_check"]["total_cap"]
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "beta", "delta", "alpha", "f", "feas_residual"]
        assert len(rows) == doc["total_newton"] + 1

    def test_identical_seed_identical_report(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        run(capsys, "gen", "--kind", "type1", "--n", "4", "--m", "2", "--N", "4",
            "--seed", "5", "--out", str(problem))
        reports = []
        for name in ("r1.json", "r2.json"):
            rep = tmp_path / name
            code, _, _ = run(capsys, "solve", str(problem), "--out", str(rep))
            assert code == 0
            doc = json.loads(rep.read_text())
            doc.pop("wall_time")
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_unknown_problem_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-thing")
        assert code == 2
        assert "canonical" in err

    def test_invalid_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "type1"}')
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 3

    def test_malformed_field_exits_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--named", "ree-2x2", "--out", str(tmp_path / "p.json"))
        assert code == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["constraints"]["n_ineq"] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 3
        assert "constraints.n_ineq" in err and "Traceback" not in err

    def test_non_finite_rhs_exits_3(self, tmp_path, capsys):
        # Python's json reads NaN, which must stop at the file boundary
        code, _, _ = run(capsys, "gen", "--named", "trace-inverse-n3",
                         "--out", str(tmp_path / "p.json"))
        assert code == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["constraints"]["b"] = [float("nan")]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 3
        assert "constraints.b" in err and "Traceback" not in err and "Converged" not in out

    @pytest.mark.parametrize("field, edit", [
        ("constraints.A", lambda doc: doc["constraints"].update(A=5)),
        ("objective", lambda doc: doc.update(objective="x")),
    ], ids=["A_not_a_list", "objective_not_an_object"])
    def test_wrong_container_type_exits_3(self, tmp_path, capsys, field, edit):
        code, _, _ = run(capsys, "gen", "--named", "ree-2x2", "--out", str(tmp_path / "p.json"))
        assert code == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 3
        assert f"{field} must be a JSON" in err and "Traceback" not in err

    def test_failure_writes_report_and_trace(self, tmp_path, capsys, monkeypatch):
        # a line search that fails on its second call: one step is taken
        calls = []
        real_search = pathfollow.line_search

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise LineSearchFailure("forced failure")
            return real_search(*args)

        problem = tmp_path / "p.json"
        run(capsys, "gen", "--kind", "qkd", "--n", "3", "--seed", "2",
            "--out", str(problem))
        monkeypatch.setattr(pathfollow, "line_search", failing)
        rep = tmp_path / "rep.json"
        trace = tmp_path / "trace.csv"
        code, _, err = run(capsys, "solve", str(problem), "--out", str(rep),
                           "--trace", str(trace))
        assert code == 4
        assert "forced failure" in err
        doc = json.loads(rep.read_text())
        assert doc["termination"] == "NumericalFailure"
        assert doc["phase"].startswith("outer ")
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "beta", "delta", "alpha", "f", "feas_residual"]
        assert len(rows) == 1 + 1

    def test_decomposition_failure_writes_report(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = objectives.spectral_decompose

        def failing(y):
            calls.append(None)
            if len(calls) == 25:  # of 36, past the first centering
                raise DecompositionFailure("forced failure")
            return real(y)

        problem = tmp_path / "p.json"
        run(capsys, "gen", "--kind", "type1", "--n", "4", "--seed", "3",
            "--out", str(problem))
        monkeypatch.setattr(objectives, "spectral_decompose", failing)
        rep = tmp_path / "rep.json"
        code, _, err = run(capsys, "solve", str(problem), "--out", str(rep))
        assert code == 4
        assert "forced failure" in err
        doc = json.loads(rep.read_text())
        assert doc["termination"] == "NumericalFailure"
        assert doc["phase"].startswith("outer ")
        assert doc["total_newton"] > 0

    def test_no_barrier_on_trace_objective_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "trace-inverse-n4", "--no-barrier")
        assert code == 2
        assert "only supported on qkd" in err
        assert "f_min" not in out

    @pytest.mark.parametrize("flag, name", [("--beta0", "beta0"), ("--eps", "epsilon")])
    def test_non_finite_parameter_exits_2(self, flag, name, capsys):
        code, out, err = run(capsys, "solve", "trace-inverse-n2", flag, "nan")
        assert code == 2
        assert f"{name} must be finite" in err
        assert "f_min" not in out

    def test_iteration_cap_exits_4(self, capsys, monkeypatch):
        # a per-outer cap below one Newton step stops the first centering
        monkeypatch.setattr(pathfollow, "iteration_bound", lambda config, r: (0.5, 1.0))
        code, _, err = run(capsys, "solve", "trace-inverse-n2")
        assert code == 4
        assert "IterCap" in err


class TestCheck:
    def test_canonical_passes(self, capsys):
        code, out, _ = run(capsys, "check", "qkd-toy")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_reports_psd_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "check", "trace-inverse-n4")
        assert code == 0
        assert "hessian-psd" in out and "eigenvalue" in out


class TestBench:
    def test_table2_small_row(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        code, out, _ = run(capsys, "bench", "--suite", "table2", "--sizes", "4",
                           "--csv", str(csv_path))
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "k", "m", "r1", "r2", "time_s", "f_min", "nNewton"]
        assert len(rows) == 2
        assert float(rows[1][5]) < 60.0

    def test_table1_small_row(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        code, out, _ = run(capsys, "bench", "--suite", "table1", "--sizes", "4",
                           "--csv", str(csv_path))
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m", "N", "f_min", "nNewton", "time_s"]
        assert float(rows[1][3]) > 0.0  # Tr(C X^{-1}) with C PSD stays positive

    def test_json_record_fields(self, tmp_path, capsys):
        json_path = tmp_path / "b.json"
        code, out, _ = run(capsys, "bench", "--suite", "table1", "--sizes", "4", "8",
                           "--json", str(json_path))
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert doc["suite"] == "table1"
        env = doc["environment"]
        assert {"git_sha", "numpy", "numpy_blas", "scipy", "scipy_blas",
                "blas_threads"} <= env.keys()
        assert "OPENBLAS_NUM_THREADS" in env["blas_threads"]
        assert [row["n"] for row in doc["rows"]] == [4, 8]
        table = [line.split() for line in out.splitlines()[1:3]]
        for row, cells in zip(doc["rows"], table):
            assert row["termination"] == "Converged"
            assert row["wall_s"] > 0.0 and row["outer_iters"] >= 1
            assert row["total_newton"] == int(cells[4])  # the table's nNewton
            assert row["f_min"] == pytest.approx(float(cells[3]), rel=1e-5)

    def test_json_rows_carry_the_work_counts(self, tmp_path, capsys):
        json_path = tmp_path / "b.json"
        assert run(capsys, "bench", "--suite", "table2", "--sizes", "4",
                   "--json", str(json_path))[0] == 0
        (row,) = json.loads(json_path.read_text())["rows"]
        # one Hessian at the start and one per Newton step, at least
        assert row["hessian_evals"] >= 1 + row["total_newton"]
        assert row["kkt_solves"] >= 1
        assert row["value_evals"] >= row["backtracks"] >= 0

    def test_row_seed_is_its_index_in_the_full_ladder(self, tmp_path, capsys):
        # table2's n=6 row is the second of the ladder: seed 1 whether it is
        # run alone or after the n=4 row
        alone, pair = tmp_path / "alone.json", tmp_path / "pair.json"
        assert run(capsys, "bench", "--suite", "table2", "--sizes", "6",
                   "--json", str(alone))[0] == 0
        assert run(capsys, "bench", "--suite", "table2", "--sizes", "4", "6",
                   "--json", str(pair))[0] == 0
        (row,) = json.loads(alone.read_text())["rows"]
        rows = json.loads(pair.read_text())["rows"]
        assert (row["n"], row["seed"]) == (6, 1)
        assert [(r["n"], r["seed"]) for r in rows] == [(4, 0), (6, 1)]
        assert row["f_min"] == rows[1]["f_min"]

    def test_size_outside_the_ladder_exits_2(self, capsys):
        code, out, err = run(capsys, "bench", "--suite", "table1", "--sizes", "4", "5")
        assert code == 2
        assert err.startswith("bench: ") and "[5]" in err
        assert out == ""

    @pytest.mark.parametrize("eps", ["nan", "0"])
    def test_invalid_eps_exits_2(self, capsys, eps):
        # as for solve: the configuration's message, no traceback
        code, out, err = run(capsys, "bench", "--suite", "table1", "--sizes", "4",
                             "--eps", eps)
        assert code == 2
        assert err.startswith("bench: ") and "epsilon" in err
        assert out == ""

    def test_iteration_cap_exits_4(self, tmp_path, capsys, monkeypatch):
        # as for solve: a per-outer cap below one Newton step stops the
        # first centering, and the row is still printed and recorded
        monkeypatch.setattr(pathfollow, "iteration_bound", lambda config, r: (0.5, 1.0))
        json_path = tmp_path / "b.json"
        code, out, err = run(capsys, "bench", "--suite", "table1", "--sizes", "4",
                             "--json", str(json_path))
        assert code == 4
        assert "n=4 IterCap" in err
        assert out.splitlines()[1].split()[0] == "4"
        (row,) = json.loads(json_path.read_text())["rows"]
        assert row["termination"] == "IterCap"

    def test_solver_failure_exits_4_and_records_the_row(self, tmp_path, capsys, monkeypatch):
        # a line search that fails on its second call: a solver failure, not
        # a validation failure (exit 3), and the row holds the failed iterate
        calls = []
        real_search = pathfollow.line_search

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise LineSearchFailure("forced failure")
            return real_search(*args)

        monkeypatch.setattr(pathfollow, "line_search", failing)
        json_path = tmp_path / "b.json"
        code, out, err = run(capsys, "bench", "--suite", "table2", "--sizes", "4", "6",
                             "--json", str(json_path))
        assert code == 4
        assert "solver failure at n=4" in err and "forced failure" in err
        rows = json.loads(json_path.read_text())["rows"]
        assert [(r["n"], r["termination"]) for r in rows] == [(4, "NumericalFailure"),
                                                              (6, "Converged")]
        assert len(out.splitlines()) >= 3  # header and both rows
