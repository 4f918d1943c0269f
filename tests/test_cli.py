import csv
import json

import pytest

from qipsolve import pathfollow
from qipsolve.cli import main
from qipsolve.errors import LineSearchFailure


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

    def test_failure_writes_report_and_trace(self, tmp_path, capsys, monkeypatch):
        # a line search that fails on its third call: two steps are taken
        calls = []
        real_search = pathfollow.line_search

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
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
        assert len(rows) == 1 + 2

    def test_no_barrier_on_trace_objective_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "trace-inverse-n4", "--no-barrier")
        assert code == 2
        assert "only supported on qkd" in err
        assert "f_min" not in out

    def test_iteration_cap_exits_4(self, capsys):
        # theta so small that the outer cap is hit long before 4r/eps
        code, _, err = run(capsys, "solve", "trace-inverse-n2",
                           "--theta", "1e-4", "--eps", "1e-8")
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
