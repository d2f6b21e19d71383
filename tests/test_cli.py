import io
import json
import math
import warnings

import numpy as np
import pytest

from qvisolve import cli
from qvisolve.certify import Certificate, ProblemConstants, full_certificate
from qvisolve.cli import main, read_compare_csv, read_sweep_csv
from qvisolve.core import ConstraintSpec, OperatorSpec, QviProblem
from qvisolve.dynamics import read_flow_csv
from qvisolve.solvers import read_trace_csv

L2_DESCRIPTOR = json.dumps({"family": "l2_example", "n": 50, "alpha": 2.0})
HALFLINE_DESCRIPTOR = json.dumps({
    "family": "single_set_vi", "n": 1,
    "set": {"type": "box", "lo": 1.0, "hi": None},
    "operator": "identity",
    "known_solution": [1.0],
})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- certify

def test_certify_stdout_json(capsys):
    code, out, _ = run(capsys, ["certify", "--L", "3", "--rho", "1",
                                "--l", "0.1", "--lambda", "0.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == pytest.approx(1.0433981132056604, rel=1e-15)
    assert doc["discrete_ok"] is False
    cert = full_certificate(ProblemConstants(L=3.0, rho=1.0, l=0.1, lam=0.1))
    assert Certificate.from_dict(doc) == cert


def test_certify_trivial_theta(capsys):
    code, out, _ = run(capsys, ["certify", "--L", "1", "--rho", "1",
                                "--l", "0", "--lambda", "1"])
    assert code == 0
    assert json.loads(out)["theta"] == 0.0


def test_certify_validation_exit_code(capsys):
    code, out, err = run(capsys, ["certify", "--L", "1", "--rho", "2",
                                  "--lambda", "0.1"])
    assert code == 1
    assert "rho exceeds L" in err
    assert out == ""


def test_certify_missing_flag(capsys):
    code, _, err = run(capsys, ["certify", "--L", "1", "--rho", "1"])
    assert code == 1
    assert "lambda" in err


def test_certify_csv_format(capsys):
    code, out, _ = run(capsys, ["certify", "--L", "3", "--rho", "1",
                                "--l", "0.1", "--lambda", "0.1",
                                "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    cert = full_certificate(ProblemConstants(L=3.0, rho=1.0, l=0.1, lam=0.1)).to_dict()
    assert header.split(",") == list(cert)
    cells = row.split(",")
    assert float(cells[header.split(",").index("theta")]) == cert["theta"]
    assert cells[header.split(",").index("moving_rhs")] == ""
    assert cells[header.split(",").index("discrete_ok")] == "false"


def test_certify_output_file_deterministic(capsys, tmp_path):
    target = tmp_path / "cert.json"
    argv = ["certify", "--L", "3", "--rho", "1", "--l", "0.1",
            "--lambda", "0.1", "--beta", "0.05", "-o", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    assert b"\r" not in first


# --------------------------------------------------------------------- solve

def test_solve_l2_csv(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    code, _, _ = run(capsys, [
        "solve", "--problem", L2_DESCRIPTOR, "--x0", "geometric",
        "--lambda", "0.1", "--tol", "1e-10", "--max-iter", "300",
        "-o", str(target)])
    assert code == 0
    data = read_trace_csv(target)
    assert data["status"] == "converged"
    assert data["certificate_warning"] is True
    assert data["residual"][-1] <= 1e-10
    assert len(data["k"]) <= 301


def test_solve_explicit_x0(capsys):
    code, out, _ = run(capsys, [
        "solve", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "0.1", "--tol", "1e-12"])
    assert code == 0
    data = read_trace_csv(io.StringIO(out))
    assert data["status"] == "converged"
    assert data["dist_to_solution"][0] == 1.0


def test_solve_numeric_failure_exit_code(capsys):
    code, out, _ = run(capsys, [
        "solve", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "1e6"])
    assert code == 2
    data = read_trace_csv(io.StringIO(out))
    assert data["status"] == "numeric_failure"


def test_solve_problem_file_missing(capsys):
    code, _, err = run(capsys, [
        "solve", "--problem", "/nonexistent.json", "--x0", "zeros",
        "--lambda", "0.1"])
    assert code == 1
    assert "not found" in err


def test_solve_malformed_inline_problem(capsys):
    code, _, err = run(capsys, [
        "solve", "--problem", "{not json", "--x0", "zeros", "--lambda", "0.1"])
    assert code == 1
    assert "problem" in err


def test_solve_wrong_x0_length(capsys):
    code, _, err = run(capsys, [
        "solve", "--problem", HALFLINE_DESCRIPTOR, "--x0", "1.0,2.0",
        "--lambda", "0.1"])
    assert code == 1
    assert "x0" in err


def test_solve_projection_argument_overflow_exit_code(capsys):
    # F(x) = 1e300*x is finite at x0 = 1, but x - 1e10*F(x) overflows
    problem = json.dumps({"family": "single_set_vi", "n": 1,
                          "set": {"type": "box", "lo": -1.0, "hi": 1.0},
                          "operator": {"matrix": [[1e300]]}})
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, _ = run(capsys, ["solve", "--problem", problem, "--x0", "1",
                                    "--lambda", "1e10"])
    assert code == 2
    assert read_trace_csv(io.StringIO(out))["status"] == "numeric_failure"


def test_solve_geometric_x0_beyond_float_range(capsys):
    # 3**k overflows for k > 646; those coordinates are exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, [
            "solve", "--problem", json.dumps({"family": "l2_example", "n": 700}),
            "--x0", "geometric", "--lambda", "0.1"])
    assert code == 0


@pytest.mark.parametrize("descriptor,field", [
    ({"family": "l2_example", "n": True}, "n"),
    ({"family": "l2_example", "n": 3, "alpha": "x"}, "alpha"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "ball", "radius": "r"}},
     "set.radius"),
], ids=["bool-n", "string-alpha", "string-radius"])
def test_solve_rejects_bad_descriptor_field(capsys, descriptor, field):
    code, out, err = run(capsys, ["solve", "--problem", json.dumps(descriptor),
                                  "--x0", "zeros", "--lambda", "0.1"])
    assert code == 1
    assert out == ""
    assert field in err


# ---------------------------------------------------------------------- flow

def test_flow_csv(capsys, tmp_path):
    target = tmp_path / "flow.csv"
    code, _, _ = run(capsys, [
        "flow", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "0.1", "--h", "0.5", "--t-end", "5", "--scheme", "euler",
        "--coords", "-o", str(target)])
    assert code == 0
    data = read_flow_csv(target)
    assert data["status"] == "completed"
    assert data["t"][0] == 0.0 and data["t"][-1] == 5.0
    assert data["x"][1][0] == pytest.approx(1.91, rel=1e-15)


def test_flow_alpha_table(capsys):
    code, out, _ = run(capsys, [
        "flow", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "0.1", "--h", "0.5", "--t-end", "2",
        "--alpha", "0:1.0,1:0.5"])
    assert code == 0
    data = read_flow_csv(io.StringIO(out))
    assert data["status"] == "completed"


def test_flow_validation(capsys):
    code, _, err = run(capsys, [
        "flow", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "0.1", "--h", "2.0", "--t-end", "1.0"])
    assert code == 1
    assert "t_end" in err


def test_flow_rejects_scalar_operator_output(capsys, monkeypatch):
    problem = QviProblem(OperatorSpec(lambda x: 1.0, 1.0, 1.0),
                         ConstraintSpec(lambda x, z: z, 0.0), dim=3)
    monkeypatch.setattr(cli, "load_problem", lambda spec: problem)
    code, out, err = run(capsys, [
        "flow", "--problem", "scalar", "--x0", "zeros",
        "--lambda", "0.1", "--h", "0.1", "--t-end", "1"])
    assert code == 1
    assert "operator oracle" in err
    assert out == ""


# ------------------------------------------------------------------- compare

def test_compare_three_variants(capsys, tmp_path):
    target = tmp_path / "compare.csv"
    code, _, _ = run(capsys, [
        "compare", "--problem", L2_DESCRIPTOR, "--x0", "geometric",
        "--lambda", "0.1", "--variants",
        "tseng,gradient_projection,extragradient",
        "--tol", "1e-10", "--max-iter", "300", "-o", str(target)])
    assert code == 0
    doc = read_compare_csv(target)
    assert set(doc["variants"]) == {"tseng", "gradient_projection", "extragradient"}
    for name, data in doc["variants"].items():
        assert data["residual"][-1] <= 1e-10, name
        assert data["dist_to_solution"][0] == doc["variants"]["tseng"]["dist_to_solution"][0]
        assert f"{name}: status=converged" in "\n".join(
            f"{k}: {v}" for k, v in doc["meta"].items())


def test_compare_from_solution(capsys):
    code, out, _ = run(capsys, [
        "compare", "--problem", L2_DESCRIPTOR, "--x0", "zeros",
        "--lambda", "0.1"])
    assert code == 0
    doc = read_compare_csv(io.StringIO(out))
    for data in doc["variants"].values():
        assert len(data["k"]) == 1 and data["k"][0] == 0


def test_compare_halfline_dist_column(capsys):
    # frozen pre-build oracle: x+ = 0.91 x while x >= 10/9, from x0 = 2
    code, out, _ = run(capsys, [
        "compare", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "0.1", "--variants", "tseng",
        "--max-iter", "5", "--tol", "1e-14"])
    assert code == 0
    dists = read_compare_csv(io.StringIO(out))["variants"]["tseng"]["dist_to_solution"]
    expected = (1.0, 0.82, 0.6562, 0.507142, 0.37149922, 0.24806429019999987)
    assert np.allclose(dists, expected, rtol=1e-12, atol=0.0)


def test_compare_requires_variant(capsys):
    code, _, err = run(capsys, [
        "compare", "--problem", L2_DESCRIPTOR, "--x0", "zeros",
        "--lambda", "0.1", "--variants", ""])
    assert code == 1
    assert "variant" in err


# --------------------------------------------------------------------- sweep

def test_sweep_l_grid_maximum(capsys):
    code, out, _ = run(capsys, [
        "sweep", "--L", "1", "--rho", "1", "--lambda", "0.5",
        "--l-grid", "0:3:31"])
    assert code == 0
    doc = read_sweep_csv(io.StringIO(out))
    rows = doc["rows"]
    assert len(rows) == 31
    best = max(rows, key=lambda r: r["discrete_rhs"])
    assert best["l"] == pytest.approx(1.0)
    assert best["discrete_rhs"] == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-15)


def test_sweep_empty_grid_rejected(capsys):
    code, _, err = run(capsys, ["sweep", "--L", "1", "--rho", "1",
                                "--lambda", "0.5", "--l-grid", ""])
    assert code == 1
    assert "grid" in err


def test_sweep_requires_some_grid(capsys):
    code, _, err = run(capsys, ["sweep", "--L", "1", "--rho", "1",
                                "--lambda", "0.5"])
    assert code == 1
    assert "grid" in err


def test_sweep_with_empirical_rate(capsys):
    code, out, _ = run(capsys, [
        "sweep", "--L", "3", "--rho", "1", "--l", "0.1",
        "--lambda-grid", "0.05,0.1,0.2",
        "--problem", L2_DESCRIPTOR, "--x0", "geometric",
        "--tol", "1e-10", "--max-iter", "500"])
    assert code == 0
    doc = read_sweep_csv(io.StringIO(out))
    assert "empirical_rate" in doc["columns"]
    for row in doc["rows"]:
        assert row["status"] == "ok"
        assert 0.0 < row["empirical_rate"] < 1.0


def test_sweep_records_per_cell_failures(capsys):
    code, out, _ = run(capsys, [
        "sweep", "--L", "1", "--rho", "1", "--lambda", "0.5",
        "--beta-grid", "0.1,-1.0,0.3"])
    assert code == 0
    doc = read_sweep_csv(io.StringIO(out))
    statuses = [row["status"] for row in doc["rows"]]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1].startswith("error:")
    assert doc["rows"][1]["theta"] is None  # failed cell left empty


def test_sweep_beta_grid_moving_column(capsys):
    code, out, _ = run(capsys, [
        "sweep", "--L", "1", "--rho", "1", "--lambda", "0.5",
        "--beta-grid", "0,0.1,0.3"])
    assert code == 0
    doc = read_sweep_csv(io.StringIO(out))
    for row in doc["rows"]:
        assert row["moving_rhs"] is not None
        assert row["moving_ok"] is False


# -------------------------------------------------------------------- config

def test_config_document_round_trip(capsys, tmp_path):
    flag_target = tmp_path / "by_flags.csv"
    config_target = tmp_path / "by_config.csv"
    argv = ["solve", "--problem", L2_DESCRIPTOR, "--x0", "geometric",
            "--lambda", "0.1", "--tol", "1e-10", "--max-iter", "300",
            "-o", str(flag_target)]
    assert main(argv) == 0
    config = {
        "command": "solve",
        "problem": json.loads(L2_DESCRIPTOR),
        "x0": "geometric",
        "lambda": 0.1,
        "tol": 1e-10,
        "max_iter": 300,
        "output": str(config_target),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    assert main(["--config", str(config_path)]) == 0
    assert flag_target.read_bytes() == config_target.read_bytes()
    # identical RunConfig -> byte-identical output
    assert main(["--config", str(config_path)]) == 0
    assert config_target.read_bytes() == flag_target.read_bytes()


def test_config_missing_command(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"problem": "x"}))
    code, _, err = run(capsys, ["--config", str(config_path)])
    assert code == 1
    assert "command" in err


def test_config_missing_file(capsys):
    code, _, err = run(capsys, ["--config", "/nonexistent/run.json"])
    assert code == 1


def test_no_command(capsys):
    code, _, err = run(capsys, [])
    assert code == 1


def test_unknown_variant_rejected(capsys):
    code, _, err = run(capsys, [
        "solve", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0",
        "--lambda", "0.1", "--variant", "nonsense"])
    assert code == 1


# ------------------------------------------------------------- determinism

def test_compare_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["compare", "--problem", L2_DESCRIPTOR, "--x0", "geometric",
            "--lambda", "0.1", "--max-iter", "120"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--L", "3", "--rho", "1", "--l", "0.1",
            "--lambda-grid", "0.05:2:40"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
