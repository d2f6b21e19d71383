import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import cli, csvio, dynamics, problems
from qvisolve.certify import ProblemConstants, full_certificate
from qvisolve.cli import main
from qvisolve.core import VARIANTS, ConstraintSpec, OperatorSpec, QviProblem
from qvisolve.csvio import read_compare_csv, read_flow_csv, read_sweep_csv, read_trace_csv
from qvisolve.dynamics import FlowConfig
from qvisolve.solvers import SolverConfig, solve

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
    assert doc == cert.to_dict()


def test_certify_json_with_beta_matches_the_certificate(capsys):
    code, out, _ = run(capsys, ["certify", "--L", "3", "--rho", "1", "--l", "0.1",
                                "--lambda", "0.1", "--beta", "0.2"])
    assert code == 0
    cert = full_certificate(ProblemConstants(L=3.0, rho=1.0, l=0.1, lam=0.1, beta=0.2))
    assert cert.moving_rhs is not None
    assert json.loads(out) == cert.to_dict()


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


def test_solve_far_start_converges(capsys):
    # x0 = 2e12 lies beyond the divergence limit's 1e12, which is relative to
    # the start's norm: x1 = 1.82e12 is no divergence
    code, out, _ = run(capsys, ["solve", "--problem", HALFLINE_DESCRIPTOR, "--x0=2e12",
                                "--lambda", "0.1"])
    assert code == 0
    assert read_trace_csv(io.StringIO(out))["status"] == "converged"


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        code, out, _ = run(capsys, ["solve", "--problem", problem, "--x0", "1",
                                    "--lambda", "1e10"])
    assert code == 2
    assert read_trace_csv(io.StringIO(out))["status"] == "numeric_failure"


OVERFLOW_PROBLEMS = {
    # alpha*x overflows in the operator oracle
    "l2-alpha": ({"family": "l2_example", "n": 3, "alpha": 1e308}, "1,1,1", "0.1"),
    # x - lambda*F(x) overflows in the projection argument
    "offset": ({"family": "single_set_vi", "n": 2, "set": {"type": "box"},
                "operator": {"offset": [1e308, 0]}}, "1,1", "10"),
}


@pytest.mark.parametrize("command", ["solve", "compare", "flow-euler", "flow-rk4"])
@pytest.mark.parametrize("case", list(OVERFLOW_PROBLEMS))
def test_overflow_is_a_numeric_failure_without_runtime_warning(capsys, case, command):
    descriptor, x0, lam = OVERFLOW_PROBLEMS[case]
    argv = [command.split("-")[0], "--problem", json.dumps(descriptor), "--x0", x0,
            "--lambda", lam]
    if command.startswith("flow"):
        argv += ["--h", "0.1", "--t-end", "1", "--scheme", command.split("-")[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, argv)
    assert code == 2
    assert "RuntimeWarning" not in err


def test_solve_box_moving_set_above_the_square_of_the_size_cap(capsys):
    # n * n is above problems.MAX_DESCRIPTOR_ENTRIES, but a box moving set
    # without an operator.matrix holds n-vectors only
    descriptor = json.dumps({"family": "moving_set", "n": 20001, "shift_scale": 0.1,
                             "base_set": {"type": "box", "lo": -1.0, "hi": 1.0}})
    code, out, err = run(capsys, ["solve", "--problem", descriptor, "--x0", "geometric",
                                  "--lambda", "0.1", "--max-iter", "20"])
    assert (code, err) == (0, "")
    assert read_trace_csv(io.StringIO(out))["k"][0] == 0


@pytest.mark.parametrize("argv, config, names", [
    (["solve", "--problem", "p", "--x0", "zeros", "--lambda", "0.1"], SolverConfig,
     {"max_iter", "tol", "variant"}),
    (["compare", "--problem", "p", "--x0", "zeros", "--lambda", "0.1"], SolverConfig,
     {"max_iter", "tol"}),
    (["sweep", "--L", "1", "--rho", "1"], SolverConfig, {"max_iter", "tol", "variant"}),
    (["flow", "--problem", "p", "--x0", "zeros", "--lambda", "0.1", "--h", "0.1",
      "--t-end", "1"], FlowConfig, {"scheme", "alpha"}),
])
def test_parsed_defaults_are_the_config_defaults(argv, config, names):
    args = cli.build_parser().parse_args(argv)
    defaults = {f.name: f.default for f in dataclasses.fields(config)
                if f.default is not dataclasses.MISSING and hasattr(args, f.name)}
    assert set(defaults) == names
    assert {name: getattr(args, name) for name in names} == defaults


def test_solve_geometric_x0_beyond_float_range(capsys):
    # 3**k overflows for k > 646; those coordinates are exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, [
            "solve", "--problem", json.dumps({"family": "l2_example", "n": 700}),
            "--x0", "geometric", "--lambda", "0.1"])
    assert code == 0


BOX2 = {"family": "single_set_vi", "n": 2, "set": {"type": "box"}}


@pytest.mark.parametrize("descriptor,field", [
    ({"family": "l2_example", "n": True}, "n"),
    ({"family": "l2_example", "n": 3, "alpha": "x"}, "alpha"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "ball", "radius": "r"}},
     "set.radius"),
    ({**BOX2, "operator": {"matrix": [[math.nan, 0.0], [0.0, 1.0]]}}, "operator.matrix"),
    ({**BOX2, "operator": {"matrix": [[math.inf, 0.0], [0.0, 1.0]]}}, "operator.matrix"),
    # finite entries, but the norm and matrix + matrix.T overflow (and a
    # RuntimeWarning is an error in this suite)
    ({**BOX2, "operator": {"matrix": [[1e308, 1e308], [1e308, 1e308]]}}, "operator.matrix"),
    ({**BOX2, "operator": {"offset": [0.0, math.nan]}}, "operator.offset"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "box"}, "shift_offset": math.inf},
     "shift_offset"),
    ({"family": "affine", "n": 2, "seed": -1}, "seed"),
    # declared constants that the matrix contradicts: a skew matrix is not
    # strongly monotone, and 3*I has norm 3
    ({**BOX2, "operator": {"matrix": [[0.0, 1.0], [-1.0, 0.0]], "rho": 0.5, "L": 1.0}},
     "operator.rho"),
    ({**BOX2, "operator": {"matrix": [[3.0, 0.0], [0.0, 3.0]], "rho": 0.5, "L": 1.0}},
     "operator.L"),
    ({**BOX2, "operator": {"rho": -1}}, "operator.rho"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "ball", "center": [math.nan, 0.0]}},
     "set.center"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "ball", "center": math.nan}},
     "base_set.center"),
    ({"family": "l2_example", "n": 2.0}, "n must be"),
    ({"family": "l2_example", "n": 3, "alpha": math.inf}, "alpha"),
    ({"family": "affine", "n": 2, "seed": 1.5}, "seed"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "box", "lo": "abc"}}, "set.lo"),
    ({"family": "single_set_vi", "n": 2, "set": 5}, "set must be an object"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "disk"}}, "set.type"),
    ({**BOX2, "operator": "ident"}, "operator must be"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "box", "low": 0.5}},
     "base_set.low: unknown field"),
    ({"family": "single_set_vi", "n": 2, "set": []}, "set must be an object, got []"),
    # each message names the descriptor key, not the builder's parameter
    ({"family": "affine", "n": 2, "rho": 3, "L": 1}, "rho exceeds L (rho=3.0, L=1.0)"),
    ({"family": "affine", "n": 2, "rho": -1}, "rho must be positive"),
    ({"family": "affine", "n": 2, "L": 0}, "L must be positive"),
    # 2*beta, the set's constant l, overflows
    ({"family": "affine", "n": 2, "beta": 1e308}, "beta must be at most half"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "box"}, "shift_scale": 1e308},
     "shift_scale must be at most half"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "box"}, "shift_scale": -1e308},
     "shift_scale must be at most half"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "ball", "radius": -1}},
     "set.radius must be positive"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "ball", "radius": 0}},
     "base_set.radius must be positive"),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "box", "lo": [0, 2], "hi": 1}},
     "set.lo exceeds set.hi at index 1"),
    ({"family": "moving_set", "n": 2, "base_set": {"type": "box", "lo": 1, "hi": [2, 0]}},
     "base_set.lo exceeds base_set.hi at index 1"),
], ids=["bool-n", "string-alpha", "string-radius", "nan-matrix", "inf-matrix",
        "overflowing-matrix", "nan-offset", "inf-shift-offset", "negative-seed", "skew-rho",
        "identity-L", "negative-rho", "nan-ball-center", "nan-base-ball-center", "float-n",
        "inf-alpha", "float-seed", "string-box-bound", "set-not-object", "unknown-set-type",
        "unknown-operator", "unknown-field", "set-empty-list", "affine-rho-above-L",
        "affine-negative-rho", "affine-zero-L", "affine-huge-beta", "huge-shift-scale",
        "huge-negative-shift-scale", "negative-radius", "zero-base-radius", "box-lo-above-hi",
        "base-box-lo-above-hi"])
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


FLOW = ["flow", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2.0", "--lambda", "0.1"]
SWEEP = ["sweep", "--L", "1", "--rho", "1"]


@pytest.mark.parametrize("argv,message", [
    (["solve", "--problem", HALFLINE_DESCRIPTOR, "--x0", "1,a", "--lambda", "0.1"],
     "x0: could not convert string to float: 'a'"),
    ([*SWEEP, "--lambda-grid", "0.1:1:3", "--l-grid", ""],
     "l-grid: could not convert string to float: ''"),
    ([*SWEEP, "--lambda-grid", "0.1:1:0"], "lambda-grid: grid count must be an integer >= 1"),
    ([*SWEEP, "--lambda-grid", "0.1:1:2.5"], "lambda-grid: grid count must be an integer >= 1"),
    ([*SWEEP, "--lambda-grid", "0.1:1:x"], "lambda-grid: could not convert string to float"),
    ([*SWEEP, "--lambda-grid", "0.1:1"], "lambda-grid: expected 3 ':'-separated numbers"),
    ([*SWEEP, "--l-grid", "0:0.1:2"], "lambda: give --lambda or --lambda-grid"),
    ([*FLOW, "--h", "0.5", "--t-end", "2", "--alpha", "abc"],
     "alpha: could not convert string to float: 'abc'"),
    ([*FLOW, "--h", "0.5", "--t-end", "2", "--alpha", "0:1,x:2"],
     "alpha: could not convert string to float: 'x'"),
    ([*FLOW, "--h", "0.5", "--t-end", "2", "--alpha", "0:1,5"],
     "alpha: expected 2 ':'-separated numbers, got '5'"),
    ([*FLOW, "--h", "0.5", "--t-end", "2", "--alpha", "0:1,nan:2"],
     "alpha time must be finite, got nan"),
    ([*FLOW, "--h", "0.5", "--t-end", "2", "--alpha", "inf"],
     "alpha value must be nonnegative and finite, got inf"),
    # resource bounds: each is rejected before anything is allocated or run
    ([*FLOW, "--h", "1e-10", "--t-end", "1e308"], "t_end/h = inf steps exceed the limit"),
    ([*FLOW, "--h", "1e-300", "--t-end", "1", "--coords"],
     "t_end/h = 9.999999999999999e+299 steps"),
    (["solve", "--problem", json.dumps({"family": "l2_example", "n": 100_000_000_000}),
      "--x0", "zeros", "--lambda", "0.1"], "n = 100000000000 gives arrays of"),
], ids=["x0-word", "empty-l-grid", "zero-count", "fractional-count", "word-count",
        "two-part-grid", "grid-without-lambda", "alpha-word", "alpha-table-word",
        "alpha-table-pair", "alpha-nan-time", "alpha-inf", "flow-step-count",
        "flow-state-array", "l2-dimension"])
def test_bad_option_value_names_it(capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("ran past its validation")

    for module, name in ((cli, "solve"), (cli, "integrate"), (problems, "make_l2_example")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err


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


def test_solve_nan_at_first_operator_call(capsys, monkeypatch):
    problem = QviProblem(OperatorSpec(lambda x: x * np.nan, 1.0, 1.0),
                         ConstraintSpec(lambda x, z: z, 0.0), dim=2)
    trace = solve(problem, np.ones(2), SolverConfig(lam=0.1))
    assert trace.status == "numeric_failure"
    assert trace.records == [] and trace.final is None
    monkeypatch.setattr(cli, "load_problem", lambda spec: problem)
    code, out, _ = run(capsys, ["solve", "--problem", "nan", "--x0", "1,1",
                                "--lambda", "0.1"])
    assert code == 2
    assert out == ("# variant: tseng\n# lambda: 0.1\n# status: numeric_failure\n"
                   "# certificate_warning: true\nk,residual,dist_to_solution\n")


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


def test_compare_rejects_repeated_variant(capsys):
    code, out, err = run(capsys, [
        "compare", "--problem", L2_DESCRIPTOR, "--x0", "zeros",
        "--lambda", "0.1", "--variants", "tseng,extragradient,tseng"])
    assert code == 1
    assert out == ""
    assert "variants" in err


def test_compare_rejects_unknown_variant_before_solving(capsys, monkeypatch):
    solved = []
    monkeypatch.setattr(cli, "solve", lambda *args: solved.append(args))
    code, out, err = run(capsys, [
        "compare", "--problem", L2_DESCRIPTOR, "--x0", "zeros",
        "--lambda", "0.1", "--variants", "tseng,foo"])
    assert code == 1
    assert out == "" and solved == []
    assert "variants" in err and "foo" in err


def test_compare_numeric_failure_exit_code(capsys):
    # at lambda = 100 on l2 n=3 the Tseng iterates diverge; the baselines converge
    code, out, _ = run(capsys, [
        "compare", "--problem", json.dumps({"family": "l2_example", "n": 3}),
        "--x0", "geometric", "--lambda", "100"])
    assert code == 2
    meta = read_compare_csv(io.StringIO(out))["meta"]
    assert meta["tseng"].startswith("status=numeric_failure")
    assert meta["extragradient"].startswith("status=converged")


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


@pytest.mark.parametrize("argv, message", [
    (["--lambda-grid", "0.1:1:9"], "lambda-grid: grid count 9 exceeds the limit of 8"),
    (["--lambda", "0.5", "--l-grid", "0:1:9"], "l-grid: grid count 9 exceeds"),
    (["--lambda", "0.5", "--beta-grid", "0:0.4:9"], "beta-grid: grid count 9 exceeds"),
    (["--lambda-grid", "0.1:1:3", "--l-grid", "0,0.1,0.2"], "sweep: 9 cells"),
    (["--lambda-grid", "0.1,0.2,0.3", "--l-grid", "0,0.1", "--beta-grid", "0:0.2:2"],
     "sweep: 12 cells"),
])
def test_sweep_size_cap(capsys, monkeypatch, argv, message):
    counts = []
    linspace = np.linspace

    def counting_linspace(start, stop, count):
        counts.append(count)
        return linspace(start, stop, count)

    def no_constants(*args):
        raise AssertionError("constant_errors ran on a sweep above the cap")

    monkeypatch.setattr(cli, "MAX_SWEEP_CELLS", 8)
    monkeypatch.setattr(cli.np, "linspace", counting_linspace)
    monkeypatch.setattr(cli, "constant_errors", no_constants)
    code, out, err = run(capsys, ["sweep", "--L", "1", "--rho", "1", *argv])
    assert code == 1 and out == ""
    assert message in err
    assert all(count <= 8 for count in counts)  # no grid above the cap was built


def test_sweep_size_cap_admits_its_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_CELLS", 8)
    code, out, _ = run(capsys, ["sweep", "--L", "1", "--rho", "1",
                                "--lambda-grid", "0.1:0.8:4", "--l-grid", "0:0.1:2"])
    assert code == 0
    assert len(read_sweep_csv(io.StringIO(out))["rows"]) == 8


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


@pytest.mark.parametrize("grid", ["0.1:inf:1", "0.1:inf:3"])
def test_sweep_grid_with_an_infinite_span_gives_error_cells(capsys, grid):
    # np.linspace forms NaN and inf entries here, which warned before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, ["sweep", "--L", "1", "--rho", "1", "--lambda-grid", grid])
    assert code == 0
    rows = read_sweep_csv(io.StringIO(out))["rows"]
    # np.linspace forms no positive finite entry here (NaN even for start)
    assert len(rows) == int(grid[-1])
    assert all(row["status"].startswith("error: lambda must be") for row in rows)


@pytest.mark.parametrize("option", ["--lambda-grid", "--l-grid", "--beta-grid"])
@pytest.mark.parametrize("grid", ["1e308:-1e308:3", "-1e308:1e308:1", "-1.7e308:1.7e308:12"])
def test_sweep_grid_whose_finite_span_overflows_is_rejected(capsys, option, grid):
    # np.linspace would give NaN and inf cells for these finite endpoints
    code, out, err = run(capsys, ["sweep", "--L", "1", "--rho", "1", "--lambda", "0.1",
                                  f"{option}={grid}"])
    assert (code, out) == (1, "")
    assert f"error: {option[2:]}: the grid's span" in err and "overflows" in err


@pytest.mark.parametrize("argv,config", [
    (["sweep", "--L", "1", "--rho", "1", "--lambda-grid", "0.1", "--problem", ""],
     {"command": "sweep", "L": 1, "rho": 1, "lambda_grid": "0.1", "problem": ""}),
    (["solve", "--x0", "zeros", "--lambda", "0.1", "--problem", ""],
     {"command": "solve", "x0": "zeros", "lambda": 0.1, "problem": ""}),
], ids=["sweep", "solve"])
@pytest.mark.parametrize("by_config", [False, True], ids=["argv", "config"])
def test_empty_problem_names_no_file(capsys, tmp_path, argv, config, by_config):
    # an empty --problem is a path that is not there, for sweep as for solve
    if by_config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "problem: file not found" in err


@pytest.mark.parametrize("values", [
    np.array([0.0, -0.0, 0.0, -0.0, 1.5, 1.5, -1.5, 5e-324, -5e-324]),
    np.array([math.inf, -math.inf, math.nan, -math.nan, 1e300 * 1e300, 0.1, 0.1]),
    # NaNs with another payload and with the sign bit set
    np.array([0x7FF8000000000001, 0x3FF0000000000000, 0xFFF8000000000000],
             dtype=np.uint64).view(float)[[0, 1, 0, 2]],
    np.array([], dtype=float),
    np.array([True, False, True, True]),
    np.array([False, False]),
])
def test_column_formatter_matches_cell(values):
    assert csvio._column(values) == [csvio._cell(v) for v in values.tolist()]


def test_sweep_problem_solves_once_per_lambda(capsys, monkeypatch):
    lams = []

    def counting_solve(problem, x0, config):
        lams.append(config.lam)
        return solve(problem, x0, config)

    monkeypatch.setattr(cli, "solve", counting_solve)
    code, out, _ = run(capsys, [
        "sweep", "--L", "3", "--rho", "1", "--lambda-grid", "0.05:0.25:20",
        "--l-grid", "0:0.45:10", "--problem", L2_DESCRIPTOR, "--max-iter", "300"])
    assert code == 0
    assert lams == [float(v) for v in np.linspace(0.05, 0.25, 20)]
    rows = read_sweep_csv(io.StringIO(out))["rows"]
    assert len(rows) == 200
    for lam, row in zip(np.repeat(lams, 10), rows):
        assert row["lambda"] == lam
        assert row["empirical_rate"] == rows[lams.index(lam) * 10]["empirical_rate"]


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

# deeper than the JSON parser's recursion allows
DEEP_JSON = '{"a": ' + "[" * 200_000

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


def test_config_document_with_flag_list_and_null(tmp_path):
    # true is a bare flag, a list a comma list, null an absent option
    flag_target = tmp_path / "by_flags.csv"
    config_target = tmp_path / "by_config.csv"
    assert main(["flow", "--problem", json.dumps({"family": "l2_example", "n": 3}),
                 "--x0", "0.5,0.25,0.125", "--lambda", "0.1", "--h", "0.5", "--t-end", "2",
                 "--coords", "-o", str(flag_target)]) == 0
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "command": "flow", "problem": {"family": "l2_example", "n": 3},
        "x0": [0.5, 0.25, 0.125], "lambda": 0.1, "h": 0.5, "t_end": 2, "coords": True,
        "alpha": None, "output": str(config_target)}))
    assert main(["--config", str(config_path)]) == 0
    assert config_target.read_bytes() == flag_target.read_bytes()


@pytest.mark.parametrize("text,message", [
    ("[1]", "config: expected a JSON object, got list"),
    ('"solve"', "config: expected a JSON object, got str"),
    ("5", "config: expected a JSON object, got int"),
    ("null", "config: expected a JSON object, got NoneType"),
    ("{not json", "config: invalid JSON: "),
    # --config takes a path only: inline JSON names a file that is not there
    ('{"command": "certify"}', "config: file not found"),
    pytest.param(b'{"command": "\xff"}', "config: not UTF-8 text: ", id="byte-0xff"),
    pytest.param(DEEP_JSON, "config: invalid JSON: nested too deeply", id="nested-too-deeply"),
    # a name the file system rejects is passed as the path itself
    pytest.param("a" * 5000, "config: cannot read the file: File name too long",
                 id="name-too-long"),
])
def test_config_must_be_a_file_holding_an_object(capsys, tmp_path, text, message):
    config_path = tmp_path / "run.json"
    config_path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    as_path = "not found" in message or "cannot read" in message
    argv = ["--config", text if as_path else str(config_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("text,inline,message", [
    pytest.param(b'{"family": "\xff"}', False, "problem: not UTF-8 text: ", id="byte-0xff"),
    pytest.param(DEEP_JSON, True, "problem: invalid JSON: nested too deeply",
                 id="nested-too-deeply-inline"),
    pytest.param(DEEP_JSON, False, "problem: invalid JSON: nested too deeply",
                 id="nested-too-deeply-file"),
    pytest.param("a" * 5000, True, "problem: cannot read the file: File name too long",
                 id="name-too-long"),
])
def test_problem_document_errors_name_the_problem(capsys, tmp_path, text, inline, message):
    path = tmp_path / "problem.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, out, err = run(capsys, ["solve", "--problem", text if inline else str(path),
                                  "--x0", "zeros", "--lambda", "0.1"])
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("option", ["--x0", "--problem", "--output", "--lambda", "--variant"])
def test_double_dash_is_no_option_value(capsys, tmp_path, option):
    # argparse reads --x0=-- as the value [], which reached the commands
    argv = ["solve", "--problem", HALFLINE_DESCRIPTOR, "--x0", "2", "--lambda", "0.1"]
    code, out, err = run(capsys, [*argv, f"{option}=--"])
    assert (code, out, err) == (1, "", "error: an option's value may not be '--'\n")
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"command": "solve", "problem": HALFLINE_DESCRIPTOR,
                                       "x0": "2", "lambda": 0.1, option[2:]: "--"}))
    code, out, err = run(capsys, ["--config", str(config_path)])
    assert (code, out, err) == (1, "", "error: an option's value may not be '--'\n")


@pytest.mark.parametrize("target", [".", "missing/out.csv"])
def test_output_that_cannot_be_written_exits_1(capsys, tmp_path, target):
    code, out, err = run(capsys, ["certify", "--L", "3", "--rho", "1", "--lambda", "0.1",
                                  "-o", str(tmp_path / target)])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno") and str(tmp_path / target) in err


@pytest.mark.parametrize("x0", [[-0.5, 1.0], "-0.5,1.0"], ids=["list", "text"])
def test_config_values_may_start_with_a_dash(tmp_path, x0):
    problem = {"family": "single_set_vi", "n": 2, "set": {"type": "box", "lo": -1.0, "hi": 1.0}}
    flag_target = tmp_path / "by_flags.csv"
    config_target = tmp_path / "by_config.csv"
    assert main(["solve", "--problem", json.dumps(problem), "--x0=-0.5,1.0",
                 "--lambda", "0.1", "-o", str(flag_target)]) == 0
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"command": "solve", "problem": problem, "x0": x0,
                                       "lambda": 0.1, "output": str(config_target)}))
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


# ------------------------------------------------------------ closed stdout

@pytest.mark.parametrize("argv, lines, code", [
    # 12,006 lines, many blocks: the reader takes the first and closes the pipe
    (["sweep", "--L", "3", "--rho", "1", "--lambda-grid", "0.01:0.5:120",
      "--l-grid", "0:0.3:10", "--beta-grid", "0:0.5:10"], 1, 0),
    # the reader closes the pipe before the first line; tseng diverges at lambda 100
    (["solve", "--problem", json.dumps({"family": "l2_example", "n": 3}), "--x0", "geometric",
      "--lambda", "100"], 0, 2),
])
def test_a_reader_that_stops_early_is_not_an_error(argv, lines, code):
    # as `qvisolve ... | head`: no message, and the command's own exit code
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "qvisolve.cli", *argv], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        head = [child.stdout.readline() for _ in range(lines)]
        child.stdout.close()
        err = child.stderr.read()
    assert head == ["# sweep: L=3.0, rho=1.0\n"][:lines]
    assert (child.returncode, err) == (code, "")


# ------------------------------------------------------ generated command lines

# Option values: plausible ones, numbers at the float range's ends, of either
# sign and beyond it, and text that is no number; descriptors of n <= 3.
# Counts, grid sizes and flow lengths stay small, and the test patches the
# caps small.
_EDGES = st.sampled_from(["0", "-0", "-0.0", "nan", "inf", "-inf", "1e308", "-1e308", "1e400",
                          "5e-324", "-1", "-2.5", "1e12", "1e300"])
_TEXT = st.one_of(st.sampled_from(["", " ", "abc", "1,2", "1:2", "0x10", "1e", "--", "[]",
                                   "zeros", "{"]), st.text(max_size=4))
_POSITIVES = st.sampled_from(["0.1", "0.5", "1", "2", "3"]) | st.floats(1e-3, 10.0).map(repr)


def _value(plausible, edges=_EDGES):
    """Mostly a plausible value; one time in eight an edge value, one time
    in sixteen bad text."""
    return st.integers(0, 15).flatmap(
        lambda i: plausible if i < 13 else edges if i < 15 else _TEXT)


_JSON_EDGES = st.sampled_from([0, -1, 0.0, -0.0, 1e308, -1e308, math.nan, math.inf, 5e-324,
                               10 ** 400, "1", None, True, [1.0], {}])
_JSON_POSITIVES = st.sampled_from([0.1, 0.5, 1, 2.0, 3.0])
_JSON = _value(_JSON_POSITIVES, _JSON_EDGES)
_N = _value(st.integers(1, 3), st.sampled_from([0, -1, 2.0, True, 10 ** 400]))
_SETS = _value(st.one_of(
    st.fixed_dictionaries({"type": st.just("box")},
                          optional={"lo": _value(st.sampled_from([-1.0, 0.0, 1.0]), _JSON_EDGES),
                                    "hi": _value(st.sampled_from([1.0, 2.0]), _JSON_EDGES)}),
    st.fixed_dictionaries({"type": st.just("ball")},
                          optional={"center": _value(st.sampled_from([0.0, 0.5]), _JSON_EDGES),
                                    "radius": _JSON})), _JSON_EDGES)
_DESCRIPTORS = st.one_of(
    st.fixed_dictionaries({"family": st.just("l2_example"), "n": _N},
                          optional={"alpha": _value(st.just(2.0), _JSON_EDGES)}),
    st.fixed_dictionaries({"family": st.just("affine"), "n": _N}, optional={
        "seed": _value(st.integers(0, 3), _JSON_EDGES),
        "rho": _value(st.sampled_from([0.1, 0.5, 1.0]), _JSON_EDGES),
        "L": _value(st.sampled_from([1, 2.0, 3.0]), _JSON_EDGES), "beta": _JSON}),
    st.fixed_dictionaries({"family": st.just("moving_set"), "n": _N, "base_set": _SETS},
                          optional={"shift_scale": _JSON, "shift_offset": _JSON}),
    st.fixed_dictionaries({"family": st.just("single_set_vi"), "n": _N, "set": _SETS},
                          optional={"operator": st.sampled_from(["identity", {"L": 2.0}]),
                                    "known_solution": _value(st.just([1.0]), _JSON_EDGES)}))
_PROBLEM = _value(_DESCRIPTORS.map(json.dumps))
_X0 = _value(st.sampled_from(["zeros", "geometric"])
             | st.lists(_POSITIVES | _EDGES, min_size=1, max_size=3).map(",".join))
_NUMBER = _value(_POSITIVES)
_MAX_ITER = _value(st.integers(1, 30).map(str), st.sampled_from(["0", "-1", "1.5", "1e3"]))
_GRID = _value(st.lists(_POSITIVES, min_size=1, max_size=4).map(",".join)
               | st.tuples(_POSITIVES, _POSITIVES | _EDGES,
                           _value(st.integers(1, 4).map(str))).map(":".join))
_ALPHA = _value(_POSITIVES | st.sampled_from(["0:1,1:0.5", "0:2,0.5:0,3:1"]))
_VARIANT = _value(st.sampled_from(VARIANTS))
_OUTPUT = st.sampled_from(["out.csv", "out.csv", ".", "missing/out.csv"])
# subcommand -> (its required options, its optional ones) -> their values;
# a flag's value is None
_COMMANDS = {
    "certify": ({"--L": _NUMBER, "--rho": _NUMBER, "--lambda": _NUMBER},
                {"--l": _NUMBER, "--beta": _NUMBER,
                 "--format": _value(st.sampled_from(["json", "csv"])), "--output": _OUTPUT}),
    "solve": ({"--problem": _PROBLEM, "--x0": _X0, "--lambda": _NUMBER},
              {"--tol": _NUMBER, "--max-iter": _MAX_ITER, "--variant": _VARIANT,
               "--output": _OUTPUT}),
    "flow": ({"--problem": _PROBLEM, "--x0": _X0, "--lambda": _NUMBER, "--h": _NUMBER,
              "--t-end": _NUMBER},
             {"--scheme": _value(st.sampled_from(["euler", "rk4"])), "--alpha": _ALPHA,
              "--coords": st.none(), "--output": _OUTPUT}),
    "compare": ({"--problem": _PROBLEM, "--x0": _X0, "--lambda": _NUMBER},
                {"--variants": _value(st.lists(st.sampled_from(VARIANTS), min_size=1,
                                               max_size=3).map(",".join)),
                 "--tol": _NUMBER, "--max-iter": _MAX_ITER, "--output": _OUTPUT}),
    "sweep": ({"--L": _NUMBER, "--rho": _NUMBER, "--lambda-grid": _GRID},
              {"--l": _NUMBER, "--lambda": _NUMBER, "--beta": _NUMBER,
               "--l-grid": _GRID, "--beta-grid": _GRID, "--problem": _PROBLEM, "--x0": _X0,
               "--tol": _NUMBER, "--max-iter": _MAX_ITER, "--variant": _VARIANT,
               "--output": _OUTPUT}),
}
_RUNS = st.tuples(
    st.one_of(*[st.tuples(st.just(command), st.fixed_dictionaries(required, optional=optional))
                for command, (required, optional) in _COMMANDS.items()]),
    st.sampled_from(["argv", "argv=", "config", "config-json"]))


def _json_value(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


@given(_RUNS)
def test_main_exits_0_1_or_2(run_spec):
    # any command line, or the same run as a --config document, exits 0, 1
    # or 2 with no uncaught exception and no RuntimeWarning. (The
    # function-scoped tmp_path and monkeypatch fixtures would fail
    # hypothesis's health check.)
    (command, options), form = run_spec
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "MAX_SWEEP_CELLS", 12), \
            mock.patch.object(problems, "MAX_DESCRIPTOR_ENTRIES", 36), \
            mock.patch.object(dynamics, "MAX_FLOW_STEPS", 200), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if "--output" in options:
            options = {**options, "--output": os.path.join(tmp, options["--output"])}
        if form.startswith("config"):
            # config-json stores each value that is JSON text as the JSON value
            doc = {"command": command, **{key[2:].replace("-", "_"): True if value is None
                                          else _json_value(value) if form == "config-json"
                                          else value for key, value in options.items()}}
            path = os.path.join(tmp, "run.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = ["--config", path]
        else:
            argv = [command]
            for key, value in options.items():
                argv += ([key] if value is None else [f"{key}={value}"] if form == "argv="
                         else [key, value])
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
