import math

import numpy as np
import pytest

from qvisolve import (
    ConstraintSpec,
    NumericFailure,
    OperatorSpec,
    QviProblem,
    ValidationError,
    evaluate_operator,
    natural_residual,
    norm,
    project,
    tseng_map,
)
from qvisolve.certify import ProblemConstants, full_certificate
from qvisolve.core import as_vector
from qvisolve.problems import AffineMap, make_l2_example


# ---------------------------------------------------------------- validation

def test_as_vector_rejects_bad_input():
    with pytest.raises(ValidationError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValidationError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValidationError):
        as_vector([1.0, np.inf])


def test_operator_spec_forces_rho_below_L():
    with pytest.raises(ValidationError):
        OperatorSpec(lambda x: x, lipschitz_L=1.0, strong_rho=2.0)
    with pytest.raises(ValidationError):
        OperatorSpec(lambda x: x, lipschitz_L=0.0, strong_rho=0.0)


def test_constraint_spec_rejects_negative_l():
    with pytest.raises(ValidationError):
        ConstraintSpec(lambda x, z: z, lip_l=-0.1)


def test_problem_rejects_bad_dim_and_solution():
    op = OperatorSpec(lambda x: x, 1.0, 1.0)
    con = ConstraintSpec(lambda x, z: z, 0.0)
    for dim in (0, True):
        with pytest.raises(ValidationError, match="dim"):
            QviProblem(op, con, dim=dim)
    with pytest.raises(ValidationError):
        QviProblem(op, con, dim=2, known_solution=[1.0])


# ------------------------------------------------------------------ operator

def test_operator_zero_maps_to_zero(l2_problem):
    out = evaluate_operator(l2_problem, np.zeros(50))
    assert np.all(out == 0.0)


def test_operator_halfpi_value():
    problem = make_l2_example(4, 2.0)
    x = np.array([np.pi / 2, 0.0, 0.0, 0.0])
    out = evaluate_operator(problem, x)
    assert out[0] == pytest.approx(np.pi + 1.0, rel=1e-12)
    assert np.all(out[1:] == 0.0)


def test_identity_operator():
    op = OperatorSpec(AffineMap(np.eye(3), np.zeros(3)), 1.0, 1.0)
    problem = QviProblem(op, ConstraintSpec(lambda x, z: z, 0.0), dim=3)
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(evaluate_operator(problem, x), x)


def test_operator_dimension_mismatch(l2_problem):
    with pytest.raises(ValidationError):
        evaluate_operator(l2_problem, np.zeros(49))


def test_nan_oracle_raises_numeric_failure():
    op = OperatorSpec(lambda x: x * np.nan, 1.0, 1.0)
    problem = QviProblem(op, ConstraintSpec(lambda x, z: z, 0.0), dim=2)
    with pytest.raises(NumericFailure):
        evaluate_operator(problem, np.ones(2))


# ---------------------------------------------------------------- projection

def test_l2_projection_below_bound(l2_problem):
    x = np.zeros(50)
    x[0] = 1.0
    z = np.zeros(50)
    z[0], z[1] = 0.05, 0.3
    p = project(l2_problem, x, z)
    expected = np.zeros(50)
    expected[0] = 0.1
    assert np.array_equal(p, expected)


def test_l2_projection_above_bound(l2_problem):
    x = np.zeros(50)
    x[0] = 1.0
    z = np.zeros(50)
    z[0], z[1] = 0.2, 0.4
    p = project(l2_problem, x, z)
    expected = np.zeros(50)
    expected[0] = 0.2
    assert np.array_equal(p, expected)


def test_projection_fixes_members(l2_problem):
    x = np.zeros(50)
    x[0] = 1.0
    z = np.zeros(50)
    z[0] = 0.5  # in K(x): z0 >= x0/10, tail zero
    assert np.array_equal(project(l2_problem, x, z), z)


def test_projection_variational_characterization(problem_suite):
    # <z - p, y - p> <= 0 for members y of K(x); members are generated by
    # projecting random points
    rng = np.random.default_rng(42)
    for problem in problem_suite:
        for _ in range(50):
            x = rng.normal(size=problem.dim)
            z = rng.normal(size=problem.dim) * 2.0
            p = project(problem, x, z)
            for _ in range(10):
                member = project(problem, x, rng.normal(size=problem.dim) * 3.0)
                assert float(np.dot(z - p, member - p)) <= 1e-9, problem.name


# ------------------------------------------------------------------ residual

def test_residual_zero_at_l2_solution(l2_problem):
    assert natural_residual(l2_problem, np.zeros(50), 0.1) == 0.0


def test_residual_halfline_values(halfline):
    assert natural_residual(halfline, [1.0], 0.1) == 0.0
    assert natural_residual(halfline, [2.0], 0.1) == pytest.approx(0.2, rel=1e-12)


def test_residual_rejects_nonpositive_lambda(halfline):
    with pytest.raises(ValidationError):
        natural_residual(halfline, [1.0], 0.0)
    with pytest.raises(ValidationError):
        natural_residual(halfline, [1.0], -0.5)


def test_residual_zero_at_known_solutions_for_lambda_grid(problem_suite):
    for problem in problem_suite:
        assert problem.known_solution is not None
        for lam in (0.01, 0.1, 1.0):
            r = natural_residual(problem, problem.known_solution, lam)
            assert r <= 1e-9, (problem.name, lam, r)


# ----------------------------------------------------------------- tseng map

def test_tseng_map_zero_at_solutions(problem_suite):
    for problem in problem_suite:
        f = tseng_map(problem, problem.known_solution, 0.1)
        assert norm(f) <= 1e-9, problem.name


def test_tseng_map_halfline_value(halfline):
    f = tseng_map(halfline, [2.0], 0.1)
    assert f[0] == pytest.approx(-0.18, rel=1e-12)


def test_tseng_map_dimension_mismatch(l2_problem):
    with pytest.raises(ValidationError):
        tseng_map(l2_problem, np.zeros(10), 0.1)


def test_tseng_map_oracle_call_counts(l2_problem):
    from oracles import counting_problem
    wrapped, counts = counting_problem(l2_problem)
    tseng_map(wrapped, np.ones(50), 0.1)
    assert counts == {"operator": 2, "projection": 1}


# ------------------------------------------------- sampled inequality suites

def test_projected_step_contraction(problem_suite):
    # ||P_{K(x)}(x - lam F(x)) - P_{K(y)}(y - lam F(y))|| <= theta ||x - y||
    rng = np.random.default_rng(7)
    for problem in problem_suite:
        L = problem.operator.lipschitz_L
        for _ in range(1000):
            lam = rng.uniform(0.01, 2.0 / L)
            th = full_certificate(ProblemConstants.of(problem, lam)).theta
            x = rng.normal(size=problem.dim) * 2.0
            y = rng.normal(size=problem.dim) * 2.0
            px = project(problem, x, x - lam * evaluate_operator(problem, x))
            py = project(problem, y, y - lam * evaluate_operator(problem, y))
            gap = norm(px - py) - th * norm(x - y) - 1e-10 * norm(x - y)
            assert gap <= 0.0, (problem.name, lam, gap)


def test_step_operator_bound(problem_suite):
    # ||(x - lam F(x)) - (y - lam F(y))|| <= sqrt(1 - 2 lam rho + lam^2 L^2) ||x-y||
    rng = np.random.default_rng(8)
    for problem in problem_suite:
        L = problem.operator.lipschitz_L
        rho = problem.operator.strong_rho
        for _ in range(1000):
            lam = rng.uniform(0.01, 2.0 / L)
            factor = math.sqrt(1.0 - 2.0 * lam * rho + (lam * L) ** 2)
            x = rng.normal(size=problem.dim) * 2.0
            y = rng.normal(size=problem.dim) * 2.0
            lhs = norm((x - lam * evaluate_operator(problem, x))
                       - (y - lam * evaluate_operator(problem, y)))
            assert lhs <= factor * norm(x - y) + 1e-9, problem.name


def test_vector_field_lipschitz_bound(problem_suite):
    # ||f(x) - f(z)|| <= (1 + lam L)(1 + theta) ||x - z||
    rng = np.random.default_rng(9)
    for problem in problem_suite:
        L = problem.operator.lipschitz_L
        for _ in range(1000):
            lam = rng.uniform(0.01, 2.0 / L)
            th = full_certificate(ProblemConstants.of(problem, lam)).theta
            bound = (1.0 + lam * L) * (1.0 + th)
            x = rng.normal(size=problem.dim) * 2.0
            z = rng.normal(size=problem.dim) * 2.0
            lhs = norm(tseng_map(problem, x, lam) - tseng_map(problem, z, lam))
            assert lhs <= bound * norm(x - z) + 1e-9, problem.name


def test_residual_bound_at_known_solution(problem_suite):
    # ||x - y - lam (F(x) - F(y))|| <= (1 + theta)(1 + lam L) ||x - x*||
    rng = np.random.default_rng(10)
    for problem in problem_suite:
        L = problem.operator.lipschitz_L
        xstar = problem.known_solution
        for _ in range(1000):
            lam = rng.uniform(0.01, 2.0 / L)
            th = full_certificate(ProblemConstants.of(problem, lam)).theta
            bound = (1.0 + th) * (1.0 + lam * L)
            x = rng.normal(size=problem.dim) * 2.0
            Fx = evaluate_operator(problem, x)
            y = project(problem, x, x - lam * Fx)
            lhs = norm(x - y - lam * (Fx - evaluate_operator(problem, y)))
            assert lhs <= bound * norm(x - xstar) + 1e-9, problem.name
