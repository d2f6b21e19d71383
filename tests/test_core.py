import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    step,
    tseng_map,
)
from qvisolve.certify import ProblemConstants, full_certificate
from qvisolve.core import as_vector, require_nonnegative, require_positive, require_real
from qvisolve.dynamics import AlphaSchedule, FlowConfig
from qvisolve.problems import (AffineMap, BallSet, BoxSet, load_problem, make_affine_qvi,
                               make_l2_example, make_moving_box_problem, moving_set)
from qvisolve.solvers import SolverConfig

from oracles import assert_finite_arguments, counting_moving_box, poisoned_problem


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
    with pytest.raises(ValidationError, match="^x: could not convert"):
        as_vector(["a", 1.0])


def _identity(x, z=None):
    return x


# a scalar constant that is not a finite real number, or not of the required
# sign, given to each place that takes one -> the field its error names
BAD_SCALARS = {
    "require_positive-str": (lambda: require_positive("0.1", "lambda"), "lambda"),
    "require_positive-bool": (lambda: require_positive(True, "lambda"), "lambda"),
    "require_positive-np.bool_": (lambda: require_positive(np.bool_(True), "h"), "h"),
    "require_positive-complex": (lambda: require_positive(1j, "h"), "h"),
    "require_real-None": (lambda: require_real(None, "alpha"), "alpha"),
    "require_real-nan": (lambda: require_real(np.float32(np.nan), "alpha"), "alpha"),
    "require_real-huge-int": (lambda: require_real(10**400, "alpha"), "alpha"),
    "require_nonnegative-negative": (lambda: require_nonnegative(-0.5, "beta"), "beta"),
    "OperatorSpec-str": (lambda: OperatorSpec(_identity, "3", "1"), "lipschitz_L"),
    "SolverConfig-str": (lambda: SolverConfig(lam="0.1"), "lambda"),
    "ConstraintSpec-str": (lambda: ConstraintSpec(_identity, lip_l="0.1"), "lip_l"),
    "ConstraintSpec-bool": (lambda: ConstraintSpec(_identity, True), "lip_l"),
    "BallSet-str": (lambda: BallSet(np.zeros(2), "1"), "ball radius"),
    "BallSet-bool": (lambda: BallSet(np.zeros(2), True), "ball radius"),
    "moving_set-str": (lambda: moving_set(_identity, "0.1", _identity), "shift_lipschitz"),
    "ProblemConstants-str": (lambda: ProblemConstants(L="3", rho=1.0, l=0.0, lam=0.1), "L"),
    "ProblemConstants-bool-beta": (
        lambda: ProblemConstants(L=3.0, rho=1.0, l=0.0, lam=0.1, beta=False), "beta"),
    "ProblemConstants-huge-int": (
        lambda: ProblemConstants(L=10**400, rho=1.0, l=0.0, lam=0.1), "L"),
    "make_l2_example-str": (lambda: make_l2_example(2, "3"), "alpha"),
    "make_l2_example-inf": (lambda: make_l2_example(2, np.inf), "alpha"),
    "make_affine_qvi-str": (lambda: make_affine_qvi(3, 0, 1.0, 2.0, "0.1"), "beta"),
    "make_affine_qvi-str-rho": (lambda: make_affine_qvi(3, 0, "1", 2.0, 0.1), "rho_target"),
    "make_affine_qvi-inf-L": (lambda: make_affine_qvi(3, 0, 1.0, np.inf, 0.1), "L_target"),
    "make_moving_box_problem-str": (lambda: make_moving_box_problem(2, "0.1"), "shift_scale"),
    "AlphaSchedule-str": (lambda: AlphaSchedule(("a",), (1.0,)), "alpha time"),
    "AlphaSchedule-bool": (lambda: AlphaSchedule((0.0,), (True,)), "alpha value"),
    "AlphaSchedule-nan-time": (lambda: AlphaSchedule((0.0, np.nan), (1.0, 2.0)), "alpha time"),
    "FlowConfig-str": (lambda: FlowConfig(lam=0.1, h="0.1", t_end=1.0), "h"),
    "FlowConfig-alpha-float": (lambda: FlowConfig(lam=0.1, h=0.1, t_end=1.0, alpha=2.0), "alpha"),
    "FlowConfig-alpha-str": (lambda: FlowConfig(lam=0.1, h=0.1, t_end=1.0, alpha="0:1"),
                             "alpha"),
}


@pytest.mark.parametrize("case", list(BAD_SCALARS))
def test_scalar_constants_pass_one_check(case):
    make, field = BAD_SCALARS[case]
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        make()


BOX2 = {"family": "single_set_vi", "n": 2, "set": {"type": "box"}}
_OP = OperatorSpec(_identity, 1.0, 1.0)
_CON = ConstraintSpec(_identity, 0.0)

# an array input that is not a real vector (or square matrix) of the
# required length, given to each place that takes one -> the field its
# error names
BAD_ARRAYS = {
    "BoxSet-str": (lambda: BoxSet(["a"], [1.0]), "box lo"),
    "BoxSet-ragged": (lambda: BoxSet([[0.0], [0.0, 1.0]], [1.0]), "box lo"),
    "BoxSet-bool": (lambda: BoxSet([True], [1.0]), "box lo"),
    "BoxSet-nan-hi": (lambda: BoxSet(np.zeros(2), [np.nan, 1.0]), "box hi"),
    "from_bounds-str": (lambda: BoxSet.from_bounds(2, "a", 1.0), "box lo"),
    "from_bounds-length": (lambda: BoxSet.from_bounds(2, [0.0, 0.0, 0.0], 1.0), "box lo"),
    "from_bounds-bool-n": (lambda: BoxSet.from_bounds(True, 0.0, 1.0), "n"),
    "AffineMap-str": (lambda: AffineMap([["a"]], [0.0]), "matrix"),
    "AffineMap-complex": (lambda: AffineMap([[1j]], [0.0]), "matrix"),
    "AffineMap-complex-array": (lambda: AffineMap(np.array([[1j]]), [0.0]), "matrix"),
    "AffineMap-inf": (lambda: AffineMap([[np.inf]], [0.0]), "matrix"),
    "AffineMap-nan-offset": (lambda: AffineMap(np.eye(1), [np.nan]), "offset"),
    # numpy upcasts a bool among numbers in a list, so these are read entry by entry
    "BoxSet-mixed-bool": (lambda: BoxSet([True, 1.0], [2.0, 2.0]), "box lo"),
    "BallSet-mixed-np.bool_": (lambda: BallSet([1.0, np.True_], 1.0), "ball center"),
    "BallSet-complex-object-array": (
        lambda: BallSet(np.array([1.0, np.complex128(1j)], dtype=object), 1.0), "ball center"),
    "AffineMap-mixed-bool-matrix": (
        lambda: AffineMap([[1.0, True], [0.0, 1.0]], [0.0, 0.0]), "matrix"),
    "AffineMap-bool-array-row": (
        lambda: AffineMap([np.array([True, False]), [0.0, 1.0]], [0.0, 0.0]), "matrix"),
    "AlphaSchedule-scalars": (lambda: AlphaSchedule(1.0, 1.0), "alpha schedule"),
    "AlphaSchedule-None": (lambda: AlphaSchedule(None, None), "alpha schedule"),
    "AlphaSchedule-None-values": (lambda: AlphaSchedule((0.0,), None), "alpha schedule"),
    "QviProblem-bool": (lambda: QviProblem(_OP, _CON, 1, known_solution=[True]), "known_solution"),
    "descriptor-text-bound": (
        lambda: load_problem({**BOX2, "set": {"type": "box", "lo": "0"}}), "set.lo"),
    "descriptor-short-bound": (
        lambda: load_problem({**BOX2, "set": {"type": "box", "hi": [1.0]}}), "set.hi"),
    "descriptor-bool-matrix": (
        lambda: load_problem({**BOX2, "operator": {"matrix": [[True, False], [False, True]]}}),
        "operator.matrix"),
}


@pytest.mark.parametrize("case", list(BAD_ARRAYS))
def test_array_inputs_pass_one_check(case):
    make, field = BAD_ARRAYS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(field)}[ :]"):
        make()


# junk in place of an array: None, bools, text, complex numbers (numpy's
# too), dicts, non-finite floats, ragged nested lists and wrong lengths
_junk_entry = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(), st.integers(),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=2))
_junk_array = st.one_of(
    st.recursive(_junk_entry, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.booleans(), min_size=1, max_size=3).map(np.array),
    st.lists(st.complex_numbers(), min_size=1, max_size=3).map(np.array))
ARRAY_FIELDS = {
    "BoxSet.lo": lambda v: BoxSet(v, np.ones(2)),
    "BoxSet.hi": lambda v: BoxSet(-np.ones(2), v),
    "BoxSet.from_bounds": lambda v: BoxSet.from_bounds(2, v, np.inf),
    "BallSet.center": lambda v: BallSet(v, 1.0),
    "AffineMap.matrix": lambda v: AffineMap(v, np.zeros(2)),
    "AffineMap.offset": lambda v: AffineMap(np.eye(2), v),
    "QviProblem.known_solution": lambda v: QviProblem(_OP, _CON, 2, known_solution=v),
    "AlphaSchedule.times": lambda v: AlphaSchedule(v, (1.0, 2.0)),
    "AlphaSchedule.values": lambda v: AlphaSchedule((0.0, 1.0), v),
}


@given(st.sampled_from(sorted(ARRAY_FIELDS)), _junk_array)
def test_junk_arrays_raise_only_validation_errors(field, value):
    try:
        ARRAY_FIELDS[field](value)
    except ValidationError:
        pass


def test_array_fields_hold_read_only_copies():
    given_arrays = [np.zeros(2), np.ones(2), np.zeros(2), np.eye(2), np.zeros(2), np.zeros(2)]
    box = BoxSet(*given_arrays[:2])
    affine = AffineMap(*given_arrays[3:5])
    kept = [box.lo, box.hi, BallSet(given_arrays[2], 1.0).center, affine.matrix, affine.offset,
            QviProblem(_OP, _CON, 2, known_solution=given_arrays[5]).known_solution]
    for before, after in zip(given_arrays, kept):
        assert not after.flags.writeable and not np.shares_memory(before, after)
        assert after.dtype == np.float64 and np.array_equal(before, after)


@pytest.mark.parametrize("value", [3, 3.0, np.float64(3.0), np.float32(0.1), np.int64(3),
                                   2**1000, -0.0, 5e-324],
                         ids=["int", "float", "float64", "float32", "int64", "2**1000",
                              "-0.0", "subnormal"])
def test_real_numbers_keep_their_value(value):
    assert require_real(value, "x") == float(value) == value
    assert type(require_real(value, "x")) is float
    assert require_nonnegative(abs(value), "x") == abs(value)
    if value > 0:
        assert require_positive(value, "x") == value
        assert BallSet(np.zeros(1), value).radius == value
        assert ProblemConstants(L=value, rho=value, l=0.0, lam=value).L == value


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


# an oracle output that is not real: complex, bool or text; a list (of mixed
# bools and floats) too, which numpy would convert to floats without complaint
NOT_REAL_OUTPUTS = {
    "complex": (lambda x: (1 + 1j) * x, "complex"),
    "bool": (lambda x: x > 0, "bool"),
    "text": (lambda x: x.astype(str), "text"),
    "mixed-list": (lambda x: [True, *x[1:]], "bool"),
}


@pytest.mark.parametrize("case", list(NOT_REAL_OUTPUTS))
def test_oracle_outputs_must_be_real(case):
    make, kind = NOT_REAL_OUTPUTS[case]
    message = f"could not convert {kind} entries to float"
    operator = QviProblem(OperatorSpec(make, 1.0, 1.0), ConstraintSpec(lambda x, z: z, 0.0), dim=2)
    with pytest.raises(ValidationError, match=f"^operator oracle: {message}"):
        evaluate_operator(operator, [1.0, 2.0])
    projection = QviProblem(OperatorSpec(_identity, 1.0, 1.0),
                            ConstraintSpec(lambda x, z: make(z), 0.0), dim=2)
    with pytest.raises(ValidationError, match=f"^projection oracle: {message}"):
        project(projection, [1.0, 2.0], [1.0, 2.0])
    single_set = QviProblem(OperatorSpec(_identity, 1.0, 1.0),
                            ConstraintSpec(lambda x, z: make(z), 0.0), 2)
    with pytest.raises(ValidationError, match=f"^projection oracle: {message}"):
        project(single_set, [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError, match=f"^shift oracle: {message}"):
        moving_set(make, 0.0, _identity).project(np.ones(2), np.ones(2))


# public one-shot entry point -> (call, operator calls, projection calls)
ONE_SHOT = {
    "evaluate_operator": (evaluate_operator, 1, 0),
    "project": (lambda p, x: project(p, x, x), 0, 1),
    "natural_residual": (lambda p, x: natural_residual(p, x, 0.1), 1, 1),
    "tseng_map": (lambda p, x: tseng_map(p, x, 0.1), 2, 1),
    "step-tseng": (lambda p, x: step(p, x, 0.1, "tseng"), 2, 1),
    "step-gradient_projection": (lambda p, x: step(p, x, 0.1, "gradient_projection"), 1, 1),
    "step-extragradient": (lambda p, x: step(p, x, 0.1, "extragradient"), 2, 2),
}
ONE_SHOT_CALLS = [
    (name, oracle, nth)
    for name, (_, n_operator, n_projection) in ONE_SHOT.items()
    for oracle, count in (("operator", n_operator), ("projection", n_projection))
    for nth in range(1, count + 1)
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name,oracle,nth", ONE_SHOT_CALLS,
                         ids=[f"{e}-{o}{n}" for e, o, n in ONE_SHOT_CALLS])
def test_one_shot_entry_points_reject_non_finite_oracle_output(name, oracle, nth, value):
    problem, received = poisoned_problem(oracle, nth, value, dim=3, entry=1)
    with pytest.raises(NumericFailure):
        ONE_SHOT[name][0](problem, np.array([2.0, 2.5, 3.0]))
    assert_finite_arguments(received)


@pytest.mark.parametrize("name", list(ONE_SHOT))
def test_one_shot_entry_points_build_a_moving_set_once(name):
    # every projection at x goes through one projector, so one shift call
    call, _, n_projection = ONE_SHOT[name]
    problem, counts = counting_moving_box()
    call(problem, np.array([0.5, -2.0, 3.0, 0.0]))
    assert counts == {"shift": min(n_projection, 1), "base": n_projection}


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
