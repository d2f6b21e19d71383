import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import (
    SolverConfig,
    ValidationError,
    evaluate_operator,
    natural_residual,
    project,
    solve,
)
from qvisolve.problems import (
    AffineMap,
    BallSet,
    BoxSet,
    MovingSetSpec,
    OperatorSpec,
    load_problem,
    make_affine_qvi,
    make_l2_example,
    make_moving_box_problem,
    make_moving_set_problem,
    moving_set_project,
)

coord = st.floats(min_value=-50.0, max_value=50.0)
vec3 = st.lists(coord, min_size=3, max_size=3).map(np.array)


# ------------------------------------------------------------------ l2 family

def test_l2_declared_constants():
    p = make_l2_example(10, 2.0)
    assert p.operator.lipschitz_L == 3.0
    assert p.operator.strong_rho == 1.0
    assert p.constraint.lip_l == 0.1
    assert np.all(p.known_solution == 0.0)


def test_l2_projection_branch_values():
    p = make_l2_example(2, 2.0)
    x = np.array([1.0, 0.0])
    assert np.array_equal(project(p, x, np.array([0.05, 0.3])), np.array([0.1, 0.0]))
    assert np.array_equal(project(p, x, np.array([0.2, 0.4])), np.array([0.2, 0.0]))
    member = np.array([0.7, 0.0])
    assert np.array_equal(project(p, x, member), member)


def test_l2_rejects_alpha_at_most_one():
    with pytest.raises(ValidationError):
        make_l2_example(5, 1.0)
    with pytest.raises(ValidationError):
        make_l2_example(5, 0.5)


def test_l2_solution_residual_zero():
    p = make_l2_example(50, 2.0)
    assert natural_residual(p, p.known_solution, 0.1) == 0.0


def test_l2_parametric_projection_bound():
    # ||P_{K(x)}(z) - P_{K(y)}(z)|| <= (1/10) ||x - y||
    p = make_l2_example(20, 2.0)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.normal(size=20) * 3.0
        y = rng.normal(size=20) * 3.0
        z = rng.normal(size=20) * 3.0
        gap = np.linalg.norm(project(p, x, z) - project(p, y, z))
        assert gap <= 0.1 * np.linalg.norm(x - y) + 1e-12


# ------------------------------------------------------------------ box / ball

@given(vec3, vec3)
def test_box_projection_idempotent_and_nonexpansive(u, v):
    box = BoxSet.from_bounds(3, -1.5, 2.0)
    pu, pv = box.project(u), box.project(v)
    assert np.array_equal(box.project(pu), pu)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


@given(vec3, vec3)
def test_ball_projection_idempotent_and_nonexpansive(u, v):
    ball = BallSet(np.array([0.5, -1.0, 0.0]), 2.0)
    pu, pv = ball.project(u), ball.project(v)
    assert np.allclose(ball.project(pu), pu, atol=1e-12)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_box_validation():
    with pytest.raises(ValidationError):
        BoxSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValidationError):
        BallSet(np.array([0.0]), 0.0)


# ----------------------------------------------------------------- moving sets

def test_moving_set_projection_hand_value():
    # 1-D: K = [-1, 1], shift == 2, z = 4 -> 2 + P_K(2) = 3
    spec = MovingSetSpec(
        shift=lambda x: np.array([2.0]),
        shift_lipschitz=0.0,
        base_projection=BoxSet.from_bounds(1, -1.0, 1.0).project,
    )
    assert moving_set_project(spec, np.array([0.3]), np.array([4.0]))[0] == 3.0


def test_moving_set_member_point_fixed():
    spec = MovingSetSpec(
        shift=AffineMap(0.5 * np.eye(2), np.zeros(2)),
        shift_lipschitz=0.5,
        base_projection=BoxSet.from_bounds(2, -1.0, 1.0).project,
    )
    x = np.array([0.2, -0.4])
    z = x * 0.5 + np.array([0.3, 0.3])  # inside shift(x) + K
    assert np.allclose(moving_set_project(spec, x, z), z, atol=1e-15)


def test_moving_set_zero_shift_reduces_to_base():
    base = BallSet(np.zeros(2), 1.0)
    spec = MovingSetSpec(shift=lambda x: np.zeros(2), shift_lipschitz=0.0,
                         base_projection=base.project)
    z = np.array([3.0, 4.0])
    assert np.allclose(moving_set_project(spec, np.zeros(2), z), base.project(z),
                       atol=1e-15)


def test_moving_set_rejects_scalar_oracle_output():
    # a scalar would broadcast into a result of the right shape
    box = BoxSet.from_bounds(2, -1.0, 1.0).project
    for shift, base in ((lambda x: 0.5, box), (lambda x: np.zeros(3), box),
                        (lambda x: np.zeros(2), lambda z: 0.5)):
        spec = MovingSetSpec(shift=shift, shift_lipschitz=0.0, base_projection=base)
        with pytest.raises(ValidationError, match="shape"):
            moving_set_project(spec, np.zeros(2), np.ones(2))


@given(vec3, vec3, vec3)
def test_translation_identity_box(x, z, m):
    # shift + P_K(z - shift) equals the direct projection onto the shifted box
    spec = MovingSetSpec(
        shift=lambda _x, m=m: m,
        shift_lipschitz=0.0,
        base_projection=BoxSet.from_bounds(3, -1.0, 1.0).project,
    )
    via_identity = moving_set_project(spec, x, z)
    direct = np.clip(z, -1.0 + m, 1.0 + m)
    assert np.allclose(via_identity, direct, atol=1e-12)


@given(vec3, vec3, vec3)
def test_translation_identity_ball(x, z, m):
    spec = MovingSetSpec(
        shift=lambda _x, m=m: m,
        shift_lipschitz=0.0,
        base_projection=BallSet(np.zeros(3), 1.0).project,
    )
    via_identity = moving_set_project(spec, x, z)
    w = z - m
    nw = np.linalg.norm(w)
    direct = z if nw <= 1.0 else m + w / nw
    assert np.allclose(via_identity, direct, atol=1e-12)


def test_constant_shift_gives_plain_vi():
    op = OperatorSpec(AffineMap(np.eye(2), np.zeros(2)), 1.0, 1.0)
    spec = MovingSetSpec(shift=lambda x: np.array([1.0, 1.0]), shift_lipschitz=0.0,
                         base_projection=BoxSet.from_bounds(2, -1.0, 1.0).project)
    p = make_moving_set_problem(2, op, spec)
    assert p.constraint.lip_l == 0.0
    assert p.known_solution is None


def test_moving_box_demo_problem():
    p = make_moving_box_problem(4, 0.1)
    assert p.constraint.lip_l == pytest.approx(0.2)
    assert natural_residual(p, np.zeros(4), 0.1) == 0.0


def test_moving_box_sampled_parametric_constant():
    p = make_moving_box_problem(4, 0.1)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=4) * 2.0
        y = rng.normal(size=4) * 2.0
        z = rng.normal(size=4) * 2.0
        gap = np.linalg.norm(project(p, x, z) - project(p, y, z))
        worst = max(worst, gap / max(np.linalg.norm(x - y), 1e-300))
        assert gap <= 0.2 * np.linalg.norm(x - y) + 1e-9
    assert worst <= 0.2 + 1e-9


# ---------------------------------------------------------------- affine family

def test_affine_degenerate_spread_is_scaled_identity():
    # L == rho forces A = rho * I, making both constants tight
    p = make_affine_qvi(3, seed=5, rho_target=2.0, L_target=2.0, beta=0.0)
    assert np.allclose(p.operator.func.matrix, 2.0 * np.eye(3), atol=1e-12)


def test_affine_eigenvalue_oracle():
    # declared constants validated against dense eigenvalue/SVD computations
    for n, seed in ((2, 7), (6, 7), (4, 11)):
        p = make_affine_qvi(n, seed=seed, rho_target=1.0, L_target=3.0, beta=0.1)
        a = p.operator.func.matrix
        sym = 0.5 * (a + a.T)
        assert np.linalg.eigvalsh(sym)[0] >= 1.0 - 1e-10
        assert np.linalg.svd(a, compute_uv=False)[0] <= 3.0 + 1e-10


def test_affine_known_solution_is_exact():
    p = make_affine_qvi(6, seed=7, rho_target=1.0, L_target=3.0, beta=0.1)
    assert natural_residual(p, p.known_solution, 0.1) <= 1e-12
    F = evaluate_operator(p, p.known_solution)
    assert np.linalg.norm(F) <= 1e-12


def test_affine_plain_vi_converges():
    p = make_affine_qvi(4, seed=11, rho_target=0.5, L_target=2.0, beta=0.0)
    lam = 0.5 / 4.0  # rho / L^2
    trace = solve(p, np.ones(4), SolverConfig(lam=lam, max_iter=10_000, tol=1e-8))
    assert trace.status == "converged"
    assert trace.final.residual <= 1e-8


def test_affine_deterministic_in_seed():
    a = make_affine_qvi(5, seed=3, rho_target=1.0, L_target=2.0, beta=0.2)
    b = make_affine_qvi(5, seed=3, rho_target=1.0, L_target=2.0, beta=0.2)
    assert np.array_equal(a.operator.func.matrix, b.operator.func.matrix)
    assert np.array_equal(a.operator.func.offset, b.operator.func.offset)
    assert np.array_equal(a.known_solution, b.known_solution)


def test_affine_validation():
    with pytest.raises(ValidationError):
        make_affine_qvi(4, seed=0, rho_target=2.0, L_target=1.0, beta=0.0)
    with pytest.raises(ValidationError):
        make_affine_qvi(4, seed=0, rho_target=1.0, L_target=2.0, beta=-0.5)


# ------------------------------------------------- sampled declared constants

def test_declared_operator_constants_hold(problem_suite):
    rng = np.random.default_rng(13)
    for problem in problem_suite:
        L = problem.operator.lipschitz_L
        rho = problem.operator.strong_rho
        for _ in range(10_000):
            x = rng.normal(size=problem.dim) * 2.0
            y = rng.normal(size=problem.dim) * 2.0
            dx = x - y
            dF = evaluate_operator(problem, x) - evaluate_operator(problem, y)
            nx = np.linalg.norm(dx)
            assert np.linalg.norm(dF) <= L * nx * (1.0 + 1e-10), problem.name
            assert float(np.dot(dx, dF)) >= rho * nx * nx * (1.0 - 1e-10) - 1e-12, problem.name


def test_constraint_idempotent_and_nonexpansive(problem_suite):
    rng = np.random.default_rng(14)
    for problem in problem_suite:
        for _ in range(200):
            x = rng.normal(size=problem.dim)
            u = rng.normal(size=problem.dim) * 2.0
            v = rng.normal(size=problem.dim) * 2.0
            pu = project(problem, x, u)
            pv = project(problem, x, v)
            assert np.allclose(project(problem, x, pu), pu, atol=1e-12), problem.name
            assert (np.linalg.norm(pu - pv)
                    <= np.linalg.norm(u - v) * (1.0 + 1e-12) + 1e-12), problem.name


def test_constraint_parametric_bound_holds(problem_suite):
    rng = np.random.default_rng(15)
    for problem in problem_suite:
        l = problem.constraint.lip_l
        for _ in range(1000):
            x = rng.normal(size=problem.dim) * 2.0
            y = rng.normal(size=problem.dim) * 2.0
            z = rng.normal(size=problem.dim) * 2.0
            gap = np.linalg.norm(project(problem, x, z) - project(problem, y, z))
            assert gap <= l * np.linalg.norm(x - y) + 1e-9, problem.name


# ------------------------------------------------------------ JSON descriptors

def test_load_l2_descriptor():
    p = load_problem({"family": "l2_example", "n": 10, "alpha": 2.0})
    assert p.dim == 10
    assert p.operator.lipschitz_L == 3.0


def test_load_affine_descriptor():
    p = load_problem({"family": "affine", "n": 4, "seed": 11, "rho": 0.5,
                      "L": 2.0, "beta": 0.0})
    q = make_affine_qvi(4, seed=11, rho_target=0.5, L_target=2.0, beta=0.0)
    assert np.array_equal(p.operator.func.matrix, q.operator.func.matrix)


def test_load_moving_set_descriptor():
    p = load_problem({
        "family": "moving_set", "n": 4,
        "base_set": {"type": "box", "lo": -1.0, "hi": 1.0},
        "shift_scale": 0.1,
        "operator": "identity",
        "known_solution": [0.0, 0.0, 0.0, 0.0],
    })
    assert p.constraint.lip_l == pytest.approx(0.2)
    assert natural_residual(p, np.zeros(4), 0.1) == 0.0


def test_load_moving_set_descriptor_with_constant_shift():
    # shift_offset alone gives a constant shift: a plain VI on the moved set
    p = load_problem({
        "family": "moving_set", "n": 1,
        "base_set": {"type": "box", "lo": -1.0, "hi": 1.0},
        "shift_offset": 2.0,
        "operator": "identity",
    })
    assert p.constraint.lip_l == 0.0
    assert project(p, np.array([0.0]), np.array([4.0]))[0] == 3.0


def test_load_single_set_descriptor():
    p = load_problem({
        "family": "single_set_vi", "n": 1,
        "set": {"type": "box", "lo": 1.0, "hi": None},
        "operator": "identity",
        "known_solution": [1.0],
    })
    assert natural_residual(p, [1.0], 0.1) == 0.0
    assert natural_residual(p, [2.0], 0.1) == pytest.approx(0.2, rel=1e-12)


def test_load_descriptor_from_path(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"family": "l2_example", "n": 5, "alpha": 2.0}))
    p = load_problem(str(path))
    assert p.dim == 5


def test_load_descriptor_computes_affine_constants():
    p = load_problem({
        "family": "single_set_vi", "n": 2,
        "set": {"type": "ball", "center": 0.0, "radius": 2.0},
        "operator": {"matrix": [[2.0, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]},
    })
    assert p.operator.lipschitz_L == pytest.approx(2.0)
    assert p.operator.strong_rho == pytest.approx(1.0)


def test_load_descriptor_errors(tmp_path):
    with pytest.raises(ValidationError):
        load_problem({"family": "unknown", "n": 3})
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_problem(str(broken))
    with pytest.raises(ValidationError):
        load_problem({"family": "l2_example"})
    with pytest.raises(ValidationError):
        load_problem("/nonexistent/problem.json")
    with pytest.raises(ValidationError):
        load_problem({"family": "single_set_vi", "n": 2,
                      "set": {"type": "box", "lo": -1.0, "hi": 1.0},
                      "operator": {"matrix": [[0.0, -1.0], [1.0, 0.0]]}})  # not monotone
