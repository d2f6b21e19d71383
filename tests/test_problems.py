import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import (
    ConstraintSpec,
    NumericFailure,
    QviProblem,
    SolverConfig,
    ValidationError,
    evaluate_operator,
    natural_residual,
    project,
    solve,
)
from qvisolve import problems
from qvisolve.problems import (
    CONSTANT_SLACK,
    AffineMap,
    BallSet,
    BoxSet,
    OperatorSpec,
    load_problem,
    make_affine_qvi,
    make_l2_example,
    make_moving_box_problem,
    moving_set,
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


def test_ball_projection_of_a_far_point():
    # ||z - center|| beyond about 1.34e154 overflows <w, w> to inf; the
    # projection is still on the sphere along w, not the centre
    ball = BallSet(np.zeros(2), 1.0)
    with np.errstate(over="ignore"):
        assert np.array_equal(ball.project([1e155, 0.0]), [1.0, 0.0])
        assert np.array_equal(ball.project([0.0, -1e308]), [0.0, -1.0])
    problem = load_problem({"family": "single_set_vi", "n": 2, "operator": "identity",
                            "set": {"type": "ball", "center": [1.0, 0.0], "radius": 2.0}})
    assert np.array_equal(project(problem, [0.0, 0.0], [1e155, 0.0]), [3.0, 0.0])


def test_box_validation():
    with pytest.raises(ValidationError):
        BoxSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValidationError, match="equal length"):
        BoxSet(np.zeros(2), np.ones(3))
    with pytest.raises(ValidationError):
        BallSet(np.array([0.0]), 0.0)
    for center in ([[0.0]], [np.nan], ["a"]):
        with pytest.raises(ValidationError, match="^ball center: "):
            BallSet(center, 1.0)


def test_affine_map_validation():
    with pytest.raises(ValidationError, match="square"):
        AffineMap(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValidationError, match="offset length"):
        AffineMap(np.eye(2), np.zeros(3))


# ----------------------------------------------------------------- moving sets

def test_moving_set_projection_hand_value():
    # 1-D: K = [-1, 1], shift == 2, z = 4 -> 2 + P_K(2) = 3
    constraint = moving_set(
        shift=lambda x: np.array([2.0]),
        shift_lipschitz=0.0,
        base_projection=BoxSet.from_bounds(1, -1.0, 1.0).project,
    )
    assert constraint.project(np.array([0.3]), np.array([4.0]))[0] == 3.0


def test_moving_set_member_point_fixed():
    constraint = moving_set(
        shift=AffineMap(0.5 * np.eye(2), np.zeros(2)),
        shift_lipschitz=0.5,
        base_projection=BoxSet.from_bounds(2, -1.0, 1.0).project,
    )
    x = np.array([0.2, -0.4])
    z = x * 0.5 + np.array([0.3, 0.3])  # inside shift(x) + K
    assert np.allclose(constraint.project(x, z), z, atol=1e-15)


def test_moving_set_zero_shift_reduces_to_base():
    base = BallSet(np.zeros(2), 1.0)
    constraint = moving_set(shift=lambda x: np.zeros(2), shift_lipschitz=0.0,
                            base_projection=base.project)
    z = np.array([3.0, 4.0])
    assert np.allclose(constraint.project(np.zeros(2), z), base.project(z), atol=1e-15)


def test_moving_set_rejects_negative_shift_constant():
    with pytest.raises(ValidationError, match="^shift_lipschitz must be nonnegative"):
        moving_set(shift=lambda x: x, shift_lipschitz=-0.1, base_projection=lambda z: z)


def test_moving_set_rejects_scalar_oracle_output():
    # a scalar would broadcast into a result of the right shape
    box = BoxSet.from_bounds(2, -1.0, 1.0).project
    for shift, base in ((lambda x: 0.5, box), (lambda x: np.zeros(3), box),
                        (lambda x: np.zeros(2), lambda z: 0.5)):
        constraint = moving_set(shift=shift, shift_lipschitz=0.0, base_projection=base)
        with pytest.raises(ValidationError, match="shape"):
            constraint.project(np.zeros(2), np.ones(2))


@given(vec3, vec3, vec3)
def test_translation_identity_box(x, z, m):
    # shift + P_K(z - shift) equals the direct projection onto the shifted box
    constraint = moving_set(
        shift=lambda _x, m=m: m,
        shift_lipschitz=0.0,
        base_projection=BoxSet.from_bounds(3, -1.0, 1.0).project,
    )
    via_identity = constraint.project(x, z)
    direct = np.clip(z, -1.0 + m, 1.0 + m)
    assert np.allclose(via_identity, direct, atol=1e-12)


@given(vec3, vec3, vec3)
def test_translation_identity_ball(x, z, m):
    constraint = moving_set(
        shift=lambda _x, m=m: m,
        shift_lipschitz=0.0,
        base_projection=BallSet(np.zeros(3), 1.0).project,
    )
    via_identity = constraint.project(x, z)
    w = z - m
    nw = np.linalg.norm(w)
    direct = z if nw <= 1.0 else m + w / nw
    assert np.allclose(via_identity, direct, atol=1e-12)


def test_constant_shift_gives_plain_vi():
    op = OperatorSpec(AffineMap(np.eye(2), np.zeros(2)), 1.0, 1.0)
    constraint = moving_set(shift=lambda x: np.array([1.0, 1.0]), shift_lipschitz=0.0,
                            base_projection=BoxSet.from_bounds(2, -1.0, 1.0).project)
    p = QviProblem(op, constraint, 2)
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


# (n, seed, rho, L, beta) -> sha256 over the bytes of the operator's matrix and
# offset, the shift matrix and known_solution, in that order, recorded before
# make_affine_qvi dropped its n x n temporaries as soon as it had used them.
# With more BLAS threads the n = 300 QR rounds differently, so the builds run
# in a child process with one BLAS thread, as the benchmark pins it.
AFFINE_DIGESTS = {
    (1, 0, 1.0, 2.0, 0.0): "246521482c9ad6664dd93d2906df42632ea92e305533725313c3272eb15f2711",
    (2, 1, 1e-300, 1e300, 0.45): "65740e07d22afdb3a71492d3dc6e3ced505ba406cdf4e88fdb689a2c5a342fcf",
    # L == rho: (L - rho)*S holds -0.0 off the diagonal, which adding rho*I makes +0.0
    (3, 5, 2.0, 2.0, 0.0): "2a2f734a7cbbd74635e5ef209574d0d9d13c1eaab126c7e3bbe6faab6bda52d4",
    (4, 11, 0.5, 2.0, 0.0): "eff9eed4976742d41c97ed11d2bc3af6cf422298da491abd55ac6475c7b979e8",
    (5, 3, 1.0, 2.0, 0.2): "ba41874bc3dff6c01f79ca5c6c3100378f9bcf0d011c19d711a90c640731dc12",
    (6, 7, 1.0, 3.0, 0.1): "e0c3781cbfdae220ab6e8a477d620a1100e26e7c1feca0b10a9231ebd039f887",
    (7, 2, 0.5, 2.0, 0.2): "c65aaa15ebb87df9a76e366f06d9aa42a8153a9322f1efacf8aaf7fa192ed82f",
    (50, 4, 2.0, 2.0, 0.1): "0f24f836aafbc574163c2a488f43548d5ddd89b38f640c635a14456f53c370fc",
    (300, 7, 1.0, 3.0, 0.1): "c213482769dcef6ed176305777d32058104f2cfc8fb9865411d3b58877f4d9d3",
}
_AFFINE_DIGEST_CHILD = """
import hashlib, inspect, json, sys
from qvisolve.problems import make_affine_qvi
digests = []
for case in json.loads(sys.argv[1]):
    p = make_affine_qvi(*case)
    shift = inspect.getclosurevars(p.constraint.at).nonlocals["shift"]
    h = hashlib.sha256()
    for a in (p.operator.func.matrix, p.operator.func.offset, shift.matrix, p.known_solution):
        h.update(a.tobytes())
    digests.append(h.hexdigest())
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def affine_digests():
    cases = list(AFFINE_DIGESTS)
    path = [str(Path(problems.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    child = subprocess.run([sys.executable, "-c", _AFFINE_DIGEST_CHILD, json.dumps(cases)],
                           env=env, capture_output=True, text=True, check=True)
    return dict(zip(cases, json.loads(child.stdout)))


@pytest.mark.parametrize("case", list(AFFINE_DIGESTS),
                         ids=[f"n={c[0]}-seed={c[1]}" for c in AFFINE_DIGESTS])
def test_affine_build_keeps_its_bytes(affine_digests, case):
    assert affine_digests[case] == AFFINE_DIGESTS[case]


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_builders_reject_bad_n(n):
    with pytest.raises(ValidationError, match="n must be"):
        make_l2_example(n)
    with pytest.raises(ValidationError, match="n must be"):
        make_affine_qvi(n, seed=0, rho_target=1.0, L_target=2.0, beta=0.0)
    with pytest.raises(ValidationError, match="n must be"):
        make_moving_box_problem(n)


def test_affine_validation():
    with pytest.raises(ValidationError):
        make_affine_qvi(4, seed=0, rho_target=2.0, L_target=1.0, beta=0.0)
    with pytest.raises(ValidationError):
        make_affine_qvi(4, seed=0, rho_target=1.0, L_target=2.0, beta=-0.5)
    for seed in (-1, True, 1.0):
        with pytest.raises(ValidationError, match="seed"):
            make_affine_qvi(4, seed=seed, rho_target=1.0, L_target=2.0, beta=0.0)


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


@pytest.mark.parametrize("name,bound,sign", [("L", 3.0, -1.0), ("rho", 2.0, 1.0)])
def test_declared_constants_rounding_slack(name, bound, sign):
    # diag(3, 2) has norm 3, the bound on L, and 2 is the smallest eigenvalue
    # of its symmetric part, the bound on rho; the slack is CONSTANT_SLACK * 3
    def load(value):
        return load_problem({"family": "single_set_vi", "n": 2, "set": {"type": "box"},
                             "operator": {"matrix": [[3.0, 0.0], [0.0, 2.0]], name: value}})

    inside = bound + sign * 0.5 * CONSTANT_SLACK * 3.0
    op = load(inside).operator
    assert {"L": op.lipschitz_L, "rho": op.strong_rho}[name] == inside
    with pytest.raises(ValidationError, match=f"operator.{name} "):
        load(bound + sign * 2.0 * CONSTANT_SLACK * 3.0)


@pytest.mark.parametrize("operator,message", [
    ({"L": 0.5}, "operator.L = 0.5 is below the identity's norm 1.0"),
    ({"rho": 2.0}, "operator.rho = 2.0 exceeds the smallest eigenvalue of the identity's "
                   "symmetric part, 1.0"),
    ({"matrix": [[1.0, 0.0], [0.0, 1.0]], "L": 0.5},
     "operator.L = 0.5 is below the matrix's norm 1.0"),
    ({"matrix": [[1.0, 0.0], [0.0, 1.0]], "rho": 2.0},
     "operator.rho = 2.0 exceeds the smallest eigenvalue of the matrix's symmetric part, 1.0"),
])
def test_declared_constant_errors_name_the_operator(operator, message):
    # without a matrix the operator is the identity, and the message says so
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_problem({"family": "single_set_vi", "n": 2, "set": {"type": "box"},
                      "operator": operator})


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
    for text, kind in (("[1]", "list"), ('"solve"', "str"), ("5", "int"), ("null", "NoneType")):
        holder = tmp_path / "holder.json"
        holder.write_text(text)
        with pytest.raises(ValidationError, match=f"^problem: expected a JSON object, got {kind}"):
            load_problem(holder)
    with pytest.raises(ValidationError):
        load_problem({"family": "single_set_vi", "n": 2,
                      "set": {"type": "box", "lo": -1.0, "hi": 1.0},
                      "operator": {"matrix": [[0.0, -1.0], [1.0, 0.0]]}})  # not monotone


BOX2 = {"family": "single_set_vi", "n": 2, "set": {"type": "box"}}
# a key that its object does not take, at each level -> the path its error
# names; each was once ignored ("shfit_scale" gave a fixed set, lip_l = 0,
# and "low" an unbounded box)
UNKNOWN_FIELDS = {
    "l2_example": ({"family": "l2_example", "n": 2, "alpa": 3.0}, "alpa"),
    "affine": ({"family": "affine", "n": 2, "known_solution": [0.0, 0.0]}, "known_solution"),
    "moving_set": ({"family": "moving_set", "n": 2, "base_set": {"type": "box"},
                    "shfit_scale": 0.1}, "shfit_scale"),
    "single_set_vi": ({**BOX2, "shift_scale": 0.1}, "shift_scale"),
    "box": ({"family": "moving_set", "n": 2, "base_set": {"type": "box", "low": 0.5}},
            "base_set.low"),
    "ball": ({**BOX2, "set": {"type": "ball", "radius": 2.0, "hi": 1.0}}, "set.hi"),
    "operator": ({**BOX2, "operator": {"matrix": [[2.0, 0.0], [0.0, 2.0]], "Lipschitz": 2.0}},
                 "operator.Lipschitz"),
    "operator-offset-only": ({**BOX2, "operator": {"offset": [0.0, 0.0], "rh0": 0.5}},
                             "operator.rh0"),
}


@pytest.mark.parametrize("case", list(UNKNOWN_FIELDS))
def test_descriptor_rejects_unknown_fields(case):
    descriptor, path = UNKNOWN_FIELDS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: unknown field, expected "):
        load_problem(descriptor)


@pytest.mark.parametrize("value,message", [
    (None, "set.type must be 'box' or 'ball', got None"),
    ([], "set must be an object, got []"),
    (0, "set must be an object, got 0"),
    ("", "set must be an object, got ''"),
    (False, "set must be an object, got False"),
])
def test_descriptor_set_must_be_an_object(value, message):
    # only an absent or null set counts as missing
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_problem({**BOX2, "set": value})
    if value is None:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_problem({"family": "single_set_vi", "n": 2})


@pytest.mark.parametrize("descriptor,admitted", [
    ({"family": "l2_example", "n": 8}, True),  # n-vectors
    ({"family": "l2_example", "n": 9}, False),
    ({"family": "single_set_vi", "n": 2, "set": {"type": "box"}}, True),  # n x n matrices
    ({"family": "single_set_vi", "n": 3, "set": {"type": "box"}}, False),
    ({"family": "affine", "n": 3}, False),
    ({"family": "moving_set", "n": 3, "base_set": {"type": "box"}}, False),
])
def test_descriptor_size_cap(monkeypatch, descriptor, admitted):
    monkeypatch.setattr(problems, "MAX_DESCRIPTOR_ENTRIES", 8)
    if admitted:
        assert load_problem(descriptor).dim == descriptor["n"]
        return
    for builder in ("make_l2_example", "make_affine_qvi", "moving_set", "_scaled", "AffineMap",
                    "QviProblem"):
        monkeypatch.setattr(problems, builder, None)  # rejected before anything is built
    n = descriptor["n"]
    with pytest.raises(ValidationError, match=f"^n = {n} gives arrays of .* the limit of 8$"):
        load_problem(descriptor)


# ------------------------------------------------------- generated descriptors

# JSON values of every kind: scalars (numbers at the float range's ends and
# beyond it too), strings, and lists and objects nested in each other
_numbers = st.one_of(st.floats(-3.0, 3.0), st.integers(-2, 4),
                     st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 10 ** 400]))
_junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), _numbers,
              st.sampled_from(["", "identity", "box", "ball", "1.0"]), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=5)
_vectors = st.lists(_numbers, min_size=1, max_size=3)


def _either(plausible):
    """A value that suits the field or, one time in eight, any JSON value."""
    return st.integers(0, 7).flatmap(lambda i: _junk if i == 0 else plausible)


def _object(required, optional):
    """An object with the required keys, some of the optional ones and, one
    time in eight, an unknown key."""
    return st.tuples(st.fixed_dictionaries(required, optional=optional),
                     st.integers(0, 7), _junk).map(
        lambda t: {**t[0], "unknown": t[2]} if t[1] == 0 else t[0])


_sets = st.one_of(
    _object({"type": _either(st.just("box"))},
            {"lo": _either(_numbers | _vectors), "hi": _either(_numbers | _vectors)}),
    _object({"type": _either(st.just("ball"))},
            {"center": _either(_numbers | _vectors), "radius": _either(_numbers)}))
_operators = _either(st.just("identity") | _object({}, {
    "matrix": _either(st.lists(st.lists(_numbers, min_size=1, max_size=3),
                               min_size=1, max_size=3)),
    "offset": _either(_numbers | _vectors), "L": _either(_numbers), "rho": _either(_numbers)}))
_FIELDS = {
    "alpha": _either(_numbers), "seed": _either(st.integers(-1, 3)),
    "rho": _either(_numbers), "L": _either(_numbers), "beta": _either(_numbers),
    "operator": _operators, "shift_scale": _either(_numbers),
    "shift_offset": _either(_numbers | _vectors), "known_solution": _either(_vectors),
}
# every family with its own fields, its set always and the others at times
# (the size cap is patched to 16 entries, so n = 5 passes only for l2_example)
_descriptors = st.one_of(*[
    _object({"family": _either(st.just(family)), "n": _either(st.integers(1, 5)),
             **{key: _either(_sets) for key in ("set", "base_set") if key in keys}},
            {key: _FIELDS[key] for key in keys if key in _FIELDS})
    for family, keys in problems._FAMILY_FIELDS.items()
])
# the builders' parameter names, which a descriptor does not have
_BUILDER_NAMES = re.compile("lip_l|rho_target|L_target|ball radius|box lo")


@given(_descriptors)
def test_descriptor_loads_and_solves_or_raises_naming_its_field(doc):
    # whatever the descriptor, load_problem and a short solve give a result,
    # a ValidationError or a NumericFailure: no other exception and no
    # RuntimeWarning, and an error names the descriptor's own keys. (The
    # function-scoped monkeypatch fixture would fail hypothesis's health check.)
    with mock.patch.object(problems, "MAX_DESCRIPTOR_ENTRIES", 16), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            problem = load_problem(doc)
            solve(problem, np.zeros(problem.dim), SolverConfig(lam=0.1, max_iter=5))
        except (ValidationError, NumericFailure) as exc:
            assert not _BUILDER_NAMES.search(str(exc)), str(exc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# Descriptor problems whose oracles are elementwise: the moving_set shift
# shift_scale*x + shift_offset, and the identity operator (absent,
# "identity", or an object without a matrix, with or without an offset).
# EDGE_DIGEST is the sha256 over each descriptor's declared L, rho and l and
# over the operator and projection output bytes at seeded points holding
# +-0.0, +-1e-300 and +-1e150, recorded while both maps were n x n matrix
# products, (scale*I) @ x + offset, so it pins every zero sign and overflow.
_EDGE_OPERATORS = [None, "identity", {"L": 2.0}, {"offset": [-0.0, 0.5, -0.0]},
                   {"offset": [0.25, -0.0, -1.0], "rho": 0.5}]
_EDGE_SETS = [{"type": "box", "lo": [-1.0, -0.0, 0.0], "hi": [1.0, 0.0, np.inf]},
              {"type": "ball", "center": [0.0, -0.0, 0.5], "radius": 1.5}]
EDGE_DESCRIPTORS = [
    {"family": "moving_set", "n": 3, "base_set": base, "shift_scale": scale,
     **({} if offset is None else {"shift_offset": offset}),
     **({} if operator is None else {"operator": operator})}
    for scale in (0.1, -0.1, 0.0, -0.0, -2.5, 1e300)
    for offset in (None, -0.0, [-0.0, 0.5, -1e-300])
    for operator in _EDGE_OPERATORS
    for base in _EDGE_SETS
] + [
    {"family": "single_set_vi", "n": 3, "set": base,
     **({} if operator is None else {"operator": operator})}
    for operator in _EDGE_OPERATORS
    for base in _EDGE_SETS
]
EDGE_DIGEST = "1ee02098fb1f58ddb15b88cf2f84de9ac14c2b33471e40be3746fbbce3c03bac"


def test_elementwise_descriptor_oracles_keep_their_bytes():
    specials = np.array([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150])
    rng = np.random.default_rng(29)
    points = np.where(rng.random((16, 2, 3)) < 0.5, rng.choice(specials, (16, 2, 3)),
                      rng.standard_normal((16, 2, 3)))
    h = hashlib.sha256()
    with np.errstate(all="ignore"):  # 1e300 * 1e150 overflows; a ball then gives NaN
        for descriptor in EDGE_DESCRIPTORS:
            p = load_problem(descriptor)
            h.update(np.array([p.operator.lipschitz_L, p.operator.strong_rho,
                               p.constraint.lip_l]).tobytes())
            for x, z in points:
                h.update(p.operator.func(x).tobytes())
                h.update(p.constraint.project(x, z).tobytes())
                assert p.constraint.at(x)(z).tobytes() == p.constraint.project(x, z).tobytes()
    assert h.hexdigest() == EDGE_DIGEST


def test_projector_at_x_gives_the_bits_of_project(problem_suite):
    # at(x) is the projector onto K(x); a plain ConstraintSpec, which gives
    # no hook, gets project with x fixed
    box = BoxSet.from_bounds(3, -1.0, 1.0)
    plain = ConstraintSpec(lambda x, z: box.project(z - 0.1 * x), 0.0)
    rng = np.random.default_rng(31)
    for constraint, n in [(p.constraint, p.dim) for p in problem_suite] + [(plain, 3)]:
        for _ in range(10):
            x, *zs = 3.0 * rng.standard_normal((4, n))
            P = constraint.at(x)
            for z in zs:  # one projector serves every point at x
                assert P(z).tobytes() == constraint.project(x, z).tobytes()
