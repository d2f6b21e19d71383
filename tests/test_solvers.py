import io
import logging
import re
import warnings

import numpy as np
import pytest

from qvisolve import (
    ConstraintSpec,
    OperatorSpec,
    QviProblem,
    SolverConfig,
    ValidationError,
    evaluate_operator,
    solve,
    step,
)
from qvisolve.certify import ProblemConstants, full_certificate
from qvisolve.problems import (
    AffineMap,
    BallSet,
    BoxSet,
    make_moving_box_problem,
    moving_set,
)
from qvisolve.core import VARIANTS
from qvisolve.csvio import read_trace_csv, trace_to_csv

from oracles import (
    assert_finite_arguments,
    counting_problem,
    poisoned_problem,
    reference_single_set_fbf_step,
    replay_iterates,
)

# frozen pre-build oracle values for the sequence-space single step at
# x = (1, 0, ...), lambda = 0.1, alpha = 2
L2_STEP_Y0 = 0.7158529015192103
L2_STEP_XNEXT0 = 0.7912032998631426

# frozen pre-build oracle: half-line VI distances |x_k - 1| for five steps
HALFLINE_DISTS = (1.0, 0.82, 0.6562, 0.507142, 0.37149922, 0.2480642902)


# -------------------------------------------------------------------- steps

# variant -> (y, x_next) of one step from x = 2 on the half-line at lambda = 0.1
HALFLINE_STEP = {"tseng": (1.8, 1.82), "gradient_projection": (1.8, 1.8),
                 "extragradient": (1.8, 1.82)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_halfline(halfline, variant):
    y, x_next = step(halfline, [2.0], 0.1, variant)
    assert y[0] == pytest.approx(HALFLINE_STEP[variant][0], rel=1e-15)
    assert x_next[0] == pytest.approx(HALFLINE_STEP[variant][1], rel=1e-15)


@pytest.mark.parametrize("variant", ["unknown", ["tseng"], None, 0])
def test_unknown_variant_is_rejected_alike(halfline, variant):
    # SolverConfig and step share one check; an unhashable variant is not a TypeError
    message = re.escape("variant must be one of tseng/gradient_projection/extragradient, "
                        f"got {variant!r}")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SolverConfig(lam=0.1, variant=variant)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        step(halfline, [2.0], 0.1, variant)


def test_all_steps_fix_known_solutions(problem_suite):
    for problem in problem_suite:
        xstar = problem.known_solution
        for variant in VARIANTS:
            y, x_next = step(problem, xstar, 0.1, variant)
            assert np.linalg.norm(x_next - xstar) <= 1e-10, (problem.name, variant)
            assert np.linalg.norm(y - xstar) <= 1e-10, (problem.name, variant)


def test_l2_single_step_values(l2_problem):
    x = np.zeros(50)
    x[0] = 1.0
    y, x_next = step(l2_problem, x, 0.1)
    assert y[0] == pytest.approx(L2_STEP_Y0, rel=1e-13)
    assert np.all(y[1:] == 0.0)
    assert x_next[0] == pytest.approx(L2_STEP_XNEXT0, rel=1e-13)
    gp = step(l2_problem, x, 0.1, "gradient_projection")[1]
    assert gp[0] == pytest.approx(L2_STEP_Y0, rel=1e-13)
    eg = step(l2_problem, x, 0.1, "extragradient")[1]
    assert eg[0] == pytest.approx(L2_STEP_XNEXT0, rel=1e-13)


# variant -> (operator, projection) calls per step; a solve's last record
# adds one of each
CALLS_PER_STEP = {"tseng": (2, 1), "gradient_projection": (1, 1), "extragradient": (2, 2)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_work_accounting(l2_problem, variant):
    wrapped, counts = counting_problem(l2_problem)
    step(wrapped, np.ones(50), 0.1, variant)
    assert (counts["operator"], counts["projection"]) == CALLS_PER_STEP[variant]


def test_solve_reuses_residual_projection(l2_problem, geometric_x0):
    # a full tseng iteration inside solve() costs 1 projection + 2 operator
    # evaluations, residual included; the terminal record adds (1, 1)
    wrapped, counts = counting_problem(l2_problem)
    trace = solve(wrapped, geometric_x0, SolverConfig(lam=0.1, max_iter=20, tol=1e-30))
    steps = len(trace.records) - 1
    assert counts["projection"] == steps + 1
    assert counts["operator"] == 2 * steps + 1

    wrapped, counts = counting_problem(l2_problem)
    solve(wrapped, geometric_x0,
          SolverConfig(lam=0.1, max_iter=20, tol=1e-30, variant="gradient_projection"))
    assert counts["projection"] == 21
    assert counts["operator"] == 21

    wrapped, counts = counting_problem(l2_problem)
    solve(wrapped, geometric_x0,
          SolverConfig(lam=0.1, max_iter=20, tol=1e-30, variant="extragradient"))
    assert counts["projection"] == 2 * 20 + 1
    assert counts["operator"] == 2 * 20 + 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_moving_set_shift_is_evaluated_once_per_iterate(variant):
    # K(x) is built once per iterate: extragradient's second projection reuses
    # the shift of its first, so k steps make k + 1 shift calls for every variant
    k = 20
    x0 = np.full(4, 0.5)
    config = SolverConfig(lam=0.1, max_iter=k, tol=1e-30, variant=variant)
    n_operator, n_projection = CALLS_PER_STEP[variant]
    problem, counts = counting_problem(make_moving_box_problem())
    trace = solve(problem, x0, config)
    assert len(trace.records) == k + 1
    calls = {"operator": n_operator * k + 1, "projection": n_projection * k + 1}
    assert counts == {**calls, "shift": k + 1}
    # wrapping project(x, z) in a plain ConstraintSpec, as the benchmark's
    # traced accounting does, builds K(x) per projection and keeps the bits
    counts.update(operator=0, shift=0, projection=0)
    constraint = ConstraintSpec(problem.constraint.project, problem.constraint.lip_l)
    plain = QviProblem(problem.operator, constraint, problem.dim, problem.known_solution)
    plain_trace = solve(plain, x0, config)
    assert counts == {**calls, "shift": n_projection * k + 1}
    assert [r.residual for r in plain_trace.records] == [r.residual for r in trace.records]
    assert np.array_equal(plain_trace.final.x, trace.final.x)


@pytest.mark.parametrize("variant", VARIANTS)
def test_instrumented_solve_keeps_the_bytes(problem_suite, variant, tmp_path):
    # a pass-through hook (core.instrumented) writes the unwrapped solve's
    # trace CSV, and counts the variant's calls per step with K(x) built once
    config = SolverConfig(lam=0.1, max_iter=40, tol=1e-8, variant=variant)
    n_operator, n_projection = CALLS_PER_STEP[variant]
    for problem in problem_suite:
        x0 = problem.known_solution + 0.5
        wrapped, counts = counting_problem(problem)
        trace = solve(wrapped, x0, config)
        trace_to_csv(trace, tmp_path / "wrapped.csv")
        trace_to_csv(solve(problem, x0, config), tmp_path / "plain.csv")
        wrapped_bytes = (tmp_path / "wrapped.csv").read_bytes()
        assert wrapped_bytes == (tmp_path / "plain.csv").read_bytes(), problem.name
        K = len(trace.records) - 1
        assert K > 0, problem.name
        assert counts == {"operator": n_operator * K + 1, "shift": K + 1,
                          "projection": n_projection * K + 1}, problem.name


def test_scheme_equivalence_single_set(halfline):
    # on single-set problems `step` matches an independent reference
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = np.array([rng.uniform(-3.0, 5.0)])
        _, mine = step(halfline, x, 0.1)
        ref = reference_single_set_fbf_step(
            BoxSet.from_bounds(1, 1.0, None).project,
            lambda v: v, x, 0.1)
        assert np.allclose(mine, ref, atol=1e-12)

    ball = BallSet(np.zeros(3), 1.0)
    amap = AffineMap(np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]),
                     np.array([0.1, -0.2, 0.3]))
    problem = QviProblem(OperatorSpec(amap, lipschitz_L=2.5, strong_rho=1.0),
                         ConstraintSpec(lambda x, z: ball.project(z), 0.0), 3)
    for _ in range(100):
        x = rng.normal(size=3) * 2.0
        _, mine = step(problem, x, 0.2)
        ref = reference_single_set_fbf_step(ball.project, amap, x, 0.2)
        assert np.allclose(mine, ref, atol=1e-12)


# -------------------------------------------------------------------- solve

def test_solve_l2_converges(l2_problem, geometric_x0):
    trace = solve(l2_problem, geometric_x0, SolverConfig(lam=0.1, max_iter=300, tol=1e-10))
    assert trace.status == "converged"
    assert trace.final.k <= 300
    assert trace.final.residual <= 1e-10
    assert trace.certificate_warning  # the discrete condition fails at lam=0.1
    assert trace.empirical_rate is not None and trace.empirical_rate < 1.0
    dists = trace.dists()
    assert np.all(np.diff(dists[1:]) <= 1e-15)


def test_solve_from_solution_converges_immediately(problem_suite):
    for problem in problem_suite:
        trace = solve(problem, problem.known_solution, SolverConfig(lam=0.1))
        assert trace.status == "converged"
        assert trace.final.k == 0
        assert trace.empirical_rate is None


def test_solve_halfline_matches_scripted_iteration(halfline):
    trace = solve(halfline, [2.0], SolverConfig(lam=0.1, max_iter=100, tol=1e-12))
    assert trace.status == "converged"
    dists = trace.dists()
    for expected, got in zip(HALFLINE_DISTS, dists):
        assert got == pytest.approx(expected, rel=1e-12)
    # iterates contract by exactly 0.91 while x_k >= 10/9
    xs = [x[0] for x, _ in replay_iterates(halfline, [2.0], trace)]
    for a, b in zip(xs, xs[1:]):
        if a >= 10.0 / 9.0 + 1e-12:
            assert b == pytest.approx(0.91 * a, rel=1e-12)
    assert np.all(np.diff(dists) <= 1e-15)


def test_solve_records_per_step_inequality(problem_suite):
    # ||x_k - y_k - lam (F(x_k) - F(y_k))|| <= (1+theta)(1+lam L) ||x_k - x*||
    for problem in problem_suite:
        lam = 0.1
        th = full_certificate(ProblemConstants.of(problem, lam)).theta
        bound = (1.0 + th) * (1.0 + lam * problem.operator.lipschitz_L)
        for variant in ("tseng", "gradient_projection", "extragradient"):
            x0 = np.ones(problem.dim)
            trace = solve(problem, x0,
                          SolverConfig(lam=lam, max_iter=50, tol=1e-13, variant=variant))
            for k, (x, y) in enumerate(replay_iterates(problem, x0, trace)):
                Fx = evaluate_operator(problem, x)
                Fy = evaluate_operator(problem, y)
                lhs = np.linalg.norm(x - y - lam * (Fx - Fy))
                dist = np.linalg.norm(x - problem.known_solution)
                assert lhs <= bound * dist + 1e-9, (problem.name, variant, k)


def test_per_step_squared_estimate(l2_problem, halfline, geometric_x0):
    # dist_{k+1}^2 <= rate_r * dist_k^2 along traces (the per-step form of the
    # aggregated linear-rate display)
    for problem, x0 in ((l2_problem, geometric_x0), (halfline, np.array([2.0]))):
        cert = full_certificate(ProblemConstants.of(problem, 0.1))
        trace = solve(problem, x0, SolverConfig(lam=0.1, max_iter=80, tol=1e-13))
        dists = trace.dists()
        for a, b in zip(dists, dists[1:]):
            assert b * b <= cert.rate_r * a * a + 1e-12, problem.name


def test_solve_residuals_match_definition(l2_problem, geometric_x0):
    from qvisolve import natural_residual
    trace = solve(l2_problem, geometric_x0, SolverConfig(lam=0.1, max_iter=30, tol=1e-30))
    for rec, (x, _) in zip(trace.records, replay_iterates(l2_problem, geometric_x0, trace)):
        assert rec.residual == pytest.approx(
            natural_residual(l2_problem, x, 0.1), rel=1e-15, abs=1e-300)


def test_solve_deterministic(l2_problem, geometric_x0):
    config = SolverConfig(lam=0.1, max_iter=50, tol=1e-12)
    a = solve(l2_problem, geometric_x0, config)
    b = solve(l2_problem, geometric_x0, config)
    assert a.status == b.status and a.empirical_rate == b.empirical_rate
    assert len(a.records) == len(b.records)
    assert np.array_equal(a.final.x, b.final.x) and np.array_equal(a.final.y, b.final.y)
    for ra, rb in zip(a.records, b.records):
        assert ra.residual == rb.residual
        assert ra.dist_to_solution == rb.dist_to_solution


def test_solve_divergence_guard(halfline):
    trace = solve(halfline, [2.0], SolverConfig(lam=1e6, max_iter=100))
    assert trace.status == "numeric_failure"
    assert 0 < len(trace.records) <= 101
    # the final record is the last iterate within the limit, not the one beyond
    replay_iterates(halfline, [2.0], trace)


def test_solve_logs_a_divergence(halfline, caplog):
    caplog.set_level(logging.DEBUG, logger="qvisolve.solvers")
    trace = solve(halfline, [2.0], SolverConfig(lam=1e6, max_iter=100))
    assert trace.status == "numeric_failure"
    [record] = [r for r in caplog.records if r.getMessage().startswith("numeric failure")]
    assert record.levelno == logging.DEBUG
    assert re.fullmatch(f"numeric failure at iteration {len(trace.records)}: next iterate "
                        "diverged: norm .*, limit 2e\\+12", record.getMessage())


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scale", [1e12, 2e12, 1e50, 1e155, 1e300])
def test_far_start_is_not_a_divergence(halfline, scale, variant):
    # the divergence limit is relative to max(1, ||x0||); beyond 1.34e154 the
    # start's norm overflows and the limit is infinite
    for problem in (halfline, make_moving_box_problem()):
        x0 = problem.known_solution + scale
        trace = solve(problem, x0, SolverConfig(lam=0.1, variant=variant))
        assert trace.status != "numeric_failure", problem.name


def test_large_step_still_diverges(problem_suite, halfline):
    # at lambda = 2.5/L from x* + 0.1, Tseng diverges on every suite problem:
    # the l2 example by its 52nd record, the others by their 33rd
    for problem in problem_suite:
        config = SolverConfig(lam=2.5 / problem.operator.lipschitz_L, max_iter=60)
        trace = solve(problem, problem.known_solution + 0.1, config)
        assert trace.status == "numeric_failure", problem.name
        assert len(trace.records) <= 52, problem.name
    # from a far start too, and then within the start's scale
    trace = solve(halfline, [1e100], SolverConfig(lam=1e6, max_iter=100))
    assert trace.status == "numeric_failure"
    assert abs(trace.final.x[0]) <= 1e112


def test_solve_nan_oracle_gives_partial_trace():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 6:
            return x * np.nan
        return x

    problem = QviProblem(
        operator=OperatorSpec(flaky, 1.0, 1.0),
        constraint=ConstraintSpec(lambda x, z: np.maximum(z, 1.0), 0.0),
        dim=1,
    )
    trace = solve(problem, [2.0], SolverConfig(lam=0.1, max_iter=50, tol=1e-14))
    assert trace.status == "numeric_failure"
    assert len(trace.records) >= 1


# (variant, oracle, n) -> (status, records) when the n-th call of that oracle
# returns NaN; with one operator call per x_k and one per y_k, operator call 3
# is F(x_1) for tseng/extragradient and call 4 is F(y_1); projection call 2 is
# the projection at k = 1 (the second one at k = 0 for extragradient). Values
# recorded before the step kernel was shared.
NAN_ORACLE_OUTCOMES = {
    ("tseng", "operator", 3): 1,
    ("tseng", "operator", 4): 2,
    ("tseng", "projection", 2): 1,
    ("tseng", "projection", 3): 2,
    ("gradient_projection", "operator", 3): 2,
    ("gradient_projection", "operator", 4): 3,
    ("gradient_projection", "projection", 2): 1,
    ("gradient_projection", "projection", 3): 2,
    ("extragradient", "operator", 3): 1,
    ("extragradient", "operator", 4): 2,
    ("extragradient", "projection", 2): 1,
    ("extragradient", "projection", 3): 1,
}


@pytest.mark.parametrize("variant,oracle,nth", list(NAN_ORACLE_OUTCOMES),
                         ids=[f"{v}-{o}{n}" for v, o, n in NAN_ORACLE_OUTCOMES])
def test_solve_nan_at_each_oracle_position(variant, oracle, nth):
    calls = {"operator": 0, "projection": 0}

    def poison(name, out):
        calls[name] += 1
        return out * np.nan if name == oracle and calls[name] == nth else out

    problem = QviProblem(
        operator=OperatorSpec(lambda x: poison("operator", x), 1.0, 1.0),
        constraint=ConstraintSpec(lambda x, z: poison("projection", np.maximum(z, 1.0)), 0.0),
        dim=1,
    )
    trace = solve(problem, [2.0], SolverConfig(lam=0.1, max_iter=50, tol=1e-14,
                                               variant=variant))
    assert trace.status == "numeric_failure"
    assert len(trace.records) == NAN_ORACLE_OUTCOMES[variant, oracle, nth]
    # the poisoned call comes after the final record, which keeps clean x and y
    clean = QviProblem(OperatorSpec(lambda x: x, 1.0, 1.0),
                       ConstraintSpec(lambda x, z: np.maximum(z, 1.0), 0.0), dim=1)
    replay_iterates(clean, [2.0], trace)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("variant,oracle,nth", list(NAN_ORACLE_OUTCOMES),
                         ids=[f"{v}-{o}{n}" for v, o, n in NAN_ORACLE_OUTCOMES])
def test_solve_non_finite_entry_at_each_oracle_position(variant, oracle, nth, value, dim):
    # one poisoned entry gives the outcome a wholly NaN output gives, and no
    # oracle is ever called with a non-finite argument
    x0 = np.linspace(2.0, 3.0, dim)
    config = SolverConfig(lam=0.1, max_iter=50, tol=1e-14, variant=variant)
    problem, received = poisoned_problem(oracle, nth, value, dim=dim, entry=dim // 2)
    trace = solve(problem, x0, config)
    assert trace.status == "numeric_failure"
    assert len(trace.records) == NAN_ORACLE_OUTCOMES[variant, oracle, nth]
    assert_finite_arguments(received)
    replay_iterates(poisoned_problem(oracle, 0, value, dim=dim)[0], x0, trace)


def test_solve_projection_argument_overflow():
    # F(x) = 1e300*x is finite at x = 1, but x - 1e10*F(x) overflows
    problem = QviProblem(
        operator=OperatorSpec(lambda x: 1e300 * x, 1.0, 1.0),
        constraint=ConstraintSpec(lambda x, z: np.clip(z, -1.0, 1.0), 0.0),
        dim=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        trace = solve(problem, [1.0], SolverConfig(lam=1e10))
    assert trace.status == "numeric_failure"
    assert trace.records == []


def test_empirical_rate_uses_residuals_without_solution():
    # same moving-box dynamics but with the known solution withheld
    op = OperatorSpec(AffineMap(np.eye(2), np.zeros(2)), 1.0, 1.0)
    constraint = moving_set(
        shift=AffineMap(0.1 * np.eye(2), np.zeros(2)),
        shift_lipschitz=0.1,
        base_projection=BoxSet.from_bounds(2, -1.0, 1.0).project,
    )
    problem = QviProblem(op, constraint, 2)
    trace = solve(problem, [0.9, -0.7], SolverConfig(lam=0.1, max_iter=400, tol=1e-10))
    assert trace.status == "converged"
    assert all(r.dist_to_solution is None for r in trace.records)
    assert trace.empirical_rate is not None and 0.0 < trace.empirical_rate < 1.0


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(lam=0.1, tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(lam=0.1, max_iter=0)
    with pytest.raises(ValidationError):
        SolverConfig(lam=0.1, max_iter=True)
    with pytest.raises(ValidationError):
        SolverConfig(lam=0.1, variant="unknown")


def test_max_iter_status(l2_problem, geometric_x0):
    trace = solve(l2_problem, geometric_x0, SolverConfig(lam=0.1, max_iter=3, tol=1e-30))
    assert trace.status == "max_iter_reached"
    assert len(trace.records) == 4  # k = 0..3


# ---------------------------------------------------------------------- CSV

def test_trace_csv_round_trip(l2_problem, geometric_x0, tmp_path):
    trace = solve(l2_problem, geometric_x0, SolverConfig(lam=0.1, max_iter=20, tol=1e-12))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    data = read_trace_csv(path)
    assert data["variant"] == "tseng"
    assert data["lambda"] == 0.1
    assert data["status"] == trace.status
    assert data["certificate_warning"] == trace.certificate_warning
    assert np.array_equal(data["k"], np.arange(len(trace.records)))
    assert np.array_equal(data["residual"], [r.residual for r in trace.records])
    assert np.array_equal(data["dist_to_solution"], trace.dists())


def test_trace_csv_blank_dist_column(tmp_path):
    op = OperatorSpec(AffineMap(np.eye(1), np.zeros(1)), 1.0, 1.0)
    box = BoxSet.from_bounds(1, 0.0, None)
    problem = QviProblem(op, ConstraintSpec(lambda x, z: box.project(z), 0.0), 1)
    trace = solve(problem, [2.0], SolverConfig(lam=0.1, max_iter=5, tol=1e-14))
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    text = buf.getvalue()
    assert text.endswith("\n") and "\r" not in text
    row = [line for line in text.splitlines() if not line.startswith("#")][1]
    assert row.endswith(",")  # empty dist cell
    parsed = read_trace_csv(io.StringIO(text))
    assert np.all(np.isnan(parsed["dist_to_solution"]))
