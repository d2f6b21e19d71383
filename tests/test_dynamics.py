import io
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import (
    AlphaSchedule,
    ConstraintSpec,
    FlowConfig,
    OperatorSpec,
    QviProblem,
    SolverConfig,
    ValidationError,
    integrate,
    make_l2_example,
    natural_residual,
    solve,
    step,
    tseng_map,
)
from qvisolve import dynamics
from qvisolve.dynamics import SCHEMES
from qvisolve.certify import ProblemConstants, full_certificate
from qvisolve.problems import make_moving_box_problem
from qvisolve.core import norm
from qvisolve.csvio import flow_to_csv, read_flow_csv

from oracles import (
    assert_finite_arguments,
    counting_moving_box,
    counting_problem,
    loop_alpha_integral,
    poisoned_problem,
    replay_iterates,
)


# ------------------------------------------------------------- alpha schedule

def test_alpha_schedule_validation():
    with pytest.raises(ValidationError):
        AlphaSchedule((1.0,), (1.0,))  # must start at 0
    with pytest.raises(ValidationError):
        AlphaSchedule((0.0, 0.0), (1.0, 2.0))  # strictly increasing
    with pytest.raises(ValidationError):
        AlphaSchedule((0.0,), (-1.0,))  # nonnegative
    for times, values in (((0.0, 1.0), (1.0,)), ((), ())):
        with pytest.raises(ValidationError, match="matching, nonempty"):
            AlphaSchedule(times, values)


def test_alpha_schedule_right_continuous():
    alpha = AlphaSchedule((0.0, 2.0), (1.0, 0.5))
    assert alpha(0.0) == 1.0
    assert alpha(1.999) == 1.0
    assert alpha(2.0) == 0.5  # value switches at the breakpoint
    assert alpha(100.0) == 0.5


def test_alpha_schedule_integral():
    alpha = AlphaSchedule((0.0, 2.0, 5.0), (1.0, 0.5, 2.0))
    assert alpha.integral(0.0) == 0.0
    assert alpha.integral(1.0) == 1.0
    assert alpha.integral(2.0) == 2.0
    assert alpha.integral(4.0) == pytest.approx(3.0)
    assert alpha.integral(6.0) == pytest.approx(2.0 + 1.5 + 2.0)
    assert AlphaSchedule((0.0,), (3.0,)).integral(4.0) == 12.0


# a schedule: strictly increasing breakpoints from 0 (gaps from a grid and
# from the reals) and a nonnegative value for each
_gaps = st.one_of(st.floats(1e-3, 10.0), st.sampled_from([0.1, 0.3, 1.0 / 3.0, 1.0, 2.5]))
_schedules = st.lists(st.tuples(_gaps, st.floats(0.0, 5.0)), min_size=1, max_size=6).map(
    lambda pieces: (tuple(accumulate((g for g, _ in pieces[1:]), initial=0.0)),
                    tuple(v for _, v in pieces)))


@given(_schedules, st.lists(st.floats(-1.0, 40.0), max_size=20),
       st.sampled_from([1e-3, 0.01, 0.1, 0.25, 1.0 / 3.0]))
def test_alpha_integral_matches_the_piece_by_piece_loop(schedule, points, h):
    # the array form keeps the loop's bits: at flow grid points i*h, at every
    # breakpoint exactly, and at any other point, before 0 included
    times, values = schedule
    alpha = AlphaSchedule(times, values)
    t = np.concatenate([np.arange(200) * h, times, points])
    expected = np.array([loop_alpha_integral(times, values, float(tv)) for tv in t])
    assert alpha.integral(t).tobytes() == expected.tobytes()
    assert [alpha.integral(float(tv)) for tv in t] == expected.tolist()


# --------------------------------------------------------------------- field

def test_field_zero_at_solutions(problem_suite):
    for problem in problem_suite:
        assert norm(tseng_map(problem, problem.known_solution, 0.1)) <= 1e-9, problem.name


def test_field_halfline_value(halfline):
    assert tseng_map(halfline, [2.0], 0.1)[0] == pytest.approx(-0.18, rel=1e-12)


def test_flow_config_validation():
    with pytest.raises(ValidationError):
        FlowConfig(lam=0.1, h=2.0, t_end=1.0)
    with pytest.raises(ValidationError):
        FlowConfig(lam=0.1, h=0.1, t_end=1.0, scheme="heun")
    with pytest.raises(ValidationError):
        FlowConfig(lam=0.0, h=0.1, t_end=1.0)


def test_flow_step_cap(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_FLOW_STEPS", 10)
    assert FlowConfig(lam=0.1, h=0.1, t_end=1.0).steps == 10
    assert FlowConfig(lam=0.1, h=0.3, t_end=1.0).steps == 3  # t_end rounds to whole steps
    for h, t_end in ((0.1, 1.2), (1e-300, 1.0), (1e-10, 1e308)):
        with pytest.raises(ValidationError, match="^t_end/h = .* exceed the limit of 10$"):
            FlowConfig(lam=0.1, h=h, t_end=t_end)


def test_kept_state_cap(monkeypatch, halfline):
    config = FlowConfig(lam=0.1, h=0.1, t_end=1.0)  # 11 states of dimension 1
    monkeypatch.setattr(dynamics, "MAX_STATE_ENTRIES", 10)
    monkeypatch.setattr(dynamics, "tseng_field", None)  # rejected before any step
    with pytest.raises(ValidationError, match="^t_end/h: 11 states of dimension 1 exceed"):
        integrate(halfline, [2.0], config, keep_states=True)
    monkeypatch.undo()
    monkeypatch.setattr(dynamics, "MAX_STATE_ENTRIES", 11)
    assert integrate(halfline, [2.0], config, keep_states=True).x.shape == (11, 1)
    monkeypatch.setattr(dynamics, "MAX_STATE_ENTRIES", 0)  # only kept states count
    assert integrate(halfline, [2.0], config).status == "completed"


# ------------------------------------------------------------------ integrate

def test_euler_single_step(halfline):
    trace = integrate(halfline, [2.0], FlowConfig(lam=0.1, h=0.5, t_end=0.5))
    assert trace.status == "completed"
    assert np.array_equal(trace.t, [0.0, 0.5])
    assert trace.x[-1][0] == pytest.approx(1.91, rel=1e-15)


def test_constant_trajectory_at_solution(l2_problem):
    for scheme in ("euler", "rk4"):
        trace = integrate(l2_problem, np.zeros(50),
                          FlowConfig(lam=0.1, h=0.25, t_end=2.0, scheme=scheme),
                          keep_states=True)
        assert trace.status == "completed"
        assert np.all(trace.x == 0.0)
        assert np.all(trace.V == 0.0)


def test_unit_euler_matches_discrete_scheme(l2_problem, halfline, geometric_x0):
    for problem, x0 in ((l2_problem, geometric_x0), (halfline, np.array([2.0]))):
        trace = integrate(problem, x0,
                          FlowConfig(lam=0.1, h=1.0, t_end=100.0, scheme="euler"),
                          keep_states=True)
        assert trace.status == "completed"
        x = x0.copy()
        for k in range(100):
            _, x = step(problem, x, 0.1)
            assert np.allclose(trace.x[k + 1], x, atol=1e-12), (problem.name, k)


def test_euler_order_of_convergence(halfline, halfline_reference_endpoint):
    errs = []
    for h in (0.5, 0.25):
        trace = integrate(halfline, [2.0], FlowConfig(lam=0.1, h=h, t_end=5.0))
        errs.append(abs(trace.x[-1][0] - halfline_reference_endpoint))
    ratio = errs[0] / errs[1]
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


def test_rk4_order_of_convergence(halfline, halfline_reference_endpoint):
    errs = []
    for h in (0.5, 0.25):
        trace = integrate(halfline, [2.0],
                          FlowConfig(lam=0.1, h=h, t_end=5.0, scheme="rk4"))
        errs.append(abs(trace.x[-1][0] - halfline_reference_endpoint))
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.5 <= ratio <= 16.0 * 1.5


def test_lyapunov_nonincreasing_along_rk4(problem_suite):
    # lam = rho / L^2, h = 0.01: V may not increase by more than 1e-9 per step
    for problem in problem_suite:
        lam = problem.operator.strong_rho / problem.operator.lipschitz_L ** 2
        trace = integrate(problem, np.ones(problem.dim),
                          FlowConfig(lam=lam, h=0.01, t_end=5.0, scheme="rk4"))
        assert trace.status == "completed"
        assert np.all(np.diff(trace.V) <= 1e-9), problem.name


def test_exponential_envelope_when_certified(problem_suite):
    # only meaningful under a negative continuous-time exponent; no admissible
    # constants produce one (see the feasibility sweep), so this auto-skips
    # after searching a parameter grid
    candidates = []
    for L in (1.0, 2.0, 3.0):
        for rho_frac in (0.25, 0.5, 1.0):
            for l in (0.0, 0.05, 0.1):
                for lam in np.linspace(0.05, 2.0 / L, 40):
                    cert = full_certificate(ProblemConstants(
                        L=L, rho=L * rho_frac, l=l, lam=float(lam)))
                    if cert.continuous_ok:
                        candidates.append((L, L * rho_frac, l, float(lam)))
    if not candidates:
        pytest.skip("condition infeasible: no (L, rho, l, lambda) grid point "
                    "has Lambda < 0; envelope check cannot be exercised")
    # exercised only if a certified configuration ever exists
    for problem in problem_suite:
        lam = next(lam for (L, rho, l, lam) in candidates)
        trace = integrate(problem, np.ones(problem.dim),
                          FlowConfig(lam=lam, h=0.01, t_end=5.0, scheme="rk4"))
        assert np.all(trace.V <= trace.envelope * (1.0 + 1e-6))


def test_equilibrium_iff_solution(problem_suite):
    # at x*: the field vanishes; at endpoints where the field has vanished the
    # natural residual must vanish as well (needs lam * L < 1: at lam*L = 1 a
    # zero field no longer forces x = y)
    nontrivial = 0
    for problem in problem_suite:
        L = problem.operator.lipschitz_L
        rho = problem.operator.strong_rho
        lam = min(rho / L**2, 0.5 / L)
        assert norm(tseng_map(problem, problem.known_solution, lam)) <= 1e-9
        t_end = 100.0 if problem.dim <= 4 else 40.0
        trace = integrate(problem, np.ones(problem.dim),
                          FlowConfig(lam=lam, h=0.05, t_end=t_end, scheme="rk4"))
        endpoint = trace.x[-1]
        if norm(tseng_map(problem, endpoint, lam)) <= 1e-9:
            nontrivial += 1
            assert natural_residual(problem, endpoint, lam) <= 1e-6, problem.name
    assert nontrivial >= 2  # the implication was actually exercised


def test_envelope_uses_scaled_time(halfline):
    alpha = AlphaSchedule((0.0, 2.0), (1.0, 0.5))
    config = FlowConfig(lam=0.1, h=0.25, t_end=4.0, scheme="rk4", alpha=alpha)
    trace = integrate(halfline, [2.0], config)
    cert = full_certificate(ProblemConstants.of(halfline, 0.1))
    assert trace.Lambda == cert.Lambda
    v0 = trace.V[0]
    for t, env in zip(trace.t, trace.envelope):
        assert env == pytest.approx(v0 * np.exp(cert.Lambda * alpha.integral(t)), rel=1e-12)


def test_envelope_starts_at_v0_for_an_infinite_lambda():
    # alpha = 1e308 makes L = alpha + 1 overflow (1 + lam*L)(1 + theta), so
    # Lambda is inf and Lambda * 0 would be NaN
    trace = integrate(make_l2_example(3, 1e308), [1.0, 0.0, 0.0],
                      FlowConfig(lam=0.1, h=0.5, t_end=1.0))
    assert trace.Lambda == np.inf
    assert trace.envelope[0] == trace.V[0] == 0.5


@pytest.mark.parametrize("lam", [0.05, 0.1, "0.5/L", 1.0])
def test_runs_report_the_certificate(problem_suite, lam):
    # solve's warning and integrate's exponent are the certificate's, bit for bit
    for problem in problem_suite:
        step = 0.5 / problem.operator.lipschitz_L if lam == "0.5/L" else lam
        cert = full_certificate(ProblemConstants.of(problem, step))
        x0 = np.ones(problem.dim)
        trace = solve(problem, x0, SolverConfig(lam=step, max_iter=1))
        assert trace.certificate_warning is (not cert.discrete_ok), problem.name
        flow = integrate(problem, x0, FlowConfig(lam=step, h=0.1, t_end=0.1))
        assert type(flow.Lambda) is float and flow.Lambda.hex() == cert.Lambda.hex(), problem.name


@pytest.mark.parametrize("run", [
    lambda p: solve(p, [2.0], SolverConfig(lam=0.1)),
    lambda p: integrate(p, [2.0], FlowConfig(lam=0.1, h=0.01, t_end=100.0)),
], ids=["solve", "integrate"])
def test_overflowing_gamma_fails_before_any_oracle_call(halfline, run):
    # L/rho = 1e300/1e-300 overflows although both constants are finite: the
    # one check of the declared constants that the certificate makes again
    problem, counts = counting_problem(QviProblem(
        OperatorSpec(halfline.operator.func, 1e300, 1e-300), halfline.constraint, dim=1))
    with pytest.raises(ValidationError, match="^gamma must be >= 1 and finite, got inf$"):
        run(problem)
    assert counts == {"operator": 0, "projection": 0}


def test_alpha_zero_freezes_the_flow(halfline):
    config = FlowConfig(lam=0.1, h=0.5, t_end=2.0, scheme="euler",
                        alpha=AlphaSchedule((0.0,), (0.0,)))
    trace = integrate(halfline, [2.0], config, keep_states=True)
    assert np.all(trace.x == 2.0)


def test_integrate_divergence_guard(halfline):
    trace = integrate(halfline, [2.0], FlowConfig(lam=1e6, h=10.0, t_end=100.0))
    assert trace.status == "numeric_failure"
    assert len(trace.t) < 11


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("scale", [1e12, 2e12, 1e50, 1e155, 1e300])
def test_far_start_flow_is_not_a_divergence(halfline, scale, scheme):
    # the divergence limit is relative to max(1, ||x0||), as in solve
    for problem in (halfline, make_moving_box_problem()):
        config = FlowConfig(lam=0.1, h=0.5, t_end=20.0, scheme=scheme)
        trace = integrate(problem, problem.known_solution + scale, config)
        assert trace.status == "completed", problem.name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_large_step_flow_still_diverges(problem_suite, scheme):
    # a unit Euler step is the Tseng step, which diverges at lambda = 2.5/L
    # from x* + 0.1 on every suite problem (see test_large_step_still_diverges)
    for problem in problem_suite:
        config = FlowConfig(lam=2.5 / problem.operator.lipschitz_L, h=1.0, t_end=60.0,
                            scheme=scheme)
        trace = integrate(problem, problem.known_solution + 0.1, config)
        assert trace.status == "numeric_failure", problem.name
        assert len(trace.t) <= 52, problem.name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flow_evaluates_the_shift_once_per_field_evaluation(scheme):
    problem, counts = counting_moving_box()
    integrate(problem, np.full(4, 0.5), FlowConfig(lam=0.1, h=0.1, t_end=1.0, scheme=scheme))
    evaluations = 10 * CALLS_PER_STEP[scheme][1]
    assert counts == {"shift": evaluations, "base": evaluations}


@pytest.mark.parametrize("h,t_end,lam", [(0.1, 3.0, 0.1), (1e-3, 1.0, 0.1),
                                         (0.7, 50.0, 0.1), (10.0, 100.0, 1e6)])
def test_flow_times_are_whole_multiples_of_h(halfline, h, t_end, lam):
    # t_i has the bits of the Python product i*h, early stops included
    trace = integrate(halfline, [2.0], FlowConfig(lam=lam, h=h, t_end=t_end))
    assert trace.t.tobytes() == np.array([i * h for i in range(len(trace.t))]).tobytes()
    assert len(trace.V) == len(trace.envelope) == len(trace.t)


# scheme -> (operator calls, projection calls) per step
CALLS_PER_STEP = {"euler": (2, 1), "rk4": (8, 4)}
FLOW_POISON = [
    (scheme, oracle, nth)
    for scheme, counts in CALLS_PER_STEP.items()
    for oracle, per_step in zip(("operator", "projection"), counts)
    for nth in range(1, 2 * per_step + 1)
]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("scheme,oracle,nth", FLOW_POISON,
                         ids=[f"{s}-{o}{n}" for s, o, n in FLOW_POISON])
def test_integrate_non_finite_at_each_stage(scheme, oracle, nth, value, dim):
    # a poisoned call in step i (every stage of the first two steps) leaves
    # the states before it, and no oracle sees a non-finite argument
    problem, received = poisoned_problem(oracle, nth, value, dim=dim, entry=dim // 2)
    trace = integrate(problem, np.linspace(2.0, 3.0, dim),
                      FlowConfig(lam=0.1, h=0.1, t_end=1.0, scheme=scheme))
    assert trace.status == "numeric_failure"
    per_step = CALLS_PER_STEP[scheme][oracle == "projection"]
    assert len(trace.t) == 1 + (nth - 1) // per_step
    assert_finite_arguments(received)


def test_integrate_rejects_scalar_operator_output():
    problem = QviProblem(OperatorSpec(lambda x: 1.0, 1.0, 1.0),
                         ConstraintSpec(lambda x, z: z, 0.0), dim=3)
    with pytest.raises(ValidationError, match="operator oracle"):
        integrate(problem, np.ones(3), FlowConfig(lam=0.1, h=0.1, t_end=1.0))


def test_integrate_matches_solver_trajectory(halfline):
    # euler h=1 trajectory equals the discrete solver's iterates
    trace = integrate(halfline, [2.0], FlowConfig(lam=0.1, h=1.0, t_end=20.0),
                      keep_states=True)
    discrete = solve(halfline, [2.0], SolverConfig(lam=0.1, max_iter=20, tol=0.0 + 1e-300))
    iterates = [x for x, _ in replay_iterates(halfline, [2.0], discrete)]
    for k in range(min(len(iterates), len(trace.x))):
        assert np.allclose(trace.x[k], iterates[k], atol=1e-12)


def test_states_kept_only_on_request(l2_problem, geometric_x0):
    config = FlowConfig(lam=0.1, h=0.1, t_end=3.0, scheme="rk4")
    full = integrate(l2_problem, geometric_x0, config, keep_states=True)
    endpoint = integrate(l2_problem, geometric_x0, config)
    assert full.x.shape == (len(full.t), 50)
    assert endpoint.x.shape == (1, 50)
    assert np.array_equal(endpoint.x[-1], full.x[-1])
    assert np.array_equal(endpoint.t, full.t) and np.array_equal(endpoint.V, full.V)


@pytest.mark.parametrize("n,steps", [(50, 400), (3000, 7), (9000, 3)])
def test_lyapunov_blocks_round_as_single_rows(n, steps):
    # V is reduced in einsum blocks of at most 8192 elements (163 rows at
    # n = 50, 2 at n = 3000, 1 above 8192); each value has the bits of a
    # one-row einsum of its own state, whatever block it fell in
    problem = make_l2_example(n)
    trace = integrate(problem, np.full(n, 1.0 / np.sqrt(n)),
                      FlowConfig(lam=0.1, h=0.01, t_end=0.01 * steps), keep_states=True)
    assert len(trace.t) == steps + 1
    for x, v in zip(trace.x, trace.V):
        d = (x - problem.known_solution)[None]
        assert v == 0.5 * np.einsum("ij,ij->i", d, d)[0]


def test_flow_trace_invariants(l2_problem, geometric_x0):
    trace = integrate(l2_problem, geometric_x0,
                      FlowConfig(lam=0.1, h=0.1, t_end=3.0, scheme="rk4"))
    assert trace.t[0] == 0.0
    assert np.all(np.diff(trace.t) > 0.0)
    assert trace.t[-1] == pytest.approx(3.0, rel=1e-12)
    assert np.all(trace.V >= 0.0)


# ----------------------------------------------------------------------- CSV

def test_flow_csv_round_trip(halfline, tmp_path):
    trace = integrate(halfline, [2.0], FlowConfig(lam=0.1, h=0.5, t_end=3.0, scheme="rk4"),
                      keep_states=True)
    path = tmp_path / "flow.csv"
    flow_to_csv(trace, path)
    data = read_flow_csv(path)
    assert data["status"] == "completed"
    assert data["Lambda"] == trace.Lambda
    assert np.array_equal(data["t"], trace.t)
    assert np.array_equal(data["V"], trace.V)
    assert np.array_equal(data["envelope"], trace.envelope)
    assert np.array_equal(data["x"], trace.x)


def test_flow_csv_without_solution(tmp_path):
    from qvisolve.problems import AffineMap, BoxSet
    op = OperatorSpec(AffineMap(np.eye(2), np.zeros(2)), 1.0, 1.0)
    box = BoxSet.from_bounds(2, -1.0, 1.0)
    problem = QviProblem(op, ConstraintSpec(lambda x, z: box.project(z), 0.0), 2)
    trace = integrate(problem, [0.5, 0.5], FlowConfig(lam=0.1, h=0.5, t_end=1.0))
    buf = io.StringIO()
    flow_to_csv(trace, buf)
    parsed = read_flow_csv(io.StringIO(buf.getvalue()))
    assert np.all(np.isnan(parsed["V"]))
