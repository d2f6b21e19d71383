"""Independent oracles for the test suite.

These deliberately do not import the formula implementations they check: the
certificate oracle recomputes everything in arbitrary precision with mpmath,
and the reference step below is a separate transcription of the single-set
scheme. Counting wrappers instrument a problem's oracles (and
`counting_moving_box` a moving set's shift) for the work-accounting tests.
`replay_iterates` rebuilds the iterates a solve trace does not keep, with
the public `step`, to check its bookkeeping. `loop_alpha_integral` is the
piece-by-piece integral of an alpha schedule, the reference for the array
form `AlphaSchedule.integral` computes.
`poisoned_problem` returns a non-finite value from one chosen oracle call and
records every argument, so a test can check that none reached an oracle.
"""

import math

import numpy as np
from mpmath import mp, mpf, sqrt

from qvisolve.core import ConstraintSpec, OperatorSpec, QviProblem, norm
from qvisolve.problems import BoxSet, moving_set
from qvisolve import step

mp.dps = 50


def certificate_oracle(L, rho, l, lam):
    """All certificate quantities at 50 significant digits (as mpf values)."""
    L, rho, l, lam = mpf(L), mpf(rho), mpf(l), mpf(lam)
    gamma = L / rho
    radicand = 1 - 2 * lam * rho + (lam * L) ** 2
    theta = l + sqrt(radicand)
    mu = mpf(1) / 2 - l * l / 2 - theta + l - lam * L - lam * L * theta
    Lambda = (1 + lam * L) * (1 + theta) - 2
    rate_r = 1 - 2 * mu + ((1 + theta) * (1 + lam * L)) ** 2
    existence_bound = 1 / (gamma * (gamma + sqrt(gamma * gamma - 1)))
    nesterov_bound = 1 / gamma
    delta = 4 - l * l + 2 * l
    discrete_rhs = sqrt(delta) - 1 if delta >= 0 else mp.nan
    return {
        "gamma": gamma,
        "radicand": radicand,
        "theta": theta,
        "mu": mu,
        "Lambda": Lambda,
        "rate_r": rate_r,
        "existence_bound": existence_bound,
        "nesterov_bound": nesterov_bound,
        "discrete_rhs": discrete_rhs,
        "f_lipschitz": (1 + theta) * (1 + lam * L),
    }


def rel_err(a, b) -> float:
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def counting_problem(problem: QviProblem):
    """Clone a problem with instrumented oracles; returns (problem, counts)."""
    counts = {"operator": 0, "projection": 0}
    base_func = problem.operator.func
    base_proj = problem.constraint.project

    def func(x):
        counts["operator"] += 1
        return base_func(x)

    def proj(x, z):
        counts["projection"] += 1
        return base_proj(x, z)

    wrapped = QviProblem(
        operator=OperatorSpec(func, problem.operator.lipschitz_L,
                              problem.operator.strong_rho),
        constraint=ConstraintSpec(proj, problem.constraint.lip_l),
        dim=problem.dim,
        known_solution=problem.known_solution,
        name=problem.name + "+counting",
    )
    return wrapped, counts


def counting_moving_box(n: int = 4, scale: float = 0.1):
    """The suite's moving box, F(x) = x on K(x) = scale*x + [-1, 1]^n, built
    by `moving_set` with a counting shift and base projection; returns
    (problem, counts)."""
    counts = {"shift": 0, "base": 0}
    box = BoxSet.from_bounds(n, -1.0, 1.0)

    def shift(x):
        counts["shift"] += 1
        return scale * x

    def base(z):
        counts["base"] += 1
        return box.project(z)

    problem = QviProblem(OperatorSpec(lambda x: x, 1.0, 1.0), moving_set(shift, scale, base), n,
                         known_solution=np.zeros(n))
    return problem, counts


def poisoned_problem(oracle, nth, value, dim=1, entry=0):
    """F(x) = x on K = {z >= 1}, except that the nth call of `oracle`
    ("operator" or "projection") returns `value` at coordinate `entry`; nth = 0
    poisons nothing. Returns (problem, received): received[name] holds a copy
    of every argument array that oracle was called with."""
    received = {"operator": [], "projection": []}

    def call(name, out, *args):
        received[name].extend(np.array(a, dtype=float) for a in args)
        calls = len(received[name]) // len(args)
        if name == oracle and calls == nth:
            out = np.array(out, dtype=float)
            out[entry] = value
        return out

    problem = QviProblem(
        operator=OperatorSpec(lambda x: call("operator", x, x), 1.0, 1.0),
        constraint=ConstraintSpec(
            lambda x, z: call("projection", np.maximum(z, 1.0), x, z), 0.0),
        dim=dim,
    )
    return problem, received


def assert_finite_arguments(received):
    """No oracle of a `poisoned_problem` was called with a non-finite array."""
    for name, args in received.items():
        for a in args:
            assert np.isfinite(a).all(), f"{name} oracle received {a}"


def reference_single_set_fbf_step(base_projection, operator, x, lam):
    """Textbook single-set forward-backward-forward step, written separately
    from the package implementation for the scheme-equivalence check."""
    y = base_projection(x - lam * operator(x))
    return y + lam * (operator(x) - operator(y))


def replay_iterates(problem: QviProblem, x0, trace):
    """The (x_k, y_k) of every record of a solve trace, rebuilt with `step`
    in the trace's variant.

    Asserts that the rebuilt pairs give the trace's residuals and distances
    bit for bit, that only the final record keeps x and y, and that they are
    the last rebuilt pair.
    """
    xstar = problem.known_solution
    pairs = []
    x = np.array(x0, dtype=float)
    for rec in trace.records:
        y, x_next = step(problem, x, trace.lam, trace.variant)
        assert rec.residual == norm(x - y), rec.k
        assert rec.dist_to_solution == (None if xstar is None else norm(x - xstar)), rec.k
        pairs.append((x, y))
        x = x_next
    assert all(r.x is None and r.y is None for r in trace.records[:-1])
    if pairs:
        assert np.array_equal(trace.final.x, pairs[-1][0])
        assert np.array_equal(trace.final.y, pairs[-1][1])
    return pairs


def loop_alpha_integral(times, values, t):
    """\\int_0^t alpha(s) ds of the schedule values[i] on [times[i], times[i+1]),
    summed piece by piece, left to right, in Python floats."""
    total = 0.0
    for i, (start, value) in enumerate(zip(times, values)):
        if t <= start:
            break
        end = times[i + 1] if i + 1 < len(times) else math.inf
        total += value * (min(t, end) - start)
    return total
