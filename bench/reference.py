"""Independent references for the benchmark's correctness gates.

Nothing here calls qvisolve's ``solvers``, ``dynamics`` or ``certify``
modules. The certificate table is the PAPER.md formulas written once, as
numpy arithmetic over whole grids; the flows and the l2-example solves are
plain loops over the raw oracles or over a re-implementation of the problem.
"""

from __future__ import annotations

import math

import numpy as np

#: relative tolerance for recomputed floating-point values; the library and
#: these references evaluate the same formulas, so only rounding separates them
RTOL = 1e-12


def certificate_table(L, rho, l, lam, beta) -> dict:
    """Every sweep column, elementwise, from the PAPER.md table."""
    L, rho, l, lam, beta = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                 for v in (L, rho, l, lam, beta)))
    gamma = L / rho
    rad = 1.0 - 2.0 * lam * rho + (lam * L) ** 2
    root = np.sqrt(np.maximum(rad, 0.0))
    theta = l + root
    lamL = lam * L
    mu = 0.5 - l * l / 2.0 - theta + l - lamL - lamL * theta
    Lam = (1.0 + lamL) * (1.0 + theta) - 2.0
    rate_r = 1.0 - 2.0 * mu + ((1.0 + theta) * (1.0 + lamL)) ** 2
    existence_bound = 1.0 / (gamma * (gamma + np.sqrt(gamma * gamma - 1.0)))
    nesterov_bound = 1.0 / gamma
    delta = 4.0 - l * l + 2.0 * l
    discrete_rhs = np.sqrt(delta) - 1.0
    moving_rhs = 2.0 * np.sqrt(1.0 - beta * beta + beta) - 1.0
    return {
        "gamma": gamma,
        "theta": theta,
        "radicand": rad,
        "mu": mu,
        "Lambda": Lam,
        "rate_r": rate_r,
        "f_lipschitz": Lam + 2.0,
        "discrete_rhs": discrete_rhs,
        "moving_rhs": moving_rhs,
        # each flag as (left side, right side, strict): flag = lhs < rhs (or <=)
        "existence_ok": (l, existence_bound, False),
        "nesterov_ok": (l, nesterov_bound, False),
        "continuous_ok": (Lam, 0.0, True),
        "discrete_ok": (((1.0 + theta) * (1.0 + lamL) + 1.0) ** 2, delta, True),
        "moving_ok": ((1.0 + 2.0 * beta + root) * (1.0 + lamL), moving_rhs, True),
        "radicand_ok": (0.0, rad, False),
    }


def check_flag(values, lhs, rhs, strict: bool) -> np.ndarray:
    """Mask of cells whose flag disagrees with lhs < rhs (or <=); cells where
    the two sides tie to within rounding are not judged."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, float), np.asarray(rhs, float))
    expected = lhs < rhs if strict else lhs <= rhs
    tie = np.abs(lhs - rhs) <= RTOL * np.maximum(1.0, np.abs(rhs))
    return (np.asarray(values, dtype=bool) != expected) & ~tie


def best_lambda_reference(L: float, rho: float, l: float, grid: int = 1001):
    """Minimiser of rate_r over best_lambda's log grid: (lambda, rate_r, all rates, grid)."""
    upper = 20.0 * rho / (L * L)
    lams = np.geomspace(upper * 1e-6, upper, grid)
    rates = certificate_table(L, rho, l, lams, 0.0)["rate_r"]
    i = int(np.argmin(rates))
    return float(lams[i]), float(rates[i]), rates, lams


def l2_operator(x, alpha: float = 2.0):
    """F(x) = alpha*x + |sin x| of the truncated sequence-space example."""
    return alpha * x + np.abs(np.sin(x))


def l2_project(x, z):
    """Projection onto {y : y_0 >= x_0/10, y_k = 0 for k >= 1}."""
    out = np.zeros_like(z)
    out[0] = max(z[0], x[0] / 10.0)
    return out


def l2_fbf(x0, lam: float, tol: float, max_iter: int):
    """Forward-backward-forward solve of the l2 example from scratch.

    Returns (converged, iterations, empirical rate), the rate being the
    geometric mean of consecutive distance ratios to the solution 0.
    """
    x = np.array(x0, dtype=float)
    dists = []
    converged = False
    for _ in range(max_iter + 1):
        Fx = l2_operator(x)
        y = l2_project(x, x - lam * Fx)
        dists.append(float(np.linalg.norm(x)))
        if np.linalg.norm(x - y) <= tol:
            converged = True
            break
        x = y + lam * (Fx - l2_operator(y))
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a >= 1e-14]
    if not ratios:
        rate = None
    elif min(ratios) == 0.0:
        rate = 0.0
    else:
        rate = math.exp(float(np.mean(np.log(ratios))))
    return converged, len(dists) - 1, rate


def alpha_at(times, values, t: float) -> float:
    """Right-continuous piecewise-constant scaling; 1 when there is no table."""
    if not times:
        return 1.0
    value = values[0]
    for start, v in zip(times, values):
        if t >= start:
            value = v
    return value


def alpha_integral(times, values, t: float) -> float:
    if not times:
        return t
    bounds = list(times[1:]) + [math.inf]
    return sum(v * max(0.0, min(t, end) - start)
               for start, end, v in zip(times, bounds, values))


def flow(func, proj, x0, lam: float, h: float, nsteps: int, scheme: str,
         times=(), values=(), xstar=None):
    """Fixed-step Euler or RK4 on alpha(t) * (y + lam*(F(x) - F(y)) - x),
    y = P_{K(x)}(x - lam*F(x)), from the raw oracles.

    Returns the final state and, when xstar is given, V = 0.5*||x - x*||^2 at
    every step (t = 0 included).
    """
    def field(t, x):
        Fx = func(x)
        y = proj(x, x - lam * Fx)
        return alpha_at(times, values, t) * (y + lam * (Fx - func(y)) - x)

    x = np.array(x0, dtype=float)
    V = []

    def record(x):
        if xstar is not None:
            d = x - xstar
            V.append(0.5 * float(d @ d))

    record(x)
    for i in range(nsteps):
        t = i * h
        if scheme == "euler":
            x = x + h * field(t, x)
        else:
            k1 = field(t, x)
            k2 = field(t + h / 2.0, x + (h / 2.0) * k1)
            k3 = field(t + h / 2.0, x + (h / 2.0) * k2)
            k4 = field(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(x)
    return x, np.array(V)


def close(a, b, rtol: float = RTOL) -> bool:
    """Elementwise |a - b| <= rtol * max(1, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))
