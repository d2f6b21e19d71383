"""Discrete iterations: the single-projection forward-backward-forward scheme,
gradient-projection and extragradient baselines, stopping logic, and traces.

Per iteration the scheme computes

    y_k     = P_{K(x_k)}(x_k - lam*F(x_k))
    x_{k+1} = y_k + lam*(F(x_k) - F(y_k))

so the projection and the mapping are each evaluated once (F(x_k) is reused).
Stopping uses the natural residual ||x_k - y_k|| at the configured step size,
which is zero exactly at solutions; since y_k is the same projection, checking
it adds no oracle calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import certify
from .core import (
    UPDATES,
    Array,
    NumericFailure,
    QviProblem,
    as_vector,
    forward_backward,
    ignore_overflow,
    norm,
    require_count,
    require_finite,
    require_positive,
    require_variant,
)
from .csvio import read_trace_csv  # noqa: F401  (bench/workloads.py imports it from here)

logger = logging.getLogger(__name__)

#: an iterate whose norm exceeds this many times max(1, ||x0||) aborts with
#: numeric_failure
DIVERGENCE_LIMIT = 1e12

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter_reached"
STATUS_NUMERIC_FAILURE = "numeric_failure"


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    max_iter: int = 1000
    tol: float = 1e-10
    variant: str = "tseng"

    def __post_init__(self):
        require_positive(self.lam, "lambda")
        require_positive(self.tol, "tol")
        require_count(self.max_iter, "max_iter")
        require_variant(self.variant)


@dataclass
class IterationRecord:
    """State at iteration k. y is the projected point computed from x (also used
    for the residual); dist_to_solution is filled when the solution is known.
    Only the final record of a trace carries x and y; earlier ones hold None."""

    k: int
    x: Optional[Array]
    y: Optional[Array]
    residual: float
    dist_to_solution: Optional[float]


@dataclass
class IterationTrace:
    records: List[IterationRecord]
    status: str
    empirical_rate: Optional[float]
    certificate_warning: bool
    variant: str
    lam: float

    @property
    def final(self) -> Optional[IterationRecord]:
        """The last record; None if the solve failed before recording one."""
        return self.records[-1] if self.records else None

    def residuals(self) -> Array:
        return np.array([r.residual for r in self.records])

    def dists(self) -> Array:
        return np.array([
            np.nan if r.dist_to_solution is None else r.dist_to_solution
            for r in self.records
        ])


def divergence_limit(x0: Array) -> float:
    """The norm beyond which an iterate started at x0 has diverged: relative
    to the start, so that a valid start far from the origin is not itself a
    divergence. Infinite when ||x0|| overflows."""
    return DIVERGENCE_LIMIT * max(1.0, norm(x0))


def diverged(x: Array, limit: float) -> bool:
    """Whether ||x|| exceeds limit or x is not finite (NaN and Inf entries
    count under an infinite limit too)."""
    r = norm(x)
    return not r <= limit or r == math.inf and not np.isfinite(x).all()


def _empirical_rate(records: List[IterationRecord], use_dist: bool) -> Optional[float]:
    # geometric mean of consecutive ratios, skipping near-zero denominators
    vals = [(r.dist_to_solution if use_dist else r.residual) for r in records]
    ratios = [b / a for a, b in zip(vals, vals[1:]) if a is not None and a >= 1e-14]
    if not ratios:
        return None
    if any(r == 0.0 for r in ratios):
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


@ignore_overflow
def solve(problem: QviProblem, x0, config: SolverConfig) -> IterationTrace:
    """Run the selected variant from x0 until the natural residual drops to
    config.tol or config.max_iter steps have been taken.

    The trace records the residual of every visited iterate (and its distance
    to the known solution, when present), but keeps only the final iterate x
    and its projection y, so memory stays a few n-vectors. empirical_rate is
    the geometric mean of consecutive distance ratios (residual ratios when no
    solution is known).
    certificate_warning is set when the discrete sufficient condition fails at
    this step size; the run proceeds regardless. Deterministic: identical
    inputs give identical traces bit for bit.

    A non-finite oracle output ends the run with numeric_failure before any
    oracle is called with it: F(x_k) through the projection argument, y_k
    through the residual before its record is appended, and F(y_k) or the
    second projection through the next iterate's divergence guard.
    """
    x = as_vector(x0, problem.dim, name="x0").copy()
    table = certify.certificate_table(problem.operator.lipschitz_L, problem.operator.strong_rho,
                                      problem.constraint.lip_l, config.lam)
    warning = not table["discrete_ok"]
    if warning:
        logger.debug(
            "discrete sufficient condition unmet at lambda=%g (rate bound %.6g); solving anyway",
            config.lam, table["rate_r"],
        )
    xstar = problem.known_solution
    lam = config.lam
    at = problem.constraint.at
    update = UPDATES[config.variant]
    limit = divergence_limit(x)
    records: List[IterationRecord] = []
    last = None  # (x, y) of the newest record
    status = STATUS_MAX_ITER
    try:
        for k in range(config.max_iter + 1):
            P = at(x)
            Fx, y = forward_backward(problem, P, x, lam)
            residual = norm(x - y)
            if not math.isfinite(residual):  # y is not finite, or x - y overflowed
                require_finite(y, "projection oracle output")
            dist = norm(x - xstar) if xstar is not None else None
            records.append(IterationRecord(k, None, None, residual, dist))
            last = x, y
            if residual <= config.tol:
                status = STATUS_CONVERGED
                break
            if k == config.max_iter:
                break
            x = update(problem, P, x, Fx, y, lam)
            if diverged(x, limit):
                status = STATUS_NUMERIC_FAILURE
                break
    except NumericFailure as exc:
        logger.debug("numeric failure at iteration %d: %s", len(records), exc)
        status = STATUS_NUMERIC_FAILURE
    if records:
        records[-1].x, records[-1].y = last
    rate = _empirical_rate(records, use_dist=xstar is not None)
    return IterationTrace(records, status, rate, warning, config.variant, config.lam)
