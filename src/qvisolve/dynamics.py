"""Continuous-time flow of the forward-backward-forward vector field.

Integrates xdot(t) = alpha(t) * f(x(t)) with fixed-step explicit Euler or
classical RK4, where f is the Tseng-type map from `core` and alpha is an
optional nonnegative time scaling (constant or piecewise-constant). Traces
record the Lyapunov value V = 0.5*||x - x*||^2 against the exponential
envelope V0 * exp(Lambda * \\int_0^t alpha) whenever the solution is known.

A unit Euler step with alpha == 1 reproduces the discrete scheme exactly:
x + f(x) = y + lam*(F(x) - F(y)).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Tuple

import numpy as np

from . import certify
from .core import (
    STATUS_NUMERIC_FAILURE,
    Array,
    NumericFailure,
    QviProblem,
    ValidationError,
    as_array,
    divergence_limit,
    ignore_overflow,
    require_bounded,
    require_finite,
    require_nonnegative,
    require_positive,
    require_real,
    tseng_field,
)
from .csvio import read_flow_csv  # noqa: F401  (bench/workloads.py imports it from here)

SCHEMES = ("euler", "rk4")

#: the most steps one flow may take: t, V and the envelope are float64 series,
#: and tracemalloc reads a peak of about 26 B per step (half-line, 1e5 steps;
#: 41 B with an alpha schedule), so this many peak near 260 MB (410 MB). Their
#: CSV is about 50 B per step (500 MB here), which flow_to_csv writes one
#: block of rows at a time from about 250 B per step of cell texts (2.5 GB)
MAX_FLOW_STEPS = 10_000_000
#: the most entries the states of a flow integrated with keep_states may
#: hold: 800 MB of float64
MAX_STATE_ENTRIES = 100_000_000
#: V is reduced by one einsum per block of at most this many elements: then
#: each row rounds as a one-row einsum does, and as an einsum over every state
#: at once does when n <= EINSUM_BLOCK. Above that, einsum sums a row in
#: EINSUM_BLOCK-element buffers whose split depends on the number of rows, and
#: a block is one row
EINSUM_BLOCK = 8192


@dataclass(frozen=True)
class AlphaSchedule:
    """Right-continuous piecewise-constant time scaling alpha(t) >= 0.

    values[i] applies on [times[i], times[i+1]); the last value extends to
    +inf. times must start at 0 and be strictly increasing. (Whether the
    scaling has a divergent integral is not decidable from a finite table and
    is not checked.)
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        try:
            times = tuple(require_real(t, "alpha time") for t in self.times)
            values = tuple(require_nonnegative(v, "alpha value") for v in self.values)
        except TypeError:  # a scalar or None, not a table
            times = values = ()
        if len(times) != len(values) or not times:
            raise ValidationError("alpha schedule needs matching, nonempty times/values")
        if times[0] != 0.0:
            raise ValidationError("alpha schedule must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("alpha schedule times must increase strictly")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t: float) -> float:
        idx = bisect.bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]

    def integral(self, t):
        """Exact \\int_0^t alpha(s) ds for the piecewise-constant table (0 for
        t <= 0), at a float t, or at each entry of an array t. Each value is
        the integral over the whole pieces below t, summed left to right, plus
        the share of the piece holding t: the sum a piece-by-piece loop forms,
        in the same order, so with the same bits."""
        times, values = self.times, self.values
        widths = (v * (b - a) for a, b, v in zip(times, times[1:], values))
        below = np.fromiter(accumulate(widths, initial=0.0), float, len(times))
        ta = np.atleast_1d(np.asarray(t, dtype=float))
        j = np.searchsorted(times, ta, "right")
        j -= 1
        np.maximum(j, 0, out=j)
        out = np.subtract(ta, np.take(times, j))
        np.maximum(out, 0.0, out=out)
        out *= np.take(values, j)
        out += np.take(below, j)
        return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class FlowConfig:
    """t_end is rounded to steps = round(t_end/h) whole steps, at most MAX_FLOW_STEPS."""

    lam: float
    h: float
    t_end: float
    scheme: str = "euler"
    alpha: Optional[AlphaSchedule] = None
    steps: int = field(init=False)

    def __post_init__(self):
        require_positive(self.lam, "lambda")
        require_positive(self.h, "h")
        require_positive(self.t_end, "t_end")
        if self.h > self.t_end:
            raise ValidationError(f"h must not exceed t_end (h={self.h}, t_end={self.t_end})")
        steps = self.t_end / self.h
        if not steps <= MAX_FLOW_STEPS:
            raise ValidationError(f"t_end/h = {steps!r} steps exceed the limit of {MAX_FLOW_STEPS}")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {'/'.join(SCHEMES)}, got {self.scheme!r}")
        if not (self.alpha is None or isinstance(self.alpha, AlphaSchedule)):
            raise ValidationError(f"alpha must be an AlphaSchedule or None, got {self.alpha!r}")
        object.__setattr__(self, "steps", round(steps))


@dataclass
class FlowTrace:
    """Samples of one trajectory, recorded at every step starting from t = 0.

    x holds every state (and its CSV writes them), one row per entry of t,
    when the flow was integrated with keep_states; otherwise it is the
    endpoint alone, shape (1, n). Either way x[-1] is the endpoint. V and
    envelope are filled when the problem has a known solution; the envelope
    exponent is Lambda * \\int_0^t alpha (Lambda*t for alpha == 1).
    """

    t: Array
    x: Array
    V: Optional[Array]
    envelope: Optional[Array]
    Lambda: float
    status: str
    keep_states: bool


@ignore_overflow
def integrate(problem: QviProblem, x0, config: FlowConfig,
              keep_states: bool = False) -> FlowTrace:
    """Fixed-step integration from x(0) = x0; t_end is rounded to the nearest
    whole number of steps of size h. Deterministic; numeric failures (NaN/Inf
    or norm beyond the divergence limit) stop early with a partial trace.

    A non-finite oracle output stops the flow before any oracle is called
    with it: y is checked in tseng_field, each later RK4 stage's argument
    x + c*h*k here, and each step's result by `core.require_bounded`.

    The trace keeps every state only with keep_states (its CSV then writes
    them); otherwise memory stays a few n-vectors plus the scalar series.
    V = 0.5*||x - x*||^2 is reduced by one einsum per block of rows of at most
    EINSUM_BLOCK elements, so that each value has the bits of a one-row einsum
    of its own state, whatever the flow's length or where it stopped.
    """
    x = as_array(x0, "x0", problem.dim).copy()
    h, lam, alpha, nsteps = config.h, config.lam, config.alpha, config.steps
    limit = divergence_limit(x)
    if keep_states and (nsteps + 1) * problem.dim > MAX_STATE_ENTRIES:
        raise ValidationError(f"t_end/h: {nsteps + 1} states of dimension {problem.dim} exceed "
                              f"the limit of {MAX_STATE_ENTRIES} kept entries")
    Lam = float(certify.certificate_table(problem.operator.lipschitz_L, problem.operator.strong_rho,
                                          problem.constraint.lip_l, lam)["Lambda"])
    xstar = problem.known_solution

    def f(t, xv):
        v = tseng_field(problem, xv, lam)
        return v if alpha is None else alpha(t) * v

    def stage(t, xv):
        return f(t, require_finite(xv, "RK4 stage state"))

    states = np.empty((nsteps + 1, problem.dim)) if keep_states else None
    # V of every row the flow can have; rows of x - x* wait in diffs for their block
    V = None if xstar is None else np.empty(nsteps + 1)
    block = max(1, EINSUM_BLOCK // problem.dim)
    diffs = None if xstar is None else np.empty((block, problem.dim))

    def reduce(i):  # V of the block that ends at row i
        d = diffs[:i % block + 1]
        V[i - i % block:i + 1] = 0.5 * np.einsum("ij,ij->i", d, d)

    def record(i, xv):
        if keep_states:
            states[i] = xv
        if V is not None:
            j = i % block
            np.subtract(xv, xstar, out=diffs[j])
            if j == block - 1:
                reduce(i)

    record(0, x)
    done = 0  # steps taken
    status = "completed"
    try:
        for i in range(nsteps):
            t = i * h
            if config.scheme == "euler":
                x_next = x + h * f(t, x)
            else:
                k1 = f(t, x)
                k2 = stage(t + h / 2.0, x + (h / 2.0) * k1)
                k3 = stage(t + h / 2.0, x + (h / 2.0) * k2)
                k4 = stage(t + h, x + h * k3)
                x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x = require_bounded(x_next, limit, "flow state")
            done = i + 1
            record(done, x)
    except NumericFailure:
        status = STATUS_NUMERIC_FAILURE

    # t_i = i*h, one multiply of an exact integer, as the loop's t is
    tarr = np.arange(done + 1) * h
    xarr = states[:done + 1] if keep_states else x[None]
    envelope = None
    if V is not None:
        reduce(done)  # the last block (again, to the same bits, if it was full)
        if done < nsteps:  # a copy, so that the unused rows are freed
            V = V[:done + 1].copy()
        scaled_time = tarr if alpha is None else alpha.integral(tarr)
        # with a positive exponent the bound can overflow to inf, which is the
        # honest value of the envelope there (NaN where V[0] = 0); the exponent
        # is 0 where the scaled time is, as Lambda * 0 is NaN for an infinite
        # Lambda. Formed in place, so that no series beside t, V and this one is held
        envelope = Lam * scaled_time
        envelope[scaled_time == 0.0] = 0.0
        np.exp(envelope, out=envelope)
        envelope *= V[0]
    return FlowTrace(t=tarr, x=xarr, V=V, envelope=envelope,
                     Lambda=Lam, status=status, keep_states=keep_states)
