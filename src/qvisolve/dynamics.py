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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Tuple, Union

import numpy as np

from . import certify
from .core import (
    Array,
    NumericFailure,
    QviProblem,
    ValidationError,
    as_vector,
    format_float,
    require_positive,
    tseng_field,
    tseng_map,
)
from .solvers import DIVERGENCE_LIMIT, comment_meta, read_csv, write_lines

SCHEMES = ("euler", "rk4")


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
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) != len(values) or not times:
            raise ValidationError("alpha schedule needs matching, nonempty times/values")
        if times[0] != 0.0:
            raise ValidationError("alpha schedule must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("alpha schedule times must increase strictly")
        if any(not (math.isfinite(v) and v >= 0.0) for v in values):
            raise ValidationError("alpha values must be nonnegative and finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float) -> "AlphaSchedule":
        return cls((0.0,), (float(value),))

    def __call__(self, t: float) -> float:
        idx = bisect.bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]

    def integral(self, t: float) -> float:
        """Exact \\int_0^t alpha(s) ds for the piecewise-constant table."""
        total = 0.0
        for i, (start, value) in enumerate(zip(self.times, self.values)):
            if t <= start:
                break
            end = self.times[i + 1] if i + 1 < len(self.times) else math.inf
            total += value * (min(t, end) - start)
        return total


@dataclass(frozen=True)
class FlowConfig:
    lam: float
    h: float
    t_end: float
    scheme: str = "euler"
    alpha: Optional[AlphaSchedule] = None

    def __post_init__(self):
        require_positive(self.lam, "lambda")
        require_positive(self.h, "h")
        require_positive(self.t_end, "t_end")
        if self.h > self.t_end:
            raise ValidationError(f"h must not exceed t_end (h={self.h}, t_end={self.t_end})")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {'/'.join(SCHEMES)}, got {self.scheme!r}")


@dataclass
class FlowTrace:
    """Samples of one trajectory, recorded at every step starting from t = 0.

    V and envelope are filled when the problem has a known solution; the
    envelope exponent is Lambda * \\int_0^t alpha (which reduces to Lambda*t
    for alpha == 1).
    """

    t: Array
    x: Array
    V: Optional[Array]
    envelope: Optional[Array]
    Lambda: float
    status: str


def rhs(problem: QviProblem, x, lam: float, t: float = 0.0,
        alpha: Optional[AlphaSchedule] = None) -> Array:
    """alpha(t) * f(x) with f the Tseng-type vector field; alpha omitted means 1."""
    v = tseng_map(problem, x, lam)
    return v if alpha is None else alpha(t) * v


def integrate(problem: QviProblem, x0, config: FlowConfig) -> FlowTrace:
    """Fixed-step integration from x(0) = x0; t_end is rounded to the nearest
    whole number of steps of size h. Deterministic; numeric failures (NaN/Inf
    or norm beyond the divergence limit) stop early with a partial trace."""
    x = as_vector(x0, problem.dim, name="x0").copy()
    h, lam, alpha = config.h, config.lam, config.alpha
    nsteps = max(1, int(round(config.t_end / h)))

    def f(t, xv):
        v = tseng_field(problem, xv, lam)
        return v if alpha is None else alpha(t) * v

    ts = [0.0]
    xs = [x]
    status = "completed"
    try:
        for i in range(nsteps):
            t = i * h
            if config.scheme == "euler":
                x = x + h * f(t, x)
            else:
                k1 = f(t, x)
                k2 = f(t + h / 2.0, x + (h / 2.0) * k1)
                k3 = f(t + h / 2.0, x + (h / 2.0) * k2)
                k4 = f(t + h, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.linalg.norm(x) <= DIVERGENCE_LIMIT:  # catches NaN/Inf too
                status = "numeric_failure"
                break
            ts.append((i + 1) * h)
            xs.append(x)
    except NumericFailure:
        status = "numeric_failure"

    tarr = np.array(ts)
    xarr = np.array(xs)
    cert = certify.full_certificate(certify.ProblemConstants(
        L=problem.operator.lipschitz_L,
        rho=problem.operator.strong_rho,
        l=problem.constraint.lip_l,
        lam=lam,
    ))
    V = envelope = None
    if problem.known_solution is not None:
        diff = xarr - problem.known_solution
        V = 0.5 * np.einsum("ij,ij->i", diff, diff)
        if alpha is None:
            scaled_time = tarr
        else:
            scaled_time = np.array([alpha.integral(tv) for tv in tarr])
        # with a positive exponent the bound can overflow to inf; that is the
        # honest value of the envelope there
        with np.errstate(over="ignore"):
            envelope = V[0] * np.exp(cert.Lambda * scaled_time)
    return FlowTrace(t=tarr, x=xarr, V=V, envelope=envelope,
                     Lambda=cert.Lambda, status=status)


# --------------------------------------------------------------------------
# CSV serialization (t,V,envelope; coordinates behind a flag)
# --------------------------------------------------------------------------

def flow_to_csv(trace: FlowTrace, out: Union[str, Path, IO[str]],
                include_coords: bool = False) -> None:
    dim = trace.x.shape[1]
    header = ["t", "V", "envelope"]
    if include_coords:
        header += [f"x{i}" for i in range(dim)]
    lines = [
        f"# status: {trace.status}",
        f"# Lambda: {format_float(trace.Lambda)}",
        ",".join(header),
    ]
    for i, t in enumerate(trace.t):
        row = [format_float(t)]
        row.append("" if trace.V is None else format_float(trace.V[i]))
        row.append("" if trace.envelope is None else format_float(trace.envelope[i]))
        if include_coords:
            row += [format_float(v) for v in trace.x[i]]
        lines.append(",".join(row))
    write_lines(out, lines)


def read_flow_csv(source: Union[str, Path, IO[str]]) -> dict:
    comments, header, rows = read_csv(source)
    meta = comment_meta(comments)
    data = (np.array([[np.nan if c == "" else float(c) for c in row.split(",")] for row in rows])
            if rows else np.empty((0, len(header or []))))
    out = {
        "status": meta.get("status"),
        "Lambda": float(meta["Lambda"]) if "Lambda" in meta else None,
        "t": data[:, 0] if data.size else np.array([]),
        "V": data[:, 1] if data.size else np.array([]),
        "envelope": data[:, 2] if data.size else np.array([]),
    }
    if header is not None and len(header) > 3:
        out["x"] = data[:, 3:]
    return out
