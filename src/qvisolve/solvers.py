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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional, Union

import numpy as np

from . import certify
from .core import (
    UPDATES,
    Array,
    NumericFailure,
    QviProblem,
    ValidationError,
    as_vector,
    format_float,
    forward_backward,
    norm,
    require_positive,
)

logger = logging.getLogger(__name__)

VARIANTS = tuple(UPDATES)

#: iterates with norm beyond this abort with numeric_failure
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
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValidationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be one of {'/'.join(VARIANTS)}, got {self.variant!r}"
            )


@dataclass
class IterationRecord:
    """State at iteration k. y is the projected point computed from x (also used
    for the residual); dist_to_solution is filled when the solution is known."""

    k: int
    x: Array
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
    def final(self) -> IterationRecord:
        return self.records[-1]

    def residuals(self) -> Array:
        return np.array([r.residual for r in self.records])

    def dists(self) -> Array:
        return np.array([
            np.nan if r.dist_to_solution is None else r.dist_to_solution
            for r in self.records
        ])


def _step(variant: str, problem: QviProblem, x, lam: float):
    lam = require_positive(lam, "lambda")
    x = as_vector(x, problem.dim)
    Fx, y = forward_backward(problem, x, lam)
    return y, UPDATES[variant](problem, x, Fx, y, lam)


def tseng_step(problem: QviProblem, x, lam: float):
    """One forward-backward-forward step; returns (y, x_next).

    Exactly one projection and two operator evaluations.
    """
    return _step("tseng", problem, x, lam)


def gradient_projection_step(problem: QviProblem, x, lam: float) -> Array:
    """x -> P_{K(x)}(x - lam*F(x)): one projection, one operator evaluation."""
    return _step("gradient_projection", problem, x, lam)[1]


def extragradient_step(problem: QviProblem, x, lam: float) -> Array:
    """y = P_{K(x)}(x - lam*F(x)); x -> P_{K(x)}(x - lam*F(y)):
    two projections, two operator evaluations."""
    return _step("extragradient", problem, x, lam)[1]


def _empirical_rate(records: List[IterationRecord], use_dist: bool) -> Optional[float]:
    # geometric mean of consecutive ratios, skipping near-zero denominators
    vals = [(r.dist_to_solution if use_dist else r.residual) for r in records]
    ratios = [b / a for a, b in zip(vals, vals[1:]) if a is not None and a >= 1e-14]
    if not ratios:
        return None
    if any(r == 0.0 for r in ratios):
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


def solve(problem: QviProblem, x0, config: SolverConfig) -> IterationTrace:
    """Run the selected variant from x0 until the natural residual drops to
    config.tol or config.max_iter steps have been taken.

    The trace records every visited iterate with its residual (and distance to
    the known solution, when present). empirical_rate is the geometric mean of
    consecutive distance ratios (residual ratios when no solution is known).
    certificate_warning is set when the discrete sufficient condition fails at
    this step size; the run proceeds regardless. Deterministic: identical
    inputs give identical traces bit for bit.
    """
    x = as_vector(x0, problem.dim, name="x0").copy()
    cert = certify.full_certificate(certify.ProblemConstants(
        L=problem.operator.lipschitz_L,
        rho=problem.operator.strong_rho,
        l=problem.constraint.lip_l,
        lam=config.lam,
    ))
    warning = not cert.discrete_ok
    if warning:
        logger.debug(
            "discrete sufficient condition unmet at lambda=%g (rate bound %.6g); solving anyway",
            config.lam, cert.rate_r,
        )
    xstar = problem.known_solution
    lam = config.lam
    update = UPDATES[config.variant]
    records: List[IterationRecord] = []
    status = STATUS_MAX_ITER
    try:
        for k in range(config.max_iter + 1):
            Fx, y = forward_backward(problem, x, lam)
            residual = norm(x - y)
            dist = norm(x - xstar) if xstar is not None else None
            records.append(IterationRecord(k, x, y, residual, dist))
            if residual <= config.tol:
                status = STATUS_CONVERGED
                break
            if k == config.max_iter:
                break
            x = update(problem, x, Fx, y, lam)
            if not norm(x) <= DIVERGENCE_LIMIT:  # catches NaN/Inf too
                status = STATUS_NUMERIC_FAILURE
                break
    except NumericFailure as exc:
        logger.debug("numeric failure at iteration %d: %s", len(records), exc)
        status = STATUS_NUMERIC_FAILURE
    rate = _empirical_rate(records, use_dist=xstar is not None)
    return IterationTrace(records, status, rate, warning, config.variant, config.lam)


# --------------------------------------------------------------------------
# CSV serialization (columns k,residual,dist_to_solution; metadata and warning
# flags in leading '#' comments)
# --------------------------------------------------------------------------

def write_lines(out: Union[str, Path, IO[str]], lines: List[str]) -> None:
    """Write LF-terminated UTF-8 lines to a path or file object."""
    text = "\n".join(lines) + "\n"
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)


def trace_to_csv(trace: IterationTrace, out: Union[str, Path, IO[str]]) -> None:
    lines = [
        f"# variant: {trace.variant}",
        f"# lambda: {format_float(trace.lam)}",
        f"# status: {trace.status}",
        f"# certificate_warning: {str(trace.certificate_warning).lower()}",
        "k,residual,dist_to_solution",
    ]
    for r in trace.records:
        dist = "" if r.dist_to_solution is None else format_float(r.dist_to_solution)
        lines.append(f"{r.k},{format_float(r.residual)},{dist}")
    write_lines(out, lines)


def read_csv(source: Union[str, Path, IO[str]]):
    """Split a CSV written by this package into (comments, header, rows): the
    stripped text of each '#' line, the first other line split on commas (None
    when absent) and every later line, unsplit. Empty lines are skipped."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    comments: List[str] = []
    header: Optional[List[str]] = None
    rows: List[str] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    return comments, header, rows


def comment_meta(comments: List[str]) -> dict:
    """'key: value' comment lines as a dict (a later key wins)."""
    return {k.strip(): v.strip() for k, _, v in (c.partition(":") for c in comments)}


def read_trace_csv(source: Union[str, Path, IO[str]]) -> dict:
    """Parse a trace CSV back into plain arrays plus its comment metadata."""
    comments, _, rows = read_csv(source)
    meta = comment_meta(comments)
    ks, residuals, dists = [], [], []
    for row in rows:
        k, residual, dist = row.split(",")
        ks.append(int(k))
        residuals.append(float(residual))
        dists.append(np.nan if dist == "" else float(dist))
    return {
        "variant": meta.get("variant"),
        "lambda": float(meta["lambda"]) if "lambda" in meta else None,
        "status": meta.get("status"),
        "certificate_warning": meta.get("certificate_warning") == "true",
        "k": np.array(ks, dtype=int),
        "residual": np.array(residuals),
        "dist_to_solution": np.array(dists),
    }
