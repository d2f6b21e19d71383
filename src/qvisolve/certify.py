"""Closed-form constants and sufficient conditions for the Tseng-type schemes.

Every derived quantity is a function of the declared constants (L, rho, l,
lambda, optionally beta): the contraction modulus theta of the projected step
map, the continuous-time exponent Lambda, the discrete alignment constant mu
and squared per-step rate bound r, the two uniqueness bounds on l, and the
moving-set condition. They are written once, in certificate_table, which
takes arrays and single numbers through one broadcast; full_certificate and
best_lambda are views of it, and solve and integrate read it directly.
Certificates report the conditions as data; solvers run regardless and only
tag their traces when a condition fails, because problems routinely converge
outside the certified regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import QviProblem, ValidationError, as_number


@dataclass(frozen=True)
class ProblemConstants:
    """Declared constants: operator Lipschitz L, strong monotonicity rho,
    parametric projection constant l, step size lambda, and (for moving-set
    problems) the shift Lipschitz constant beta."""

    L: float
    rho: float
    l: float
    lam: float
    beta: Optional[float] = None

    def __post_init__(self):
        L, rho, l, lam = (as_number(self.L, "L"), as_number(self.rho, "rho"),
                          as_number(self.l, "l"), as_number(self.lam, "lambda"))
        beta = None if self.beta is None else as_number(self.beta, "beta")
        error = constant_errors(L, rho, (lam,), (l,), (beta,))[0, 0, 0]
        if error is not None:
            raise ValidationError(error)

    @classmethod
    def of(cls, problem: QviProblem, lam: float) -> "ProblemConstants":
        """The constants a problem declares, at step size lam."""
        return cls(L=problem.operator.lipschitz_L, rho=problem.operator.strong_rho,
                   l=problem.constraint.lip_l, lam=lam)


@dataclass(frozen=True)
class Certificate:
    """All derived constants plus the sufficient-condition flags for one
    (L, rho, l, lambda[, beta]) tuple.

    Flags:
      existence_ok   l <= 1/(gamma*(gamma + sqrt(gamma^2 - 1))), the strict
                     uniqueness bound (gamma = L/rho)
      nesterov_ok    l <= 1/gamma, the weaker uniqueness bound
      continuous_ok  Lambda = (1+lam*L)(1+theta) - 2 < 0 (exponential flow decay)
      discrete_ok    ((1+theta)(1+lam*L) + 1)^2 < 4 - l^2 + 2l (linear rate r < 1)
      moving_ok      the discrete condition after substituting l = 2*beta,
                     against moving_rhs = 2*sqrt(1 - beta^2 + beta) - 1
      radicand_ok    1 - 2*lam*rho + lam^2 L^2 >= 0 (analytically always true)
    """

    gamma: float
    theta: float
    radicand: float
    mu: float
    Lambda: float
    rate_r: float
    existence_bound: float
    nesterov_bound: float
    discrete_rhs: float
    moving_rhs: Optional[float]
    existence_ok: bool
    nesterov_ok: bool
    continuous_ok: bool
    discrete_ok: bool
    moving_ok: bool
    radicand_ok: bool

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping; non-finite floats become null, and so does
        moving_rhs without a moving set."""
        out = {}
        for name in _FLOAT_FIELDS:
            v = getattr(self, name)
            out[name] = None if v is None or not math.isfinite(v) else float(v)
        for name in _FLAG_FIELDS:
            out[name] = bool(getattr(self, name))
        return out


_FLAG_FIELDS = tuple(f.name for f in fields(Certificate) if f.type == "bool")
_FLOAT_FIELDS = tuple(f.name for f in fields(Certificate) if f.type != "bool")


def constant_errors(L, rho, lams: Sequence, ls: Sequence, betas: Sequence) -> np.ndarray:
    """The first check that ProblemConstants(L, rho, l, lam, beta) fails, as
    its error text, or None, for every cell of the product lams x ls x betas:
    an object array of shape (len(lams), len(ls), len(betas)). Each check runs
    once per axis value. In order: L and rho positive and finite, rho <= L,
    l >= 0, lam > 0 and beta >= 0 (unless None), each finite, and a finite
    gamma = L/rho."""
    errors = np.empty((len(lams), len(ls), len(betas)), dtype=object)  # all None
    if not (math.isfinite(L) and L > 0):
        errors[...] = f"L must be positive and finite, got {L!r}"
    elif not (math.isfinite(rho) and rho > 0):
        errors[...] = f"rho must be positive and finite, got {rho!r}"
    elif rho > L:
        errors[...] = f"rho exceeds L (rho={rho}, L={L})"
    else:
        # a later check overwrites an earlier one's cells, so the last written
        # is the first in the order above
        if not L / rho < math.inf:
            errors[...] = f"gamma must be >= 1 and finite, got {L / rho!r}"
        for k, beta in enumerate(betas):
            if beta is not None and not (math.isfinite(beta) and beta >= 0):
                errors[:, :, k] = f"beta must be nonnegative and finite, got {beta!r}"
        for i, lam in enumerate(lams):
            if not (math.isfinite(lam) and lam > 0):
                errors[i] = f"lambda must be positive and finite, got {lam!r}"
        for j, l in enumerate(ls):
            if not (math.isfinite(l) and l >= 0):
                errors[:, j] = f"l must be nonnegative and finite, got {l!r}"
    return errors


def certificate_table(L, rho, l, lam, beta=math.nan) -> Dict[str, np.ndarray]:
    """The constants table of the README over (L, rho, l, lambda, beta),
    arrays or single numbers broadcast together: one array (a numpy scalar for
    single numbers) per Certificate field, plus f_lipschitz = (1+theta)(1+lam*L).

    The constants are taken as checked where they entered; only gamma = L/rho,
    which can overflow, is checked again. A NaN beta, the default, means no
    moving set; a negative radicand gives a NaN theta, which fails every
    condition. Squares use float_power, which rounds as libm pow (Python's
    float ** 2) does; x * x can differ in the last bit."""
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheaper
    L, rho, l, lam, beta = (a[()] for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (L, rho, l, lam, beta))))
    with np.errstate(all="ignore"):
        gamma = L / rho
        ok = (gamma >= 1.0) & (gamma < math.inf)
        if not ok.all():
            bad = np.asarray(gamma)[~ok]
            raise ValidationError(f"gamma must be >= 1 and finite, got {float(bad[0])!r}")
        # the strict and the relaxed upper bound on l for a unique solution
        existence_bound = 1.0 / (gamma * (gamma + np.sqrt(gamma * gamma - 1.0)))
        nesterov_bound = 1.0 / gamma
        lamL = lam * L
        rad = 1.0 - 2.0 * lam * rho + np.float_power(lamL, 2.0)
        root = np.sqrt(rad)
        theta = l + root
        mu = 0.5 - l * l / 2.0 - theta + l - lamL - lamL * theta
        product = (1.0 + lamL) * (1.0 + theta)
        Lam = product - 2.0
        delta = 4.0 - l * l + 2.0 * l
        moving_rhs = 2.0 * np.sqrt(1.0 - beta * beta + beta) - 1.0
        return {
            "gamma": gamma,
            "theta": theta,
            "radicand": rad,
            "mu": mu,
            "Lambda": Lam,
            "rate_r": 1.0 - 2.0 * mu + np.float_power(product, 2.0),
            "existence_bound": existence_bound,
            "nesterov_bound": nesterov_bound,
            "discrete_rhs": np.sqrt(delta) - 1.0,
            "moving_rhs": moving_rhs,
            # Lambda + 2, not the product itself: sweep CSVs carry this rounding
            "f_lipschitz": Lam + 2.0,
            "existence_ok": l <= existence_bound,
            "nesterov_ok": l <= nesterov_bound,
            "continuous_ok": Lam < 0.0,
            "discrete_ok": np.float_power(product + 1.0, 2.0) < delta,
            "moving_ok": (1.0 + (2.0 * beta + root)) * (1.0 + lamL) < moving_rhs,
            "radicand_ok": rad >= 0.0,
        }


def _certificate(entry: Dict[str, np.generic], moving: bool) -> Certificate:
    """One table entry, a numpy scalar per field, as plain floats and bools
    (no moving_rhs unless moving)."""
    # positional, which is cheaper: Certificate declares its floats first,
    # then its flags
    return Certificate(*[float(entry[name]) if name != "moving_rhs" or moving else None
                         for name in _FLOAT_FIELDS],
                       *[bool(entry[name]) for name in _FLAG_FIELDS])


def full_certificate(c: ProblemConstants) -> Certificate:
    """certificate_table at one constants tuple. moving_rhs/moving_ok are
    populated only when beta is present."""
    beta = math.nan if c.beta is None else c.beta
    return _certificate(certificate_table(c.L, c.rho, c.l, c.lam, beta), c.beta is not None)


def best_lambda(L: float, rho: float, l: float) -> Tuple[float, Certificate]:
    """Grid-search the step size minimizing the squared per-step rate bound r.

    The scan is a logarithmic grid on (0, 20*rho/L^2] (lower end 1e-6 of the
    upper end, 1001 points). r >= 1 for every admissible step size -- see the
    feasibility sweep -- so the minimizer is a principled default step size, not
    a certified linear rate; it is returned together with its certificate.
    Deterministic for fixed inputs; ties resolve to the smallest lambda, and a
    NaN rate is never picked unless it is the first.
    """
    ProblemConstants(L=L, rho=rho, l=l, lam=1.0)  # checks L, rho and l; the grid sets lambda
    upper = 20.0 * rho / (L * L) if L * L > 0.0 else math.inf
    if not (upper * 1e-6 > 0.0 and upper < math.inf):
        raise ValidationError(f"lambda grid (1e-6, 1] * 20*rho/L^2 leaves the float "
                              f"range: 20*rho/L^2 = {upper!r} for L={L!r}, rho={rho!r}")
    lams = np.geomspace(upper * 1e-6, upper, 1001)
    table = certificate_table(L, rho, l, lams)
    rates = table["rate_r"]
    best = 0 if math.isnan(rates[0]) else int(np.nanargmin(rates))
    return float(lams[best]), _certificate({k: v[best] for k, v in table.items()}, moving=False)
