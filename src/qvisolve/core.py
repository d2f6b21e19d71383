"""Ambient vector arithmetic and the QVI problem abstraction.

A problem couples an operator oracle F (with declared Lipschitz and strong
monotonicity constants) to a parametric projection oracle (x, z) -> P_{K(x)}(z)
(with a declared parametric Lipschitz constant). Everything downstream --
residuals, the Tseng vector field, the discrete schemes -- is built from these
two oracles through one step kernel: `forward_backward` plus `UPDATES`.

All vectors are dense 1-D float64 arrays. Problems and oracles are immutable
after construction and safe to share across workers; every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class ValidationError(ValueError):
    """Rejected input or configuration (dimension mismatch, bad constants, ...)."""


class NumericFailure(ArithmeticError):
    """An oracle produced NaN/Inf, or an iteration diverged."""


def as_vector(values, dim: Optional[int] = None, name: str = "x") -> Array:
    """Coerce to a finite 1-D float64 array, optionally checking the dimension."""
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from None
    if v.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValidationError(
            f"{name}: dimension mismatch (expected {dim}, got {v.shape[0]})"
        )
    if not np.isfinite(v).all():
        raise ValidationError(f"{name}: entries must be finite (no NaN/Inf)")
    return v


def norm(v: Array) -> float:
    """Euclidean norm sqrt(<v, v>)."""
    return float(np.linalg.norm(v))


def require_positive(value, name: str) -> float:
    if not (np.isscalar(value) or isinstance(value, (int, float))):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return value


def format_float(value) -> str:
    """Shortest round-trip decimal form; shared by every CSV/JSON writer."""
    return repr(float(value))


def oracle_result(value, dim: int, what: str) -> Array:
    """Validate an oracle's output: right shape, and finite (else NumericFailure)."""
    r = np.asarray(value, dtype=float)
    if r.shape != (dim,):
        raise ValidationError(f"{what} returned shape {r.shape}, expected ({dim},)")
    if not np.isfinite(r).all():
        raise NumericFailure(f"{what} returned a non-finite value")
    return r


@dataclass(frozen=True)
class OperatorSpec:
    """Evaluation oracle for the operator F with its declared constants.

    The constants are declared by the builder, not estimated here; the test
    suite cross-checks them by sampling. Strong monotonicity together with
    Cauchy-Schwarz forces strong_rho <= lipschitz_L, so that is validated.
    """

    func: Callable[[Array], Array]
    lipschitz_L: float
    strong_rho: float

    def __post_init__(self):
        require_positive(self.lipschitz_L, "lipschitz_L")
        require_positive(self.strong_rho, "strong_rho")
        if self.strong_rho > self.lipschitz_L:
            raise ValidationError(
                f"strong_rho exceeds lipschitz_L "
                f"(rho={self.strong_rho}, L={self.lipschitz_L})"
            )


@dataclass(frozen=True)
class ConstraintSpec:
    """Parametric projection oracle (x, z) -> P_{K(x)}(z).

    lip_l is the declared constant of the parametric Lipschitz bound
    ||P_{K(x)}(z) - P_{K(y)}(z)|| <= lip_l * ||x - y||.
    """

    project: Callable[[Array, Array], Array]
    lip_l: float

    def __post_init__(self):
        if not (math.isfinite(self.lip_l) and self.lip_l >= 0.0):
            raise ValidationError(f"lip_l must be nonnegative and finite, got {self.lip_l!r}")


@dataclass(frozen=True)
class QviProblem:
    """A quasi-variational inequality: find x* in K(x*) with <F(x*), y - x*> >= 0
    for all y in K(x*)."""

    operator: OperatorSpec
    constraint: ConstraintSpec
    dim: int
    known_solution: Optional[Array] = None
    name: str = ""

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValidationError(f"dim must be a positive integer, got {self.dim!r}")
        if self.known_solution is not None:
            sol = as_vector(self.known_solution, self.dim, name="known_solution")
            sol = sol.copy()
            sol.setflags(write=False)
            object.__setattr__(self, "known_solution", sol)


def evaluate_operator(problem: QviProblem, x) -> Array:
    """F(x). Deterministic for fixed x; rejects dimension mismatches."""
    return _operator(problem, as_vector(x, problem.dim))


def project(problem: QviProblem, x, z) -> Array:
    """P_{K(x)}(z) via the problem's projection oracle."""
    x = as_vector(x, problem.dim, name="x")
    z = as_vector(z, problem.dim, name="z")
    return oracle_result(problem.constraint.project(x, z), problem.dim, "projection oracle")


def natural_residual(problem: QviProblem, x, lam: float) -> float:
    """||x - P_{K(x)}(x - lam*F(x))||; zero exactly at solutions of the QVI."""
    lam = require_positive(lam, "lambda")
    x = as_vector(x, problem.dim)
    return norm(x - forward_backward(problem, x, lam)[1])


def tseng_map(problem: QviProblem, x, lam: float) -> Array:
    """The forward-backward-forward vector field

        f(x) = y + lam*(F(x) - F(y)) - x,   y = P_{K(x)}(x - lam*F(x)).

    Solutions of the QVI are exactly its zeros. Costs one projection and two
    operator evaluations; F(x) is reused.
    """
    lam = require_positive(lam, "lambda")
    return tseng_field(problem, as_vector(x, problem.dim), lam)


# the step kernel: callers validate x and lam once, at entry; the kernel checks
# every array that crosses an oracle boundary

def _operator(problem: QviProblem, x: Array) -> Array:
    return oracle_result(problem.operator.func(x), problem.dim, "operator oracle")


def _project_step(problem: QviProblem, x: Array, v: Array, lam: float) -> Array:
    """P_{K(x)}(x - lam*v). The argument is checked because it is the one array
    computed here that can overflow from finite, checked inputs."""
    z = x - lam * v
    if not np.isfinite(z).all():
        raise NumericFailure("projection argument x - lambda*v is not finite")
    return oracle_result(problem.constraint.project(x, z), problem.dim, "projection oracle")


def forward_backward(problem: QviProblem, x: Array, lam: float):
    """(F(x), y) with y = P_{K(x)}(x - lam*F(x)): one operator evaluation and
    one projection. x must be a finite float vector of the problem's dimension."""
    Fx = _operator(problem, x)
    return Fx, _project_step(problem, x, Fx, lam)


#: variant -> update(problem, x, F(x), y, lam) -> next iterate, given
#: (F(x), y) from `forward_backward`
UPDATES = {
    "tseng": lambda p, x, Fx, y, lam: y + lam * (Fx - _operator(p, y)),
    "gradient_projection": lambda p, x, Fx, y, lam: y,
    "extragradient": lambda p, x, Fx, y, lam: _project_step(p, x, _operator(p, y), lam),
}


def tseng_field(problem: QviProblem, x: Array, lam: float) -> Array:
    """`tseng_map` for an already validated x and lam."""
    Fx, y = forward_backward(problem, x, lam)
    return UPDATES["tseng"](problem, x, Fx, y, lam) - x
