"""Ambient vector arithmetic and the QVI problem abstraction.

A problem couples an operator oracle F (with declared Lipschitz and strong
monotonicity constants) to a parametric projection oracle (x, z) -> P_{K(x)}(z)
(with a declared parametric Lipschitz constant). Everything downstream --
residuals, the Tseng vector field, the discrete schemes -- is built from these
two oracles through one step kernel: `forward_backward` plus `UPDATES`, and
`step` takes one step of any variant.

All vectors are dense 1-D float64 arrays. Problems and oracles are immutable
after construction and safe to share across workers; every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class ValidationError(ValueError):
    """Rejected input or configuration (dimension mismatch, bad constants, ...)."""


class NumericFailure(ArithmeticError):
    """An oracle produced NaN/Inf, or an iteration diverged."""


_FLOAT = np.dtype(float)
#: array kinds whose entries are not real numbers (see `as_number`) -> name
_NOT_REAL = {"b": "bool", "c": "complex", "U": "text", "S": "text"}
_BOOLS = frozenset((bool, np.bool_))


def _entry_types(values) -> set:
    """The types of the entries of a list or tuple, nested ones included; a
    nested array stands for its dtype's scalar type."""
    types = set(map(type, values))
    if not types.isdisjoint((list, tuple, np.ndarray)):
        for v in values:
            if isinstance(v, np.ndarray):
                types.add(v.dtype.type)
            elif isinstance(v, (list, tuple)):
                types |= _entry_types(v)
    return types


def _real_array(values) -> Array:
    """values as a float64 array, values itself when it is one. Bool, complex
    or text entries are a TypeError; other failures of float() propagate.
    The dtype tells most kinds, but numpy upcasts a bool among numbers in a
    list ([True, 1.0] gives [1., 1.]), and float() takes the bools and numpy
    complex scalars of an object array: lists and object arrays are read
    entry by entry."""
    a = np.asarray(values)
    if a is values and a.dtype is _FLOAT:
        return a
    kind = _NOT_REAL.get(a.dtype.kind)
    if kind is None:
        if isinstance(values, (list, tuple)):
            types = _entry_types(values)
        else:
            types = set(map(type, a.flat)) if a.dtype == object else ()
        if not _BOOLS.isdisjoint(types):
            kind = "bool"
        elif any(issubclass(t, np.complexfloating) for t in types):
            kind = "complex"
    if kind:
        raise TypeError(f"could not convert {kind} entries to float")
    return a.astype(float, copy=False)


def as_array(values, name: str, dim: Optional[int] = None, *, square: bool = False,
             fill: bool = False, allow_inf: bool = False) -> Array:
    """values as a float64 vector, or with square a square matrix, of length
    dim when given (with fill a scalar stands for dim equal entries), whose
    entries are finite, or with allow_inf (box bounds) not NaN. Anything else
    (None, text, bool or complex entries, a ragged list, a wrong shape) is a
    ValidationError that starts with name. May share memory with values."""
    try:
        a = _real_array(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: {exc}") from None
    if fill and a.ndim == 0:
        a = np.full(dim, a)
    if a.ndim != 1 + square or (square and a.shape[0] != a.shape[1]):
        want = "square matrix" if square else "1-D vector"
        raise ValidationError(f"{name}: expected a {want}, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValidationError(f"{name} length must be {dim}, got shape {a.shape}")
    if not (np.isfinite(a).all() or allow_inf and not np.isnan(a).any()):
        raise ValidationError(f"{name}: entries must be {'not NaN' if allow_inf else 'finite'}")
    return a


def as_vector(values, dim: Optional[int] = None, name: str = "x") -> Array:
    """`as_array`'s vector case, the one every solve and flow entry point runs."""
    return as_array(values, name, dim)


def set_readonly(obj, **arrays: Array) -> None:
    """Store a read-only copy of each array as that field of frozen dataclass obj."""
    for field, a in arrays.items():
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(obj, field, a)


def norm(v: Array) -> float:
    """Euclidean norm sqrt(<v, v>) of a 1-D float array; np.linalg.norm
    computes the same square root of the same dot product."""
    return math.sqrt(v.dot(v))


def require_finite(v: Array, what: str) -> Array:
    """v, if every entry is finite (else NumericFailure). A non-finite entry
    makes <v, v> non-finite, so the dot product is the test; only when it
    fails does the exact entrywise test run, because a finite v whose square
    overflows is still accepted. The dot product can overflow: callers run
    under np.errstate(over="ignore", invalid="ignore")."""
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise NumericFailure(f"{what} is not finite")
    return v


def as_number(value, name: str) -> float:
    """value as a float; a bool, a str or any other non-real (np.bool_ too)
    is a ValidationError naming it. An int beyond the float range is +-inf."""
    if type(value) is float:  # the common case costs one type test
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


#: the sign a finite x may be required to have -> its test (0 < x, 0 <= x)
_SIGN_TESTS = {"": lambda v: True, "positive": (0.0).__lt__, "nonnegative": (0.0).__le__}


def require_real(value, name: str, sign: str = "") -> float:
    """value as a finite float (see as_number), positive or nonnegative when
    sign says so, else a ValidationError naming it."""
    x = as_number(value, name)
    if not (math.isfinite(x) and _SIGN_TESTS[sign](x)):
        raise ValidationError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {x!r}")
    return x


def require_positive(value, name: str) -> float:
    return require_real(value, name, "positive")


def require_nonnegative(value, name: str) -> float:
    return require_real(value, name, "nonnegative")


def require_count(value, name: str) -> None:
    """Reject all but a positive int; a bool too, although it is an int subclass."""
    if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def oracle_result(value, dim: int, what: str) -> Array:
    """An oracle's output as a float vector of the right shape (else a
    ValidationError naming the oracle; bool, complex and text outputs too).
    Finiteness is left to the caller (see the step kernel)."""
    try:
        r = _real_array(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if r.shape != (dim,):
        raise ValidationError(f"{what} returned shape {r.shape}, expected ({dim},)")
    return r


#: decorates the one-shot entry points and the solve and flow loops: the dot
#: products of the finiteness tests, and x - lam*v, may overflow, and the
#: result is checked instead of warned about
ignore_overflow = np.errstate(over="ignore", invalid="ignore")


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

    at(x) returns the projector z -> P_{K(x)}(z) onto the set at one point;
    the step kernel takes it once per iterate and makes every projection at
    that point through it. Give one when building K(x) costs work that each
    projection at x would repeat, as `problems.moving_set` does with its
    shift; by default it is project with x fixed. at(x)(z) must give the
    bits project(x, z) gives, and keep no state between calls.
    """

    project: Callable[[Array, Array], Array]
    lip_l: float
    at: Optional[Callable[[Array], Callable[[Array], Array]]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        require_nonnegative(self.lip_l, "lip_l")
        if self.at is None:  # x -> (z -> project(x, z))
            object.__setattr__(self, "at", partial(partial, self.project))


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
        require_count(self.dim, "dim")
        if self.known_solution is not None:
            set_readonly(self, known_solution=as_array(self.known_solution, "known_solution",
                                                       self.dim))


# The public one-shot entry points raise NumericFailure for any non-finite
# oracle output: each checks what it returns, and what it passes on to a
# second oracle call.

@ignore_overflow
def evaluate_operator(problem: QviProblem, x) -> Array:
    """F(x). Deterministic for fixed x; rejects dimension mismatches."""
    return require_finite(_operator(problem, as_vector(x, problem.dim)), "operator oracle output")


@ignore_overflow
def project(problem: QviProblem, x, z) -> Array:
    """P_{K(x)}(z) via the problem's projection oracle."""
    x = as_vector(x, problem.dim, name="x")
    z = as_vector(z, problem.dim, name="z")
    return require_finite(_project(problem, problem.constraint.at(x), z),
                          "projection oracle output")


@ignore_overflow
def natural_residual(problem: QviProblem, x, lam: float) -> float:
    """||x - P_{K(x)}(x - lam*F(x))||; zero exactly at solutions of the QVI."""
    lam = require_positive(lam, "lambda")
    x = as_vector(x, problem.dim)
    y = forward_backward(problem, problem.constraint.at(x), x, lam)[1]
    return norm(x - require_finite(y, "projection oracle output"))


@ignore_overflow
def tseng_map(problem: QviProblem, x, lam: float) -> Array:
    """The forward-backward-forward vector field

        f(x) = y + lam*(F(x) - F(y)) - x,   y = P_{K(x)}(x - lam*F(x)).

    Solutions of the QVI are exactly its zeros. Costs one projection and two
    operator evaluations; F(x) is reused.
    """
    lam = require_positive(lam, "lambda")
    return require_finite(tseng_field(problem, as_vector(x, problem.dim), lam), "Tseng map")


@ignore_overflow
def step(problem: QviProblem, x, lam: float, variant: str = "tseng"):
    """One step of a scheme from x; returns (y, x_next), where

        y = P_{K(x)}(x - lam*F(x))

    is the forward-backward point every variant shares (||x - y|| is the
    natural residual) and x_next is the variant's update of it (`UPDATES`):
    tseng y + lam*(F(x) - F(y)), 2 operator calls and 1 projection;
    gradient_projection y itself, 1 and 1; extragradient
    P_{K(x)}(x - lam*F(y)), 2 and 2. K(x) is built once.
    """
    update = require_variant(variant)
    lam = require_positive(lam, "lambda")
    x = as_vector(x, problem.dim)
    P = problem.constraint.at(x)
    Fx, y = forward_backward(problem, P, x, lam)
    require_finite(y, "projection oracle output")
    return y, require_finite(update(problem, P, x, Fx, y, lam), "next iterate")


# The step kernel. Callers validate x and lam once, at entry, and take the
# projector P = problem.constraint.at(x) once per iterate: every projection at
# x goes through it, so extragradient's second projection reuses what the
# first one built (a moving set's shift). Every oracle output gets its shape
# checked here; finiteness is checked only where a value would reach an
# oracle, through a dot product: the projection argument x - lam*v here, y in
# tseng_field, and the residual, stage and divergence norms in the solve and
# flow loops. So no oracle ever receives a non-finite argument, and a
# non-finite output ends the run at the latest one step on.

def _operator(problem: QviProblem, x: Array) -> Array:
    return oracle_result(problem.operator.func(x), problem.dim, "operator oracle")


def _project(problem: QviProblem, P: Callable[[Array], Array], z: Array) -> Array:
    return oracle_result(P(z), problem.dim, "projection oracle")


def _project_step(problem: QviProblem, P: Callable[[Array], Array], x: Array, v: Array,
                  lam: float) -> Array:
    """P(x - lam*v), P the projector onto K(x). The argument is checked: v may
    be a non-finite oracle output, and x - lam*v can overflow from finite inputs."""
    z = require_finite(x - lam * v, "projection argument x - lambda*v")
    return _project(problem, P, z)


def forward_backward(problem: QviProblem, P: Callable[[Array], Array], x: Array, lam: float):
    """(F(x), y) with y = P(x - lam*F(x)), P = problem.constraint.at(x): one
    operator evaluation and one projection. x must be a finite float vector
    of the problem's dimension; F(x) is checked through the projection
    argument, y is not checked."""
    Fx = _operator(problem, x)
    return Fx, _project_step(problem, P, x, Fx, lam)


#: variant -> update(problem, P, x, F(x), y, lam) -> next iterate, given the
#: projector P onto K(x) and (F(x), y) from `forward_backward`
UPDATES = {
    "tseng": lambda p, P, x, Fx, y, lam: y + lam * (Fx - _operator(p, y)),
    "gradient_projection": lambda p, P, x, Fx, y, lam: y,
    "extragradient": lambda p, P, x, Fx, y, lam: _project_step(p, P, x, _operator(p, y), lam),
}
VARIANTS = tuple(UPDATES)


def require_variant(variant) -> Callable:
    """The update of variant, one of VARIANTS; any other value (an unhashable
    one too) is a ValidationError."""
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {'/'.join(VARIANTS)}, got {variant!r}")
    return UPDATES[variant]


def tseng_field(problem: QviProblem, x: Array, lam: float) -> Array:
    """`tseng_map` for an already validated x and lam. y is checked before
    F(y) is called; the returned field is not checked."""
    P = problem.constraint.at(x)
    Fx, y = forward_backward(problem, P, x, lam)
    require_finite(y, "projection oracle output")
    return UPDATES["tseng"](problem, P, x, Fx, y, lam) - x
