"""Concrete QVI instances with closed-form projections and known constants.

Families:

* the truncated sequence-space example (sine-perturbed linear operator with a
  one-sided bound on the first coordinate that moves with the point),
* moving-set problems K(x) = shift(x) + K over a fixed box or ball, projected
  through the translation identity P_{shift+K}(z) = shift + P_K(z - shift),
* plain single-set VIs,
* a seeded affine generator whose constants hold by construction.

Problem descriptors can also be loaded from JSON; see `load_problem`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .core import (
    Array,
    ConstraintSpec,
    OperatorSpec,
    QviProblem,
    ValidationError,
    as_vector,
)


# --------------------------------------------------------------------------
# fixed convex sets with closed-form projections
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {z : lo <= z <= hi}; bounds may be +-inf."""

    lo: Array
    hi: Array

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box bounds must be 1-D arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
            raise ValidationError("box requires lo <= hi with no NaN")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_bounds(cls, n: int, lo, hi) -> "BoxSet":
        """Broadcast scalar bounds; None means unbounded on that side."""
        lo = -np.inf if lo is None else lo
        hi = np.inf if hi is None else hi
        return cls(np.broadcast_to(np.asarray(lo, float), (n,)).copy(),
                   np.broadcast_to(np.asarray(hi, float), (n,)).copy())

    def project(self, z) -> Array:
        return np.clip(z, self.lo, self.hi)


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball {z : ||z - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValidationError("ball center must be a finite 1-D array")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"ball radius must be positive, got {self.radius!r}")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    def project(self, z) -> Array:
        w = np.asarray(z, dtype=float) - self.center
        nw = np.linalg.norm(w)
        if nw <= self.radius:
            return np.array(z, dtype=float)
        return self.center + w * (self.radius / nw)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset."""

    matrix: Array
    offset: Array

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        offset = np.array(self.offset, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("matrix must be square")
        if offset.shape != (matrix.shape[0],):
            raise ValidationError("offset length must match the matrix size")
        matrix.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)

    def __call__(self, x: Array) -> Array:
        return self.matrix @ x + self.offset


# --------------------------------------------------------------------------
# moving sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingSetSpec:
    """Moving constraint family K(x) = shift(x) + K for a fixed closed convex K.

    shift_lipschitz is the declared Lipschitz constant of the shift map; the
    resulting parametric projection constant is 2 * shift_lipschitz.
    """

    shift: Callable[[Array], Array]
    shift_lipschitz: float
    base_projection: Callable[[Array], Array]

    def __post_init__(self):
        if not (np.isfinite(self.shift_lipschitz) and self.shift_lipschitz >= 0):
            raise ValidationError(
                f"shift_lipschitz must be nonnegative, got {self.shift_lipschitz!r}"
            )


def moving_set_project(spec: MovingSetSpec, x, z) -> Array:
    """P_{shift(x)+K}(z) = shift(x) + P_K(z - shift(x)) (translation identity).

    The caller checks the result; shapes are checked here, because a scalar
    from either oracle would broadcast into a result of the right shape."""
    m = np.asarray(spec.shift(x), dtype=float)
    if m.shape != np.shape(x):
        raise ValidationError(f"shift oracle returned shape {m.shape}, expected {np.shape(x)}")
    p = np.asarray(spec.base_projection(z - m), dtype=float)
    if p.shape != m.shape:
        raise ValidationError(f"base projection returned shape {p.shape}, expected {m.shape}")
    return m + p


def make_moving_set_problem(
    n: int,
    operator: OperatorSpec,
    spec: MovingSetSpec,
    known_solution=None,
    name: str = "moving_set",
) -> QviProblem:
    """QVI over K(x) = shift(x) + K with lip_l = 2 * shift_lipschitz."""
    constraint = ConstraintSpec(
        project=lambda x, z: moving_set_project(spec, x, z),
        lip_l=2.0 * spec.shift_lipschitz,
    )
    return QviProblem(operator=operator, constraint=constraint, dim=n,
                      known_solution=known_solution, name=name)


def make_single_set_problem(
    n: int,
    operator: OperatorSpec,
    base_projection: Callable[[Array], Array],
    known_solution=None,
    name: str = "vi",
) -> QviProblem:
    """Plain VI: the constraint set ignores x, so lip_l = 0."""
    constraint = ConstraintSpec(
        project=lambda x, z: np.asarray(base_projection(z), dtype=float),
        lip_l=0.0,
    )
    return QviProblem(operator=operator, constraint=constraint, dim=n,
                      known_solution=known_solution, name=name)


# --------------------------------------------------------------------------
# named instances
# --------------------------------------------------------------------------

def make_l2_example(n: int, alpha: float = 2.0) -> QviProblem:
    """Truncated sequence-space test problem.

    F(x)_i = alpha*x_i + |sin x_i| on R^n, constrained by
    K(x) = {y : y_0 >= x_0/10, y_k = 0 for k >= 1}, whose metric projection is
    the three-branch closed form (member points are fixed; otherwise the tail
    is zeroed and the first coordinate is floored at x_0/10). Constants:
    L = alpha+1, rho = alpha-1, lip_l = 1/10. The unique solution is the zero
    vector, which is exact for every truncation dimension because the
    constraint already pins all tail coordinates to zero.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not alpha > 1.0:
        raise ValidationError(
            f"alpha must exceed 1 (strong monotonicity alpha-1 must be positive), got {alpha!r}"
        )

    def op(x):
        return alpha * x + np.abs(np.sin(x))

    def proj(x, z):
        bound = x[0] / 10.0
        # membership and the z_0 comparison are exact: the zero-tail structure
        # is binary and the branch must be deterministic
        if z[0] >= bound and not np.any(z[1:]):
            return z.copy()
        out = np.zeros_like(z)
        out[0] = bound if z[0] < bound else z[0]
        return out

    return QviProblem(
        operator=OperatorSpec(op, lipschitz_L=alpha + 1.0, strong_rho=alpha - 1.0),
        constraint=ConstraintSpec(proj, lip_l=0.1),
        dim=n,
        known_solution=np.zeros(n),
        name=f"l2_example(n={n}, alpha={alpha})",
    )


def make_halfline_vi() -> QviProblem:
    """1-D test VI: K = [1, inf), F(x) = x, solution x* = 1."""
    box = BoxSet.from_bounds(1, 1.0, None)
    op = OperatorSpec(AffineMap(np.eye(1), np.zeros(1)), lipschitz_L=1.0, strong_rho=1.0)
    return make_single_set_problem(1, op, box.project,
                                   known_solution=np.array([1.0]), name="halfline_vi")


def make_affine_qvi(n: int, seed: int, rho_target: float, L_target: float,
                    beta: float) -> QviProblem:
    """Seeded affine QVI with certified constants and a known solution.

    F(x) = A x + b with A = rho*I + (L-rho)*S, where S is a random symmetric
    PSD matrix of unit spectral norm, so the declared rho and L hold by
    construction (and L is attained). The constraint is the unit ball shifted
    by beta*C x for a random linear C of unit spectral norm. b = -A @ x_target
    for a seeded point well inside K(x_target), making x_target the exact
    solution. Deterministic in (n, seed, constants).
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not (0 < rho_target <= L_target):
        raise ValidationError(
            f"need 0 < rho_target <= L_target, got rho={rho_target!r}, L={L_target!r}"
        )
    if not beta >= 0:
        raise ValidationError(f"beta must be nonnegative, got {beta!r}")

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(size=n)
    eigs = eigs / eigs.max()
    s = (q * eigs) @ q.T
    a = rho_target * np.eye(n) + (L_target - rho_target) * s

    c = rng.standard_normal((n, n))
    c = c / np.linalg.svd(c, compute_uv=False)[0]

    g = rng.standard_normal(n)
    x_target = (0.5 / (1.0 + beta)) * g / np.linalg.norm(g)
    b = -a @ x_target

    spec = MovingSetSpec(
        shift=AffineMap(beta * c, np.zeros(n)),
        shift_lipschitz=beta,
        base_projection=BallSet(np.zeros(n), 1.0).project,
    )
    operator = OperatorSpec(AffineMap(a, b), lipschitz_L=L_target, strong_rho=rho_target)
    return make_moving_set_problem(
        n, operator, spec, known_solution=x_target,
        name=f"affine_qvi(n={n}, seed={seed}, beta={beta})",
    )


def make_moving_box_problem(n: int = 4, shift_scale: float = 0.1) -> QviProblem:
    """Moving box K(x) = shift_scale*x + [-1, 1]^n with F(x) = x; solution 0."""
    spec = MovingSetSpec(
        shift=AffineMap(shift_scale * np.eye(n), np.zeros(n)),
        shift_lipschitz=abs(shift_scale),
        base_projection=BoxSet.from_bounds(n, -1.0, 1.0).project,
    )
    op = OperatorSpec(AffineMap(np.eye(n), np.zeros(n)), lipschitz_L=1.0, strong_rho=1.0)
    return make_moving_set_problem(n, op, spec, known_solution=np.zeros(n),
                                   name=f"moving_box(n={n}, scale={shift_scale})")


def default_problem_suite() -> list[QviProblem]:
    """The built-in instances exercised by the property-test suite."""
    return [
        make_l2_example(50, 2.0),
        make_halfline_vi(),
        make_moving_box_problem(4, 0.1),
        make_affine_qvi(6, seed=7, rho_target=1.0, L_target=3.0, beta=0.1),
        make_affine_qvi(4, seed=11, rho_target=0.5, L_target=2.0, beta=0.0),
    ]


# --------------------------------------------------------------------------
# JSON problem descriptors
# --------------------------------------------------------------------------

def _number(d: dict, key: str, default, integer: bool = False, where: str = ""):
    """d[key] as a finite float (an int when integer), or default when the key
    is absent or null; anything else, a bool too, is a ValidationError."""
    value = d.get(key)
    if value is None:
        return default
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) <= sys.float_info.max):
        kind = "an integer" if integer else "a finite number"
        raise ValidationError(f"{where}{key} must be {kind}, got {value!r}")
    return value if integer else float(value)


def _array(d: dict, key: str, default, shape=None, where: str = "") -> Array:
    """d[key] (default when absent or null) as a float array, broadcast to
    shape when one is given; a ValidationError names the field otherwise."""
    value = d.get(key)
    try:
        a = np.asarray(default if value is None else value, dtype=float)
        return a if shape is None else np.broadcast_to(a, shape).copy()
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}{key}: {exc}") from None


def _set_from_descriptor(n: int, doc: dict, key: str):
    d = doc.get(key) or {}
    if not isinstance(d, dict):
        raise ValidationError(f"{key} must be an object, got {d!r}")
    where = key + "."
    kind = d.get("type")
    if kind == "box":
        return BoxSet(_array(d, "lo", -np.inf, (n,), where), _array(d, "hi", np.inf, (n,), where))
    if kind == "ball":
        return BallSet(_array(d, "center", 0.0, (n,), where), _number(d, "radius", 1.0, where=where))
    raise ValidationError(f"{where}type must be 'box' or 'ball', got {kind!r}")


def _operator_from_descriptor(n: int, d) -> OperatorSpec:
    if d is None or d == "identity":
        return OperatorSpec(AffineMap(np.eye(n), np.zeros(n)), 1.0, 1.0)
    if not isinstance(d, dict):
        raise ValidationError(f"operator must be 'identity' or an object, got {d!r}")
    where = "operator."
    matrix = _array(d, "matrix", np.eye(n), where=where)
    amap = AffineMap(matrix, _array(d, "offset", np.zeros(n), where=where))
    if matrix.shape != (n, n):
        raise ValidationError(f"operator.matrix must be {n}x{n}, got {matrix.shape}")
    L = _number(d, "L", None, where=where)
    rho = _number(d, "rho", None, where=where)
    if L is None:
        L = float(np.linalg.svd(matrix, compute_uv=False)[0])
    if rho is None:
        rho = float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])
    if rho <= 0:
        raise ValidationError(
            f"operator is not strongly monotone (min symmetric eigenvalue {rho:g})"
        )
    return OperatorSpec(amap, lipschitz_L=L, strong_rho=rho)


def load_problem(source: Union[dict, str, Path]) -> QviProblem:
    """Build a QviProblem from a JSON descriptor (dict, JSON text, or a path).

    Schema: {"family": "l2_example" | "affine" | "moving_set" | "single_set_vi",
    plus family parameters}; see the README for the exact fields. Text that
    starts with '{' is parsed as inline JSON, anything else as a path.
    """
    if isinstance(source, (str, Path)):
        text = str(source)
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.is_file():
                raise ValidationError(f"problem: file not found: {path}")
            text = path.read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"problem: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"problem: expected a JSON object, got {type(doc).__name__}")
    else:
        doc = dict(source)

    family = doc.get("family")
    n = _number(doc, "n", None, integer=True)
    if n is None or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")

    if family == "l2_example":
        return make_l2_example(n, _number(doc, "alpha", 2.0))

    if family == "affine":
        return make_affine_qvi(
            n,
            seed=_number(doc, "seed", 0, integer=True),
            rho_target=_number(doc, "rho", 1.0),
            L_target=_number(doc, "L", 1.0),
            beta=_number(doc, "beta", 0.0),
        )

    known = doc.get("known_solution")
    if known is not None:
        known = as_vector(known, n, name="known_solution")

    if family == "moving_set":
        base = _set_from_descriptor(n, doc, "base_set")
        scale = _number(doc, "shift_scale", 0.0)
        spec = MovingSetSpec(
            shift=AffineMap(scale * np.eye(n), _array(doc, "shift_offset", 0.0, (n,))),
            shift_lipschitz=abs(scale),
            base_projection=base.project,
        )
        op = _operator_from_descriptor(n, doc.get("operator"))
        return make_moving_set_problem(n, op, spec, known_solution=known,
                                       name=f"moving_set(n={n}, scale={scale})")

    if family == "single_set_vi":
        base = _set_from_descriptor(n, doc, "set")
        op = _operator_from_descriptor(n, doc.get("operator"))
        return make_single_set_problem(n, op, base.project, known_solution=known,
                                       name=f"single_set_vi(n={n})")

    raise ValidationError(
        f"family must be one of l2_example/affine/moving_set/single_set_vi, got {family!r}"
    )
