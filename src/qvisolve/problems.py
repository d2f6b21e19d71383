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
import math
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
    as_array,
    norm,
    oracle_result,
    require_count,
    require_nonnegative,
    require_positive,
    require_real,
    set_readonly,
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
        lo = as_array(self.lo, "box lo", allow_inf=True)
        hi = as_array(self.hi, "box hi", allow_inf=True)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValidationError("box lo and hi must be of equal length, with lo <= hi")
        set_readonly(self, lo=lo, hi=hi)

    @classmethod
    def from_bounds(cls, n: int, lo, hi) -> "BoxSet":
        """A scalar bound stands for n equal ones; None is unbounded on that side."""
        n = require_count(n, "n")
        return cls(as_array(-np.inf if lo is None else lo, "box lo", n, fill=True, allow_inf=True),
                   as_array(np.inf if hi is None else hi, "box hi", n, fill=True, allow_inf=True))

    def project(self, z) -> Array:
        return np.clip(z, self.lo, self.hi)


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball {z : ||z - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        require_positive(self.radius, "ball radius")
        set_readonly(self, center=as_array(self.center, "ball center"))

    def project(self, z) -> Array:
        w = np.asarray(z, dtype=float) - self.center
        nw = norm(w)
        if nw <= self.radius:
            return np.array(z, dtype=float)
        if not math.isfinite(nw) and np.isfinite(w).all():
            # <w, w> overflowed (|w| beyond about 1.34e154): scale w to its
            # largest entry first, else the radius/inf factor gives the centre
            w = w / np.abs(w).max()
            nw = norm(w)
        return self.center + w * (self.radius / nw)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset."""

    matrix: Array
    offset: Array

    def __post_init__(self):
        matrix = as_array(self.matrix, "matrix", square=True)
        set_readonly(self, matrix=matrix, offset=as_array(self.offset, "offset", len(matrix)))

    def __call__(self, x: Array) -> Array:
        return self.matrix @ x + self.offset


# --------------------------------------------------------------------------
# moving sets
# --------------------------------------------------------------------------

def _shift_constant(value, name: str) -> None:
    """Reject all but a nonnegative finite Lipschitz constant of a moving
    set's shift whose double, the set's parametric constant l, is finite."""
    if not math.isfinite(2.0 * require_nonnegative(value, name)):
        raise ValidationError(f"{name} must be at most half the float range in magnitude, "
                              f"got {value!r}")


def moving_set(shift: Callable[[Array], Array], shift_lipschitz: float,
               base_projection: Callable[[Array], Array]) -> ConstraintSpec:
    """Moving constraint K(x) = shift(x) + K for a fixed closed convex K, projected
    through the translation identity P_{shift(x)+K}(z) = shift(x) + P_K(z - shift(x)).

    shift_lipschitz is the declared Lipschitz constant of the shift map; the
    parametric projection constant is lip_l = 2 * shift_lipschitz. The
    projector at x evaluates and checks m = shift(x) once and projects any
    number of points z through it, so the step kernel calls shift once per
    iterate. Both oracles' output shapes are checked, because a scalar from
    either would broadcast into a result of the right shape.
    """
    _shift_constant(shift_lipschitz, "shift_lipschitz")

    def at(x):
        n = len(x)
        m = oracle_result(shift(x), n, "shift oracle")
        return lambda z: m + oracle_result(base_projection(z - m), n, "base projection")

    return ConstraintSpec(lambda x, z: at(x)(z), 2.0 * shift_lipschitz, at)


# --------------------------------------------------------------------------
# named instances
# --------------------------------------------------------------------------

#: the least n at which the l2 example's F tests for a zero tail before its
#: sine. Below it the test and the slices cost more than the sines they save:
#: at a point of K(x), best of 9 on a 2-vCPU VM (numpy 2.4.6), F took 8.7 us
#: through the test against 7.6 us without at n = 512, 9.0 against 11.2 us at
#: 1024, and 6.1 against 22.3 us at 4096. 4096 leaves a margin for that
#: crossover moving with the machine
_L2_SUPPORT_MIN_N = 4096


def make_l2_example(n: int, alpha: float = 2.0) -> QviProblem:
    """Truncated sequence-space test problem.

    F(x)_i = alpha*x_i + |sin x_i| on R^n, constrained by
    K(x) = {y : y_0 >= x_0/10, y_k = 0 for k >= 1}, whose metric projection is
    the three-branch closed form (member points are fixed; otherwise the tail
    is zeroed and the first coordinate is floored at x_0/10). Constants:
    L = alpha+1, rho = alpha-1, lip_l = 1/10. The unique solution is the zero
    vector, which is exact for every truncation dimension because the
    constraint already pins all tail coordinates to zero. From n =
    _L2_SUPPORT_MIN_N on, F at a point with a zero tail, as every point of
    K(x) has, evaluates one sine; its bits are those of the dense formula.
    """
    n = require_count(n, "n")
    if not require_real(alpha, "alpha") > 1.0:
        raise ValidationError(f"alpha must exceed 1 (so that rho = alpha - 1 > 0), got {alpha!r}")

    def op(x):
        return alpha * x + np.abs(np.sin(x))

    def op_on_support(x):
        # every point of K(x) has a zero tail, where alpha*(+-0) + |sin(+-0)|
        # is +0.0: evaluate entry 0 alone, by the same ufuncs, and skip the
        # n - 1 sines. x[-1] is the O(1) test that rejects most other points
        if x[-1] == 0.0 and not x[1:].any():
            out = np.zeros(x.shape)
            out[:1] = alpha * x[:1] + np.abs(np.sin(x[:1]))
            return out
        return op(x)

    def proj(x, z):
        bound = x[0] / 10.0
        # membership and the z_0 comparison are exact: the zero-tail structure
        # is binary and the branch must be deterministic
        if z[0] >= bound and not z[1:].any():
            return z.copy()
        out = np.zeros(z.shape)
        out[0] = bound if z[0] < bound else z[0]
        return out

    return QviProblem(
        operator=OperatorSpec(op_on_support if n >= _L2_SUPPORT_MIN_N else op,
                              lipschitz_L=alpha + 1.0, strong_rho=alpha - 1.0),
        constraint=ConstraintSpec(proj, lip_l=0.1),
        dim=n,
        known_solution=np.zeros(n),
        name=f"l2_example(n={n}, alpha={alpha})",
    )


def make_halfline_vi() -> QviProblem:
    """1-D test VI: K = [1, inf), F(x) = x, solution x* = 1."""
    return load_problem({"family": "single_set_vi", "n": 1, "set": {"type": "box", "lo": 1.0},
                         "known_solution": [1.0]})


def make_affine_qvi(n: int, seed: int, rho_target: float, L_target: float,
                    beta: float) -> QviProblem:
    """Seeded affine QVI with certified constants and a known solution.

    F(x) = A x + b with A = rho*I + (L-rho)*S, where S is a random symmetric
    PSD matrix of unit spectral norm, so the declared rho and L hold by
    construction (and L is attained). The constraint is the unit ball shifted
    by beta*C x for a random linear C of unit spectral norm. b = -A @ x_target
    for a seeded point well inside K(x_target), making x_target the exact
    solution. Deterministic in (n, seed, constants).

    The problem holds two n x n matrices, A and beta*C. Each n x n temporary
    is dropped as soon as it has been used, so the build peaks at about four,
    set by the copies inside np.linalg.qr.
    """
    n = require_count(n, "n")
    seed = require_count(seed, "seed", least=0)
    if require_positive(rho_target, "rho_target") > require_positive(L_target, "L_target"):
        raise ValidationError(f"rho_target exceeds L_target (rho={rho_target!r}, L={L_target!r})")
    _shift_constant(beta, "beta")

    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = rng.uniform(size=n)
    eigs = eigs / eigs.max()
    a = (q * eigs) @ q.T  # S
    del q
    a *= L_target - rho_target
    a += 0.0  # as rho*I + (L-rho)*S does: an off-diagonal -0.0 becomes +0.0
    a.flat[:: n + 1] += rho_target

    c = rng.standard_normal((n, n))
    c /= np.linalg.svd(c, compute_uv=False)[0]
    c *= beta
    shift = AffineMap(c, np.zeros(n))
    del c

    g = rng.standard_normal(n)
    x_target = (0.5 / (1.0 + beta)) * g / np.linalg.norm(g)
    b = -a @ x_target

    return QviProblem(
        operator=OperatorSpec(AffineMap(a, b), lipschitz_L=L_target, strong_rho=rho_target),
        constraint=moving_set(shift, beta, BallSet(np.zeros(n), 1.0).project),
        dim=n,
        known_solution=x_target,
        name=f"affine_qvi(n={n}, seed={seed}, beta={beta})",
    )


def make_moving_box_problem(n: int = 4, shift_scale: float = 0.1) -> QviProblem:
    """Moving box K(x) = shift_scale*x + [-1, 1]^n with F(x) = x; solution 0."""
    n = require_count(n, "n")
    require_real(shift_scale, "shift_scale")
    return load_problem({"family": "moving_set", "n": n,
                         "base_set": {"type": "box", "lo": -1.0, "hi": 1.0},
                         "shift_scale": shift_scale, "known_solution": np.zeros(n)})


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

#: declared L >= (1 - slack) * ||A|| and rho <= lambda_min(sym A) + slack * ||A||
CONSTANT_SLACK = 1e-9
#: the most entries a descriptor's arrays may have (800 MB of float64): n*n
#: for the matrices of an affine descriptor or an operator.matrix, n for the
#: vectors of any other
MAX_DESCRIPTOR_ENTRIES = 100_000_000
#: the fields a descriptor of each family takes; any other is rejected
_FAMILY_FIELDS = {
    "l2_example": ("family", "n", "alpha"),
    "affine": ("family", "n", "seed", "rho", "L", "beta"),
    "moving_set": ("family", "n", "base_set", "shift_scale", "shift_offset", "operator",
                   "known_solution"),
    "single_set_vi": ("family", "n", "set", "operator", "known_solution"),
}
_SET_FIELDS = {"box": ("type", "lo", "hi"), "ball": ("type", "center", "radius")}
_OPERATOR_FIELDS = ("matrix", "offset", "L", "rho")


def _get(d: dict, key: str, default):
    """d[key], or default when it is absent or null."""
    value = d.get(key)
    return default if value is None else value


def _number(d: dict, key: str, default, where: str = "", sign: str = "") -> float:
    """d[key] as a finite float (default when absent or null), positive or
    nonnegative when sign says so; n and seed, the integer fields, are
    checked where they are used."""
    return require_real(_get(d, key, default), where + key, sign)


def _check_fields(d: dict, fields, where: str) -> None:
    """A key of d that is not in fields is a ValidationError naming its path."""
    for key in d:
        if key not in fields:
            raise ValidationError(f"{where}{key}: unknown field, expected one of "
                                  f"{', '.join(fields)}")


def _set_from_descriptor(n: int, doc: dict, key: str):
    d = _get(doc, key, {})
    if not isinstance(d, dict):
        raise ValidationError(f"{key} must be an object, got {d!r}")
    where = key + "."
    kind = d.get("type")
    if not (isinstance(kind, str) and kind in _SET_FIELDS):
        raise ValidationError(f"{where}type must be 'box' or 'ball', got {kind!r}")
    _check_fields(d, _SET_FIELDS[kind], where)
    if kind == "box":
        lo = as_array(_get(d, "lo", -np.inf), where + "lo", n, fill=True, allow_inf=True)
        hi = as_array(_get(d, "hi", np.inf), where + "hi", n, fill=True, allow_inf=True)
        if np.any(lo > hi):
            i = int(np.argmax(lo > hi))
            raise ValidationError(f"{where}lo exceeds {where}hi at index {i}: "
                                  f"{float(lo[i])!r} > {float(hi[i])!r}")
        return BoxSet(lo, hi)
    center = as_array(_get(d, "center", 0.0), where + "center", n, fill=True)
    return BallSet(center, _number(d, "radius", 1.0, where=where, sign="positive"))


def _scaled(scale: float, offset: Array) -> Callable[[Array], Array]:
    """x -> scale * x + offset, elementwise: (scale*I) @ x + offset without the
    n x n matrix. The offset is a read-only copy with each -0.0 made +0.0, so
    that a zero sum comes out +0.0, as the matrix product gives it."""
    offset = offset + 0.0
    offset.setflags(write=False)
    return lambda x: scale * x + offset


def _operator_from_descriptor(n: int, d) -> OperatorSpec:
    if d is None or d == "identity":
        d = {}
    elif not isinstance(d, dict):
        raise ValidationError(f"operator must be 'identity' or an object, got {d!r}")
    where = "operator."
    _check_fields(d, _OPERATOR_FIELDS, where)
    matrix = d.get("matrix")
    if matrix is not None:
        matrix = as_array(matrix, where + "matrix", n, square=True)
    offset = as_array(_get(d, "offset", np.zeros(n)), where + "offset", n)
    if matrix is None:  # the identity, whose norm and smallest eigenvalue are exactly 1
        func, sigma, eig_min, what = _scaled(1.0, offset), 1.0, 1.0, "identity"
    else:
        func, what = AffineMap(matrix, offset), "matrix"
        sigma = float(np.linalg.svd(matrix, compute_uv=False)[0])
        with np.errstate(over="ignore"):
            sym = 0.5 * (matrix + matrix.T)
        if not (math.isfinite(sigma) and np.isfinite(sym).all()):
            raise ValidationError("operator.matrix is too large: its norm or its symmetric part "
                                  "overflows the float range")
        eig_min = float(np.linalg.eigvalsh(sym)[0])
    L = _number(d, "L", sigma, where=where)
    rho = _number(d, "rho", eig_min, where=where)
    if L < (1.0 - CONSTANT_SLACK) * sigma:
        raise ValidationError(f"operator.L = {L!r} is below the {what}'s norm {sigma!r}")
    if rho > eig_min + CONSTANT_SLACK * sigma:
        raise ValidationError(f"operator.rho = {rho!r} exceeds the smallest eigenvalue of the "
                              f"{what}'s symmetric part, {eig_min!r}")
    if rho <= 0:
        raise ValidationError(
            f"operator.rho must be positive, got {rho!r}" if d.get("rho") is not None
            else f"operator is not strongly monotone (min symmetric eigenvalue {rho:g})"
        )
    return OperatorSpec(func, lipschitz_L=L, strong_rho=rho)


def read_json_object(source: Union[str, Path], name: str) -> dict:
    """The JSON object that source holds: a str that starts with '{' is JSON
    text, any other str or a Path names a file. A missing or unreadable
    file, one that is not UTF-8, invalid JSON (nested too deeply for the
    parser too) or a value that is not an object is a ValidationError naming
    `name`."""
    text = source
    if not (isinstance(source, str) and source.lstrip().startswith("{")):
        try:
            if not Path(source).is_file():
                raise ValidationError(f"{name}: file not found: {source}")
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{name}: not UTF-8 text: {exc}") from None
        except OSError as exc:  # a name too long, say
            raise ValidationError(f"{name}: cannot read the file: {exc.strerror}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{name}: invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_problem(source: Union[dict, str, Path]) -> QviProblem:
    """Build a QviProblem from a JSON descriptor (dict, JSON text, or a path).

    Schema: {"family": "l2_example" | "affine" | "moving_set" | "single_set_vi",
    plus family parameters}; see the README for the exact fields. A key that
    its object does not take is rejected. Text that starts with '{' is parsed
    as inline JSON, anything else as a path.
    """
    doc = read_json_object(source, "problem") if isinstance(source, (str, Path)) else dict(source)
    family = doc.get("family")
    n = require_count(doc.get("n"), "n")  # an int, so that n * n cannot wrap
    operator = doc.get("operator")
    matrix = isinstance(operator, dict) and operator.get("matrix") is not None
    entries = n * n if family == "affine" or matrix else n
    if entries > MAX_DESCRIPTOR_ENTRIES:
        raise ValidationError(f"n = {n} gives arrays of {entries} entries, above the limit "
                              f"of {MAX_DESCRIPTOR_ENTRIES}")
    if not (isinstance(family, str) and family in _FAMILY_FIELDS):
        raise ValidationError(f"family must be one of {'/'.join(_FAMILY_FIELDS)}, "
                              f"got {family!r}")
    _check_fields(doc, _FAMILY_FIELDS[family], "")

    if family == "l2_example":
        return make_l2_example(n, _number(doc, "alpha", 2.0))

    if family == "affine":
        rho, L = _number(doc, "rho", 1.0, sign="positive"), _number(doc, "L", 1.0, sign="positive")
        if rho > L:
            raise ValidationError(f"rho exceeds L (rho={rho!r}, L={L!r})")
        return make_affine_qvi(n, seed=_get(doc, "seed", 0), rho_target=rho, L_target=L,
                               beta=_get(doc, "beta", 0.0))

    if family == "moving_set":
        base = _set_from_descriptor(n, doc, "base_set")
        scale = _number(doc, "shift_scale", 0.0)
        _shift_constant(abs(scale), "shift_scale")
        offset = as_array(_get(doc, "shift_offset", 0.0), "shift_offset", n, fill=True)
        constraint = moving_set(_scaled(scale, offset), abs(scale), base.project)
        name = f"moving_set(n={n}, scale={scale})"
    else:
        base = _set_from_descriptor(n, doc, "set")
        constraint = ConstraintSpec(lambda x, z: base.project(z), 0.0)
        name = f"single_set_vi(n={n})"
    return QviProblem(_operator_from_descriptor(n, operator), constraint, n,
                      known_solution=doc.get("known_solution"), name=name)
