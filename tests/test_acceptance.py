"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np

from qvisolve import evaluate_operator, integrate, project, step
from qvisolve.certify import ProblemConstants, full_certificate
from qvisolve.cli import main
from qvisolve.csvio import read_compare_csv, read_sweep_csv
from qvisolve.core import norm
from qvisolve.dynamics import FlowConfig
from qvisolve.problems import (
    BallSet,
    BoxSet,
    make_affine_qvi,
    make_l2_example,
    moving_set,
)
from oracles import certificate_oracle, rel_err


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def random_constant_tuples(count: int = 1000, seed: int = 20240817):
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(count):
        L = rng.uniform(0.1, 10.0)
        rho = L * rng.uniform(0.01, 1.0)
        l = rng.uniform(0.0, 3.0)
        lam = rng.uniform(1e-6, 3.0 / L)
        tuples.append((L, rho, l, lam))
    return tuples


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_certificate_arithmetic():
    tuples = random_constant_tuples()
    start = time.perf_counter()
    worst = 0.0
    for L, rho, l, lam in tuples:
        cert = full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam))
        ref = certificate_oracle(L, rho, l, lam)
        for name in ("theta", "mu", "Lambda", "rate_r",
                     "existence_bound", "nesterov_bound"):
            worst = max(worst, rel_err(getattr(cert, name), ref[name]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, ok, f"1000 tuples vs 50-digit oracle, worst rel err {worst:.3e}, "
                  f"{elapsed:.2f}s (< 5s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_condition_equivalence():
    tuples = random_constant_tuples()
    agreements = 0
    implication_ok = True
    for L, rho, l, lam in tuples:
        cert = full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam))
        # left side: the squared form actually used for discrete_ok
        product = (1.0 + cert.theta) * (1.0 + lam * L)
        squared_form = (product + 1.0) ** 2 < 4.0 - l * l + 2.0 * l
        # right side: the alignment form, evaluated independently
        th = cert.theta
        mu = 0.5 - l * l / 2.0 - th + l - lam * L - lam * L * th
        mu_form = ((1.0 + th) ** 2) * ((1.0 + lam * L) ** 2) < 2.0 * mu
        agreements += squared_form == mu_form
        if cert.rate_r < 1.0 and not cert.mu > 0.0:
            implication_ok = False
    ok = agreements == len(tuples) and implication_ok
    report(2, ok, f"boolean agreement {agreements}/{len(tuples)}, "
                  f"(r < 1 => mu > 0) holds: {implication_ok}")
    assert agreements == len(tuples)
    assert implication_ok


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_sampled_inequality_suites():
    cases = [
        (make_l2_example(50, 2.0), 0.1),
        (make_affine_qvi(6, seed=7, rho_target=1.0, L_target=3.0, beta=0.1), 1.0 / 9.0),
        (make_affine_qvi(4, seed=11, rho_target=0.5, L_target=2.0, beta=0.0), 0.125),
    ]
    slack = 1e-9
    start = time.perf_counter()
    violations = {k: 0 for k in "abcde"}
    rng = np.random.default_rng(321)
    for problem, lam in cases:
        L = problem.operator.lipschitz_L
        rho = problem.operator.strong_rho
        l = problem.constraint.lip_l
        th = full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam)).theta
        step_factor = math.sqrt(1.0 - 2.0 * lam * rho + (lam * L) ** 2)
        field_bound = (1.0 + lam * L) * (1.0 + th)
        xstar = problem.known_solution
        for _ in range(1000):
            x = rng.normal(size=problem.dim) * 2.0
            y = rng.normal(size=problem.dim) * 2.0
            z = rng.normal(size=problem.dim) * 2.0
            Fx = evaluate_operator(problem, x)
            Fy = evaluate_operator(problem, y)
            px = project(problem, x, x - lam * Fx)
            py = project(problem, y, y - lam * Fy)
            nxy = norm(x - y)
            # (a) contraction of the projected step map
            if norm(px - py) > th * nxy + slack:
                violations["a"] += 1
            # (b) step-operator bound
            if norm((x - lam * Fx) - (y - lam * Fy)) > step_factor * nxy + slack:
                violations["b"] += 1
            # (c) vector-field Lipschitz bound
            fx = px + lam * (Fx - evaluate_operator(problem, px)) - x
            fy = py + lam * (Fy - evaluate_operator(problem, py)) - y
            if norm(fx - fy) > field_bound * nxy + slack:
                violations["c"] += 1
            # (d) residual bound against the known solution
            lhs = norm(x - px - lam * (Fx - evaluate_operator(problem, px)))
            if lhs > field_bound * norm(x - xstar) + slack:
                violations["d"] += 1
            # (e) parametric projection bound
            if norm(project(problem, x, z) - project(problem, y, z)) > l * nxy + slack:
                violations["e"] += 1
    elapsed = time.perf_counter() - start
    total = sum(violations.values())
    ok = total == 0 and elapsed < 30.0
    report(3, ok, f"3000 samples x 5 inequalities, violations {violations}, "
                  f"{elapsed:.2f}s (< 30s)")
    assert total == 0, violations
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_figure_style_reproduction(tmp_path):
    start = time.perf_counter()
    target = tmp_path / "figure_compare.csv"
    descriptor = json.dumps({"family": "l2_example", "n": 50, "alpha": 2.0})
    code = main([
        "compare", "--problem", descriptor, "--x0", "geometric",
        "--lambda", "0.1", "--variants", "tseng,gradient_projection,extragradient",
        "--tol", "1e-10", "--max-iter", "300", "-o", str(target)])
    assert code == 0
    doc = read_compare_csv(target)
    tseng = doc["variants"]["tseng"]
    converged_within = tseng["residual"][-1] <= 1e-10 and len(tseng["k"]) <= 301
    dists = tseng["dist_to_solution"]
    nonincreasing = bool(np.all(np.diff(dists[1:]) <= 1e-15))
    ratios = dists[1:][dists[:-1] > 1e-14] / dists[:-1][dists[:-1] > 1e-14]
    empirical_rate = float(np.exp(np.mean(np.log(ratios))))
    baselines_converge = all(
        doc["variants"][v]["residual"][-1] <= 1e-10
        for v in ("gradient_projection", "extragradient"))
    elapsed = time.perf_counter() - start
    ok = (converged_within and nonincreasing and empirical_rate < 1.0
          and baselines_converge and elapsed < 5.0)
    report(4, ok, f"tseng {len(tseng['k']) - 1} iterations to 1e-10, "
                  f"dist nonincreasing after k=1: {nonincreasing}, "
                  f"rate {empirical_rate:.4f}, baselines converge: "
                  f"{baselines_converge}, {elapsed:.2f}s (< 5s)")
    assert converged_within
    assert nonincreasing
    assert empirical_rate < 1.0
    assert baselines_converge
    assert elapsed < 5.0


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_moving_set_identity():
    rng = np.random.default_rng(55)
    n = 4
    box = BoxSet.from_bounds(n, -1.0, 1.0)
    ball = BallSet(np.zeros(n), 1.0)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=n) * 2.0
        z = rng.normal(size=n) * 3.0
        m = rng.normal(size=n) * 2.0
        for base, direct in (
            (box, lambda z, m=m: np.clip(z, -1.0 + m, 1.0 + m)),
            (ball, lambda z, m=m: z if np.linalg.norm(z - m) <= 1.0
             else m + (z - m) / np.linalg.norm(z - m)),
        ):
            constraint = moving_set(shift=lambda _x, m=m: m, shift_lipschitz=0.0,
                                    base_projection=base.project)
            gap = float(np.max(np.abs(constraint.project(x, z) - direct(z))))
            worst = max(worst, gap)

    # parametric constant of a genuinely moving set stays below 2*beta
    beta = 0.3
    c = rng.standard_normal((n, n))
    c = c / np.linalg.svd(c, compute_uv=False)[0]
    worst_ratio = 0.0
    for base in (box, ball):
        constraint = moving_set(shift=lambda v: beta * (c @ v), shift_lipschitz=beta,
                                base_projection=base.project)
        for _ in range(1000):
            x = rng.normal(size=n) * 2.0
            y = rng.normal(size=n) * 2.0
            z = rng.normal(size=n) * 3.0
            gap = np.linalg.norm(constraint.project(x, z) - constraint.project(y, z))
            denom = np.linalg.norm(x - y)
            if denom > 1e-12:
                worst_ratio = max(worst_ratio, gap / denom)
    ok = worst <= 1e-12 and worst_ratio <= 2.0 * beta + 1e-9
    report(5, ok, f"translation identity worst gap {worst:.2e} (<= 1e-12), "
                  f"sampled parametric constant {worst_ratio:.4f} <= 2*beta = {2*beta}")
    assert worst <= 1e-12
    assert worst_ratio <= 2.0 * beta + 1e-9


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_discrete_continuous_consistency(
        l2_problem, halfline, geometric_x0, halfline_reference_endpoint):
    worst = 0.0
    for problem, x0 in ((l2_problem, geometric_x0), (halfline, np.array([2.0]))):
        trace = integrate(problem, x0,
                          FlowConfig(lam=0.1, h=1.0, t_end=100.0, scheme="euler"),
                          keep_states=True)
        x = x0.copy()
        for k in range(100):
            _, x = step(problem, x, 0.1)
            worst = max(worst, float(np.max(np.abs(trace.x[k + 1] - x))))
    errs = []
    for h in (0.5, 0.25):
        trace = integrate(halfline, [2.0],
                          FlowConfig(lam=0.1, h=h, t_end=5.0, scheme="rk4"))
        errs.append(abs(float(trace.x[-1][0]) - halfline_reference_endpoint))
    ratio = errs[0] / errs[1]
    ok = worst <= 1e-12 and 8.0 <= ratio <= 24.0
    report(6, ok, f"unit-Euler vs discrete worst gap {worst:.2e} (<= 1e-12), "
                  f"RK4 halving ratio {ratio:.2f} (16 +- 50%)")
    assert worst <= 1e-12
    assert 8.0 <= ratio <= 24.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_feasibility_report(tmp_path):
    sqrt5m1 = math.sqrt(5.0) - 1.0
    all_products = []
    reports_infeasible = []
    for L, rho in ((1.0, 1.0), (3.0, 1.0)):
        target = tmp_path / f"sweep_{int(L)}_{int(rho)}.csv"
        code = main([
            "sweep", "--L", str(L), "--rho", str(rho),
            "--lambda-grid", "0.05:2:40", "--l-grid", "0,0.05,0.1",
            "-o", str(target)])
        assert code == 0
        doc = read_sweep_csv(target)
        assert len(doc["rows"]) == 120
        for row in doc["rows"]:
            assert row["status"] == "ok"
            all_products.append(row["f_lipschitz"])
            assert row["discrete_rhs"] <= sqrt5m1 + 1e-12
            assert row["discrete_ok"] is False
            assert row["continuous_ok"] is False
        reports_infeasible.append(any(
            "unmet at every grid point" in comment for comment in doc["comments"]))
    min_product = min(all_products)
    ok = min_product >= 2.0 - 1e-12 and all(reports_infeasible)
    report(7, ok, f"(1+theta)(1+lam*L) >= 2 at all 240 grid points "
                  f"(min {min_product:.12f}), discrete_rhs <= sqrt(5)-1, "
                  f"reports record infeasibility: {all(reports_infeasible)}")
    assert min_product >= 2.0 - 1e-12
    assert all(reports_infeasible)
