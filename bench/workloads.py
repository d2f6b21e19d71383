"""The three workloads: seeded inputs, the fixed round of ops, and the
correctness gate every op's output must pass.

An op is one public call a user makes (one ``solve``, one ``integrate``, one
``best_lambda`` or one ``cli.main([...])``) together with its CSV write or
read. A round is the workload's fixed list of ops; a run repeats rounds on the
same inputs. Probes are extra ops that only the traced run makes, so that
every layer is measured on every workload (see BENCHMARK.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from qvisolve import (
    AlphaSchedule,
    FlowConfig,
    ProblemConstants,
    SolverConfig,
    best_lambda,
    default_problem_suite,
    evaluate_operator,
    flow_to_csv,
    full_certificate,
    integrate,
    make_affine_qvi,
    make_l2_example,
    project,
    solve,
    trace_to_csv,
    tseng_map,
)
from qvisolve.cli import main as cli_main
from qvisolve.cli import read_sweep_csv
from qvisolve.dynamics import read_flow_csv
from qvisolve.solvers import read_trace_csv

import reference as ref
from tracing import OPERATOR, PROJECT

#: stopping tolerance on the natural residual for every solve
TOL = 1e-10
MAX_ITER = 1000
#: final distance to the known solution. At TOL the suite's error bounds put
#: it near 1e-9; a wrong answer is off by O(0.1).
DIST_GATE = 1e-8
#: RK4 at h=0.05 on x' = -0.09x loses about z^5/120 = 1.5e-14 per step
#: (z = -0.0045); 100 steps stay below 2e-12, the rest is rounding room
EXACT_RK4_GATE = 1e-10

VARIANTS = ("tseng", "gradient_projection", "extragradient")

SIZES = {
    "full": {"l2_n": 100_000, "affine_n": 1000, "sweep_sets": 4,
             "lam_cells": 40, "l_cells": 10, "beta_cells": 10, "problem_lam_cells": 20},
    "tiny": {"l2_n": 2_000, "affine_n": 40, "sweep_sets": 2,
             "lam_cells": 4, "l_cells": 3, "beta_cells": 3, "problem_lam_cells": 3},
}


class Env:
    """What an op runs against: the problems (raw, or with traced oracles)
    and the tracer (a no-op in untraced rounds)."""

    def __init__(self, problems: dict, tracer):
        self.problems = problems
        self.tracer = tracer


def _calls(tracer):
    return tracer.calls[OPERATOR], tracer.calls[PROJECT]


def _unit_x0(rng, problem):
    """Seeded start at distance 1 from the known solution, in a direction
    within about 25% of the diagonal. A fully random direction makes the l2
    example's iteration count bimodal (it hinges on the sign and size of
    x0[0]), so the work per round would depend on the seed."""
    d = 1.0 + 0.25 * rng.standard_normal(problem.dim)
    return problem.known_solution + d / np.linalg.norm(d)


def _x0_arg(x0) -> str:
    return ",".join(repr(float(v)) for v in x0)


# --------------------------------------------------------------------------
# ops
# --------------------------------------------------------------------------

class SolveOp:
    kind = "solve"

    def __init__(self, label, key, x0, lam, variant, csv, shadow=False):
        self.label, self.key, self.x0, self.lam = label, key, x0, lam
        self.variant, self.csv = variant, csv
        self.shadow = shadow  # re-runs a solve that a CLI op made, for cli.self_s_est
        self.probe = shadow

    def run(self, env):
        tracer = env.tracer
        f0, p0 = _calls(tracer)
        with tracer.span("solvers.solve"):
            trace = solve(env.problems[self.key], self.x0, SolverConfig(
                lam=self.lam, tol=TOL, max_iter=MAX_ITER, variant=self.variant))
        f1, p1 = _calls(tracer)
        with tracer.span("solvers.trace_to_csv"):
            trace_to_csv(trace, self.csv)
        return {"trace": trace, "calls": (f1 - f0, p1 - p0)}

    def check(self, res, env, full):
        trace = res["trace"]
        errors = []
        if trace.status != "converged":
            return [f"status {trace.status} after {trace.final.k} iterations"]
        dist = float(np.linalg.norm(trace.final.x - env.problems[self.key].known_solution))
        if not dist <= DIST_GATE:
            errors.append(f"final distance {dist:.3e} to the known solution exceeds {DIST_GATE}")
        if env.tracer.enabled:
            k = trace.final.k
            expected = {"tseng": (2 * k + 1, k + 1),
                        "gradient_projection": (k + 1, k + 1),
                        "extragradient": (2 * k + 1, 2 * k + 1)}[self.variant]
            if res["calls"] != expected:
                errors.append(f"{k} steps made (F, P) calls {res['calls']}, expected {expected}")
        if full or env.tracer.enabled:
            with env.tracer.span("solvers.read_trace_csv"):
                doc = read_trace_csv(self.csv)
            records = trace.records
            same = (doc["status"] == trace.status and doc["variant"] == trace.variant
                    and doc["lambda"] == trace.lam
                    and doc["certificate_warning"] == trace.certificate_warning
                    and np.array_equal(doc["k"], [r.k for r in records])
                    and np.array_equal(doc["residual"], [r.residual for r in records])
                    and np.array_equal(doc["dist_to_solution"], trace.dists(), equal_nan=True))
            if not same:
                errors.append("trace CSV read back differs from the trace written")
        return errors

    def stats(self, res):
        trace = res["trace"]
        return {"solves": 1, "iters": trace.final.k, "converged": trace.status == "converged"}


class IntegrateOp:
    kind = "integrate"

    def __init__(self, label, key, x0, lam, h, t_end, scheme, csv,
                 alpha=((), ()), exact=None, probe=False):
        self.label, self.key, self.x0, self.lam = label, key, x0, lam
        self.h, self.t_end, self.scheme, self.csv = h, t_end, scheme, csv
        self.alpha_times, self.alpha_values = alpha
        self.exact = exact  # closed-form endpoint, when one is known
        self.probe = probe
        self.nsteps = max(1, int(round(t_end / h)))
        self.evals = self.nsteps * (1 if scheme == "euler" else 4)

    def run(self, env):
        tracer = env.tracer
        alpha = (AlphaSchedule(self.alpha_times, self.alpha_values)
                 if self.alpha_times else None)
        f0, p0 = _calls(tracer)
        with tracer.span("dynamics.integrate"):
            flow = integrate(env.problems[self.key], self.x0, FlowConfig(
                lam=self.lam, h=self.h, t_end=self.t_end, scheme=self.scheme, alpha=alpha))
        f1, p1 = _calls(tracer)
        with tracer.span("dynamics.flow_to_csv"):
            flow_to_csv(flow, self.csv)
        return {"flow": flow, "calls": (f1 - f0, p1 - p0)}

    def check(self, res, env, full):
        flow = res["flow"]
        if flow.status != "completed":
            return [f"flow status {flow.status}"]
        errors = []
        if not np.array_equal(flow.t, np.arange(self.nsteps + 1) * self.h):
            errors.append(f"time grid is not {self.nsteps} steps of h={self.h}")
        if env.tracer.enabled and res["calls"] != (2 * self.evals, self.evals):
            errors.append(f"{self.evals} field evaluations made (F, P) calls "
                          f"{res['calls']}, expected {(2 * self.evals, self.evals)}")
        if full or env.tracer.enabled:
            with env.tracer.span("dynamics.read_flow_csv"):
                doc = read_flow_csv(self.csv)
            if not (doc["status"] == flow.status and doc["Lambda"] == flow.Lambda
                    and np.array_equal(doc["t"], flow.t) and np.array_equal(doc["V"], flow.V)
                    and np.array_equal(doc["envelope"], flow.envelope)):
                errors.append("flow CSV read back differs from the flow written")
        if full:
            errors += self._reference_errors(flow, env.problems[self.key])
        return errors

    def _reference_errors(self, flow, problem):
        errors = []
        x_ref, V_ref = ref.flow(problem.operator.func, problem.constraint.project, self.x0,
                                self.lam, self.h, self.nsteps, self.scheme,
                                self.alpha_times, self.alpha_values, problem.known_solution)
        if not ref.close(flow.x[-1], x_ref):
            errors.append("endpoint differs from the reference integration")
        if not ref.close(flow.V, V_ref):
            errors.append("Lyapunov values differ from the reference integration")
        Lam = float(ref.certificate_table(problem.operator.lipschitz_L, problem.operator.strong_rho,
                                          problem.constraint.lip_l, self.lam, 0.0)["Lambda"])
        scaled = np.array([ref.alpha_integral(self.alpha_times, self.alpha_values, t)
                           for t in flow.t])
        if not (ref.close(flow.Lambda, Lam) and ref.close(flow.envelope, V_ref[0] * np.exp(Lam * scaled))):
            errors.append("envelope differs from V0*exp(Lambda*int alpha)")
        if self.exact is not None and not abs(flow.x[-1][0] - self.exact) <= EXACT_RK4_GATE:
            errors.append(f"endpoint {flow.x[-1][0]!r} is not the exact {self.exact!r}")
        return errors

    def stats(self, res):
        return {"steps": self.nsteps, "field_evals": self.evals}


class BestLambdaOp:
    kind = "best_lambda"
    csv = None

    def __init__(self, label, L, rho, l, probe=False):
        self.label, self.L, self.rho, self.l = label, L, rho, l
        self.probe = probe
        self.expected = None  # (lambda, rate_r) once checked against the reference

    def run(self, env):
        with env.tracer.span("certify.best_lambda"):
            lam, cert = best_lambda(self.L, self.rho, self.l)
        return {"lam": lam, "rate": cert.rate_r}

    def check(self, res, env, full):
        got = (res["lam"], res["rate"])
        if self.expected is not None:
            return [] if got == self.expected else [f"best_lambda changed to {got}"]
        lam_ref, rate_ref, rates, lams = ref.best_lambda_reference(self.L, self.rho, self.l)
        on_grid = bool(np.any(lams == got[0]))
        if not (on_grid and ref.close(got[1], rate_ref)
                and (got[0] == lam_ref or ref.close(rates[lams == got[0]][0], rate_ref))):
            return [f"best_lambda {got} is not the grid minimiser ({lam_ref!r}, {rate_ref!r})"]
        self.expected = got
        return []

    def stats(self, res):
        return {}


class SweepOp:
    """``qvisolve sweep`` over a lambda x l x beta grid, written to a CSV and
    read back with ``read_sweep_csv``, as scripts/run_feasibility_sweep.py does."""

    kind = "sweep"
    probe = False

    def __init__(self, label, L, rho, grids, csv, l=0.0, problem=None):
        """grids maps "lambda", "l" and "beta" to (start, stop, count); an
        absent l grid means the fixed l, an absent beta grid means no beta."""
        self.label, self.L, self.rho, self.csv = label, L, rho, csv
        self.problem = problem  # (descriptor, x0) for sweeps with --problem
        argv = ["sweep", "--L", repr(L), "--rho", repr(rho), "--l", repr(l)]
        for name, flag in (("lambda", "--lambda-grid"), ("l", "--l-grid"), ("beta", "--beta-grid")):
            if grids.get(name) is not None:
                a, b, n = grids[name]
                argv += [flag, f"{a!r}:{b!r}:{n}"]
        self.axes = {name: (np.linspace(*grids[name]) if grids.get(name) is not None else
                            np.array([l]) if name == "l" else None)
                     for name in ("lambda", "l", "beta")}
        if problem is not None:
            descriptor, x0 = problem
            argv += ["--problem", json.dumps(descriptor), f"--x0={_x0_arg(x0)}",
                     "--tol", repr(TOL), "--max-iter", str(MAX_ITER)]
        self.argv = argv + ["-o", str(csv)]
        self.cells = int(np.prod([len(a) for a in self.axes.values() if a is not None]))

    def run(self, env):
        with env.tracer.span("cli.main"):
            code = cli_main(self.argv)
        with env.tracer.span("cli.read_csv"):
            doc = read_sweep_csv(self.csv)
        return {"code": code, "doc": doc}

    def check(self, res, env, full):
        if res["code"] != 0:
            return [f"exit code {res['code']}"]
        doc = res["doc"]
        rows = doc["rows"]
        n = self.cells
        errors = []
        if len(rows) != n or any(row["status"] != "ok" for row in rows):
            errors.append(f"expected {n} cells with status ok")
        for want in (f"cells: {n}", f"discrete_ok: 0/{n}", f"continuous_ok: 0/{n}"):
            if want not in doc["comments"]:
                errors.append(f"missing comment '{want}'")
        if full and not errors:
            errors += self._reference_errors(rows)
        return errors

    def _reference_errors(self, rows):
        errors = []

        def column(name):
            return np.array([np.nan if row[name] is None else row[name] for row in rows], float)

        lam_ax, l_ax, beta_ax = self.axes["lambda"], self.axes["l"], self.axes["beta"]
        grid = np.meshgrid(lam_ax, l_ax, beta_ax if beta_ax is not None else [np.nan],
                           indexing="ij")
        lam, l, beta = (g.ravel() for g in grid)
        if not (np.array_equal(column("lambda"), lam) and np.array_equal(column("l"), l)
                and np.array_equal(column("beta"), beta, equal_nan=True)):
            return ["grid cells are missing or out of order"]
        table = ref.certificate_table(self.L, self.rho, l, lam, np.nan_to_num(beta))
        floats = ["gamma", "theta", "radicand", "mu", "Lambda", "rate_r", "f_lipschitz",
                  "discrete_rhs"]
        flags = ["existence_ok", "nesterov_ok", "continuous_ok", "discrete_ok", "radicand_ok"]
        if beta_ax is not None:
            floats.append("moving_rhs")
            flags.append("moving_ok")
        elif any(row["moving_rhs"] is not None or row["moving_ok"] for row in rows):
            errors.append("moving-set columns filled without a beta")
        for name in floats:
            if not ref.close(column(name), table[name]):
                errors.append(f"column {name} differs from the PAPER.md formula")
        for name in flags:
            bad = ref.check_flag(column(name).astype(bool), *table[name])
            if bad.any():
                errors.append(f"flag {name} wrong in {int(bad.sum())} cells")
        # the paper's infeasibility fact: (1+theta)(1+lambda*L) >= 2 everywhere
        if any(row["discrete_ok"] or row["continuous_ok"] for row in rows):
            errors.append("a sufficient condition holds, contradicting PAPER.md")
        if not np.all(column("f_lipschitz") >= 2.0 * (1.0 - ref.RTOL)):
            errors.append("f_lipschitz < 2 in some cell, contradicting PAPER.md")
        if self.problem is not None:
            _, x0 = self.problem
            for row in rows:
                converged, _, rate = ref.l2_fbf(x0, row["lambda"], TOL, MAX_ITER)
                if not (converged and rate is not None and row["empirical_rate"] is not None
                        and ref.close(row["empirical_rate"], rate)):
                    errors.append(f"empirical_rate at lambda={row['lambda']!r} differs "
                                  f"from the reference solve ({rate!r})")
        return errors

    def stats(self, res):
        return {"cli_cells": self.cells,
                "cli_bytes_out": os.path.getsize(self.csv),
                "cli_exit_nonzero": int(res["code"] != 0)}


class CliSolveOp:
    """``qvisolve solve`` on a descriptor; its CSV must equal, byte for byte,
    the CSV of the shadow library solve with the same inputs."""

    kind = "cli_solve"
    probe = True

    def __init__(self, label, descriptor, shadow: SolveOp, csv):
        self.label, self.shadow, self.csv = label, shadow, csv
        self.argv = ["solve", "--problem", json.dumps(descriptor), f"--x0={_x0_arg(shadow.x0)}",
                     "--lambda", repr(shadow.lam), "--variant", shadow.variant,
                     "--tol", repr(TOL), "--max-iter", str(MAX_ITER), "-o", str(csv)]

    def run(self, env):
        with env.tracer.span("cli.main"):
            code = cli_main(self.argv)
        with env.tracer.span("cli.read_csv"):
            doc = read_trace_csv(self.csv)
        return {"code": code, "doc": doc}

    def check(self, res, env, full):
        if res["code"] != 0:
            return [f"exit code {res['code']}"]
        if Path(self.csv).read_bytes() != Path(self.shadow.csv).read_bytes():
            return ["CLI solve CSV differs from the library solve with the same inputs"]
        return []

    def stats(self, res):
        return {"cli_cells": 0, "cli_bytes_out": os.path.getsize(self.csv),
                "cli_exit_nonzero": int(res["code"] != 0)}


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """Inputs built at set-up. ``ops`` is the timed round; ``make_probes``
    builds the traced run's extra ops; ``core_cases`` and ``cert_constants``
    feed the per-call probes of the core and certify layers."""

    def __init__(self, problems, ops, make_probes, core_cases, cert_constants):
        self.problems = problems
        self.ops = ops
        self.make_probes = make_probes
        self.core_cases = core_cases  # (problem key, x, lambda)
        self.cert_constants = cert_constants  # (L, rho, l, lambda, beta)


def _build(tracer, fn, *args, **kw):
    with tracer.span("problems.build"):
        return fn(*args, **kw)


def _constants(problem, lam):
    return (problem.operator.lipschitz_L, problem.operator.strong_rho,
            problem.constraint.lip_l, lam, None)


def _best_lambda_probes(problems):
    return [BestLambdaOp(f"best_lambda:{key}", p.operator.lipschitz_L, p.operator.strong_rho,
                         p.constraint.lip_l, probe=True)
            for key, p in problems.items()]


def _cli_solve_probe(label, key, descriptor, x0, lam, out):
    shadow = SolveOp(f"{label}:shadow", key, x0, lam, "tseng", out / f"{label}-shadow.csv",
                     shadow=True)
    return [shadow, CliSolveOp(label, descriptor, shadow, out / f"{label}.csv")]


def small_dim(seed: int, out: Path, tracer, size: str) -> Workload:
    """Every default_problem_suite() problem (dim 1-50) under all three
    variants from two seeded starts, plus three small flows."""
    problems = dict(zip(("l2", "halfline", "box", "affine6", "affine4"),
                        _build(tracer, default_problem_suite)))
    rng = np.random.default_rng(seed)
    # two starts per problem: 30 solves and 3 flows make an odd number of op
    # kinds, so the median op falls inside one kind's block, not between two
    starts = {key: [_unit_x0(rng, p) for _ in range(2)] for key, p in problems.items()}
    x0s = {key: xs[0] for key, xs in starts.items()}
    lams = {key: 0.5 / p.operator.lipschitz_L for key, p in problems.items()}
    ops = [SolveOp(f"solve:{key}:{variant}:{j}", key, x0, lams[key], variant,
                   out / f"solve-{key}-{variant}-{j}.csv")
           for key in problems for variant in VARIANTS for j, x0 in enumerate(starts[key])]
    # half-line: f(x) = -0.09x while x >= 10/9, so x(5) = x0*exp(-0.45) exactly
    x_half = np.array([2.0 + 0.1 * rng.uniform(-1.0, 1.0)])
    ops += [
        IntegrateOp("flow:halfline:rk4", "halfline", x_half, 0.1, 0.05, 5.0, "rk4",
                    out / "flow-halfline.csv", exact=float(x_half[0] * np.exp(-0.45))),
        IntegrateOp("flow:l2:rk4", "l2", x0s["l2"], 0.1, 0.05, 2.0, "rk4",
                    out / "flow-l2.csv"),
        IntegrateOp("flow:box:euler", "box", x0s["box"], 0.5, 0.02, 3.0, "euler",
                    out / "flow-box.csv", alpha=((0.0, 1.0, 2.0), (2.0, 1.0, 0.5))),
    ]

    def make_probes():
        probes = _cli_solve_probe("cli:solve:l2", "l2", {"family": "l2_example", "n": 50},
                                  x0s["l2"], lams["l2"], out)
        return probes + _best_lambda_probes(problems)

    return Workload(problems, ops, make_probes,
                    core_cases=[(key, x0s[key], lams[key]) for key in problems],
                    cert_constants=[_constants(p, lams[key]) for key, p in problems.items()])


def large_dim(seed: int, out: Path, tracer, size: str) -> Workload:
    """l2 example at n = 1e5, where retained iterates set peak memory, and a
    matvec-bound affine QVI at n = 1000 whose QR+SVD build lands in set-up."""
    sz = SIZES[size]
    rng = np.random.default_rng(seed)
    problems = {
        "l2": _build(tracer, make_l2_example, sz["l2_n"], 2.0),
        "affine": _build(tracer, make_affine_qvi, sz["affine_n"], seed=int(rng.integers(2**31)),
                         rho_target=1.0, L_target=3.0, beta=0.1),
    }
    x0s = {key: _unit_x0(rng, p) for key, p in problems.items()}
    lam = 0.5 / 3.0
    ops = [SolveOp(f"solve:l2:{v}", "l2", x0s["l2"], lam, v, out / f"solve-l2-{v}.csv")
           for v in VARIANTS]
    ops.append(IntegrateOp("flow:l2:euler", "l2", x0s["l2"], lam, 0.1, 4.0, "euler",
                           out / "flow-l2.csv"))
    ops += [SolveOp(f"solve:affine:{v}", "affine", x0s["affine"], lam, v,
                    out / f"solve-affine-{v}.csv") for v in VARIANTS]

    def make_probes():
        probes = _cli_solve_probe("cli:solve:l2", "l2",
                                  {"family": "l2_example", "n": sz["l2_n"]}, x0s["l2"], lam, out)
        return probes + _best_lambda_probes(problems)

    return Workload(problems, ops, make_probes,
                    core_cases=[(key, x0s[key], lam) for key in problems],
                    cert_constants=[_constants(p, lam) for p in problems.values()])


def sweep(seed: int, out: Path, tracer, size: str) -> Workload:
    """Certificate grids through ``qvisolve sweep`` at seeded (L, rho), each
    read back; best_lambda at the same constants; and a minority of sweeps with
    ``--problem`` that solve the l2 example (n=50) at every lambda cell."""
    sz = SIZES[size]
    rng = np.random.default_rng(seed)
    problems = {"l2": _build(tracer, make_l2_example, 50, 2.0)}
    x0 = _unit_x0(rng, problems["l2"])
    grids = {"lambda": (0.01, 1.0, sz["lam_cells"]), "l": (0.0, 0.45, sz["l_cells"]),
             "beta": (0.0, 0.45, sz["beta_cells"])}
    l_values = np.linspace(*grids["l"])
    ops, cert_constants = [], []
    for i in range(sz["sweep_sets"]):
        L = float(rng.uniform(1.5, 4.0))
        rho = float(L * rng.uniform(0.2, 0.9))
        ops.append(SweepOp(f"sweep:{i}", L, rho, grids, out / f"sweep-{i}.csv"))
        ops += [BestLambdaOp(f"best_lambda:{i}:{l!r}", L, rho, l)
                for l in map(float, (l_values[0], l_values[len(l_values) // 2], l_values[-1]))]
        cert_constants += [(L, rho, float(l), float(lam), float(beta))
                           for lam in np.linspace(*grids["lambda"])[::4]
                           for l in l_values[::2] for beta in np.linspace(*grids["beta"])[::2]]
    problem_grid = {"lambda": (0.05, 0.25, sz["problem_lam_cells"])}
    ops.append(SweepOp("sweep:l2", 3.0, 1.0, problem_grid, out / "sweep-l2.csv", l=0.1,
                       problem=({"family": "l2_example", "n": 50}, x0)))

    def make_probes():
        probes = [SolveOp(f"sweep:l2:shadow:{lam!r}", "l2", x0, lam, "tseng",
                          out / f"sweep-l2-shadow-{j}.csv", shadow=True)
                  for j, lam in enumerate(map(float, np.linspace(*problem_grid["lambda"])))]
        probes.append(IntegrateOp("flow:l2:euler", "l2", x0, 0.1, 0.05, 2.0, "euler",
                                  out / "flow-l2.csv", probe=True))
        return probes

    return Workload(problems, ops, make_probes,
                    core_cases=[("l2", x0, 0.1)], cert_constants=cert_constants)


WORKLOADS = {"small-dim": small_dim, "large-dim": large_dim, "sweep": sweep}


# --------------------------------------------------------------------------
# per-call probes of the core and certify layers
# --------------------------------------------------------------------------

def _per_call(fn, budget: float = 0.05, batches: int = 5) -> float:
    """Median seconds per call over `batches` batches of about `budget` each."""
    fn()
    reps = 1
    while True:
        start = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - start >= budget / 4 or reps >= 1 << 16:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - start) / reps)
    return float(np.median(times))


def core_overhead_ratio(wl: Workload) -> float:
    """Public evaluate_operator + project + tseng_map against the same raw
    oracle calls, summed over the workload's problems."""
    public = raw = 0.0
    for key, x, lam in wl.core_cases:
        p = wl.problems[key]
        func, proj = p.operator.func, p.constraint.project
        z = x - lam * func(x)

        def raw_field():
            Fx = func(x)
            y = proj(x, x - lam * Fx)
            return y + lam * (Fx - func(y)) - x

        public += (_per_call(lambda: evaluate_operator(p, x)) + _per_call(lambda: project(p, x, z))
                   + _per_call(lambda: tseng_map(p, x, lam)))
        raw += _per_call(lambda: func(x)) + _per_call(lambda: proj(x, z)) + _per_call(raw_field)
    return public / raw


def full_certificate_us(wl: Workload) -> float:
    """Microseconds per ProblemConstants + full_certificate, as the sweep
    command makes one per cell."""
    constants = wl.cert_constants

    def all_cells():
        for L, rho, l, lam, beta in constants:
            full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam, beta=beta))

    return _per_call(all_cells, budget=0.1) / len(constants) * 1e6
