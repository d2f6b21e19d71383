"""Command-line front end: certificates, solves, flows, comparisons, sweeps.

Commands write JSON (certificates) or CSV (everything else) to stdout or
--output. Output is deterministic: identical run configurations produce
byte-identical files (floats are printed in their shortest round-trip decimal
form, comma-separated CSV with a header row, LF endings, UTF-8).

Exit codes: 0 success, 1 validation error, 2 numeric failure.

A full run configuration can also be supplied as a JSON document via
--config; it holds "command" plus the long-option names as keys
(underscores for dashes), e.g.

    {"command": "solve", "problem": {"family": "l2_example", "n": 50},
     "lambda": 0.1, "x0": "geometric", "max_iter": 300}
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence, Union

import numpy as np

from .certify import ProblemConstants, full_certificate
from .core import NumericFailure, ValidationError, as_vector, format_float
from .dynamics import AlphaSchedule, FlowConfig, flow_to_csv, integrate
from .problems import load_problem
from .solvers import (
    STATUS_NUMERIC_FAILURE,
    VARIANTS,
    SolverConfig,
    comment_meta,
    read_csv,
    solve,
    trace_to_csv,
    write_lines,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; route through the
    # validation-error path (exit 1) instead
    def error(self, message):
        raise ValidationError(message)


def _parse_x0(spec: str, dim: int) -> np.ndarray:
    """'zeros', 'geometric' (x0_k = 1/(2*3^k)), or comma-separated floats."""
    if spec == "zeros":
        return np.zeros(dim)
    if spec == "geometric":
        # 3**k overflows to inf for k > 646, which gives the intended 0.0
        with np.errstate(over="ignore"):
            return 0.5 / 3.0 ** np.arange(dim)
    try:
        values = [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"x0: {exc}") from None
    return as_vector(values, dim, name="x0")


def _parse_grid(spec: str, name: str) -> List[float]:
    """'start:stop:count' (inclusive linear grid) or comma-separated values."""
    if not spec:
        raise ValidationError(f"{name}: empty grid")
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            count = int(count)
            if count < 1:
                raise ValidationError(f"{name}: grid count must be >= 1")
            return [float(v) for v in np.linspace(float(start), float(stop), count)]
        return [float(v) for v in spec.split(",")]
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _parse_alpha(spec: Optional[str]) -> Optional[AlphaSchedule]:
    """Constant ('1.0') or piecewise-constant table ('0:1.0,5:0.25')."""
    if spec is None:
        return None
    if ":" not in spec:
        try:
            return AlphaSchedule.constant(float(spec))
        except ValueError as exc:
            raise ValidationError(f"alpha: {exc}") from None
    times, values = [], []
    for part in spec.split(","):
        t, _, v = part.partition(":")
        try:
            times.append(float(t))
            values.append(float(v))
        except ValueError as exc:
            raise ValidationError(f"alpha: {exc}") from None
    return AlphaSchedule(tuple(times), tuple(values))


def _cell(v) -> str:
    """One CSV cell: empty for None and non-finite floats, lower-case flags."""
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, float)):
        return format_float(v)
    return str(v)


def _out(args) -> Union[str, IO[str]]:
    """Where a command writes: the --output path, else stdout."""
    return sys.stdout if args.output is None else args.output


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_certify(args) -> int:
    constants = ProblemConstants(L=args.L, rho=args.rho, l=args.l,
                                 lam=args.lam, beta=args.beta)
    cert = full_certificate(constants)
    doc = cert.to_dict()
    if args.format == "json":
        write_lines(_out(args), [json.dumps(doc, indent=2)])
    else:
        write_lines(_out(args), [",".join(doc), ",".join(_cell(v) for v in doc.values())])
    return 0


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    x0 = _parse_x0(args.x0, problem.dim)
    config = SolverConfig(lam=args.lam, max_iter=args.max_iter,
                          tol=args.tol, variant=args.variant)
    trace = solve(problem, x0, config)
    trace_to_csv(trace, _out(args))
    return 2 if trace.status == STATUS_NUMERIC_FAILURE else 0


def cmd_flow(args) -> int:
    problem = load_problem(args.problem)
    x0 = _parse_x0(args.x0, problem.dim)
    config = FlowConfig(lam=args.lam, h=args.h, t_end=args.t_end,
                        scheme=args.scheme, alpha=_parse_alpha(args.alpha))
    trace = integrate(problem, x0, config)
    flow_to_csv(trace, _out(args), include_coords=args.coords)
    return 2 if trace.status == STATUS_NUMERIC_FAILURE else 0


def cmd_compare(args) -> int:
    problem = load_problem(args.problem)
    x0 = _parse_x0(args.x0, problem.dim)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValidationError("variants: need at least one variant")
    traces = []
    for variant in variants:
        config = SolverConfig(lam=args.lam, max_iter=args.max_iter,
                              tol=args.tol, variant=variant)
        traces.append(solve(problem, x0, config))
    lines = [f"# lambda: {format_float(args.lam)}"]
    for trace in traces:
        lines.append(
            f"# {trace.variant}: status={trace.status}, "
            f"certificate_warning={str(trace.certificate_warning).lower()}"
        )
    lines.append("variant,k,residual,dist_to_solution")
    for trace in traces:
        for r in trace.records:
            dist = "" if r.dist_to_solution is None else format_float(r.dist_to_solution)
            lines.append(f"{trace.variant},{r.k},{format_float(r.residual)},{dist}")
    write_lines(_out(args), lines)
    return 0


SWEEP_FLOAT_COLUMNS = (
    "gamma", "theta", "radicand", "mu", "Lambda", "rate_r",
    "f_lipschitz", "discrete_rhs", "moving_rhs",
)
SWEEP_FLAG_COLUMNS = (
    "existence_ok", "nesterov_ok", "continuous_ok", "discrete_ok",
    "moving_ok", "radicand_ok",
)


def cmd_sweep(args) -> int:
    lam_grid = _parse_grid(args.lambda_grid, "lambda-grid") if args.lambda_grid else None
    l_grid = _parse_grid(args.l_grid, "l-grid") if args.l_grid else None
    beta_grid = _parse_grid(args.beta_grid, "beta-grid") if args.beta_grid else None
    if lam_grid is None and l_grid is None and beta_grid is None:
        raise ValidationError("sweep needs at least one of --lambda-grid/--l-grid/--beta-grid")
    if lam_grid is None:
        if args.lam is None:
            raise ValidationError("lambda: give --lambda or --lambda-grid")
        lam_grid = [args.lam]
    if l_grid is None:
        l_grid = [args.l]
    if beta_grid is None:
        beta_grid = [args.beta]  # may be [None]

    problem = load_problem(args.problem) if args.problem else None
    x0 = None
    if problem is not None:
        x0 = _parse_x0(args.x0, problem.dim)

    rows = []
    n_discrete = n_continuous = n_failed = 0
    for lam, l, beta in itertools.product(lam_grid, l_grid, beta_grid):
        row = {"lambda": lam, "l": l, "beta": beta, "status": "ok"}
        try:
            cert = full_certificate(ProblemConstants(
                L=args.L, rho=args.rho, l=l, lam=lam, beta=beta))
            d = cert.to_dict()
            d["f_lipschitz"] = cert.Lambda + 2.0  # (1+theta)(1+lambda*L)
            row.update(d)
            n_discrete += cert.discrete_ok
            n_continuous += cert.continuous_ok
            if problem is not None:
                trace = solve(problem, x0, SolverConfig(
                    lam=lam, max_iter=args.max_iter, tol=args.tol, variant=args.variant))
                if trace.status == STATUS_NUMERIC_FAILURE:
                    row["status"] = "numeric_failure"
                row["empirical_rate"] = trace.empirical_rate
        except (ValidationError, NumericFailure) as exc:
            # keep the cell parseable: the status column must stay comma-free
            row["status"] = f"error: {exc}".replace(",", ";")
            n_failed += 1
        rows.append(row)

    total = len(rows)
    lines = [
        f"# sweep: L={format_float(args.L)}, rho={format_float(args.rho)}",
        f"# cells: {total}",
        f"# discrete_ok: {n_discrete}/{total}",
        f"# continuous_ok: {n_continuous}/{total}",
    ]
    if n_discrete == 0 and n_continuous == 0 and n_failed == 0:
        lines.append("# sufficient conditions (continuous and discrete) unmet at every grid point")
    columns = ["lambda", "l", "beta", *SWEEP_FLOAT_COLUMNS, *SWEEP_FLAG_COLUMNS]
    if problem is not None:
        columns.append("empirical_rate")
    columns.append("status")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(row.get(name)) for name in columns))
    write_lines(_out(args), lines)
    return 0


def read_compare_csv(source: Union[str, Path, IO[str]]) -> dict:
    """Parse a compare CSV into {variant: {k, residual, dist_to_solution}}."""
    comments, _, rows = read_csv(source)
    per_variant: dict = {}
    for row in rows:
        variant, k, residual, dist = row.split(",")
        bucket = per_variant.setdefault(
            variant, {"k": [], "residual": [], "dist_to_solution": []})
        bucket["k"].append(int(k))
        bucket["residual"].append(float(residual))
        bucket["dist_to_solution"].append(np.nan if dist == "" else float(dist))
    for bucket in per_variant.values():
        bucket["k"] = np.array(bucket["k"], dtype=int)
        bucket["residual"] = np.array(bucket["residual"])
        bucket["dist_to_solution"] = np.array(bucket["dist_to_solution"])
    return {"meta": comment_meta(comments), "variants": per_variant}


def read_sweep_csv(source: Union[str, Path, IO[str]]) -> dict:
    """Parse a sweep CSV into comment metadata plus a list of row dicts."""
    comments, header, lines = read_csv(source)
    rows = []
    for line in lines:
        row = {}
        for name, value in zip(header, line.split(",")):
            if value == "":
                row[name] = None
            elif value in ("true", "false"):
                row[name] = value == "true"
            elif name == "status":
                row[name] = value
            else:
                try:
                    row[name] = float(value)
                except ValueError:
                    row[name] = value
        rows.append(row)
    return {"comments": comments, "columns": header or [], "rows": rows}


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qvisolve", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON run-configuration document")
    sub = parser.add_subparsers(dest="command")

    def add_output(p):
        p.add_argument("--output", "-o", help="output path (default: stdout)")

    p = sub.add_parser("certify", help="evaluate the constants and condition flags")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--l", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(p)
    p.set_defaults(func=cmd_certify)

    def add_problem_args(p):
        p.add_argument("--problem", required=True,
                       help="problem descriptor: JSON file path or inline JSON")
        p.add_argument("--x0", required=True,
                       help="'zeros', 'geometric', or comma-separated floats")

    p = sub.add_parser("solve", help="run one discrete solve and dump the trace")
    add_problem_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--variant", choices=VARIANTS, default="tseng")
    add_output(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("flow", help="integrate the continuous-time system")
    add_problem_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--h", type=float, required=True, help="time step")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--scheme", choices=("euler", "rk4"), default="euler")
    p.add_argument("--alpha", default=None,
                   help="time scaling: constant ('2.0') or table ('0:1,5:0.5')")
    p.add_argument("--coords", action="store_true", help="include coordinates in the CSV")
    add_output(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("compare", help="run several variants on one problem")
    add_problem_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--variants", default=",".join(VARIANTS))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)
    add_output(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="tabulate certificates (and rates) over grids")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--l", type=float, default=0.0, help="fixed l when --l-grid is absent")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="fixed lambda when --lambda-grid is absent")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--lambda-grid", default=None, help="'start:stop:count' or comma list")
    p.add_argument("--l-grid", default=None)
    p.add_argument("--beta-grid", default=None)
    p.add_argument("--problem", default=None,
                   help="optional problem; adds an empirical_rate column per cell")
    p.add_argument("--x0", default="geometric")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--variant", choices=VARIANTS, default="tseng")
    add_output(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _argv_from_config(doc: dict) -> List[str]:
    if "command" not in doc:
        raise ValidationError("config: missing 'command'")
    argv = [str(doc["command"])]
    for key, value in doc.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, dict):
            argv += [flag, json.dumps(value)]
        elif isinstance(value, (list, tuple)):
            argv += [flag, ",".join(str(v) for v in value)]
        elif value is None:
            continue
        else:
            argv += [flag, str(value)]
    return argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            path = Path(args.config)
            if not path.is_file():
                raise ValidationError(f"config: file not found: {path}")
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config: {exc}") from None
            args = parser.parse_args(_argv_from_config(doc))
        if args.command is None:
            raise ValidationError("no command given (try --help)")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
