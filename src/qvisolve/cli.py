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
import json
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence, Union

import numpy as np

from .certify import ProblemConstants, certificate_table, constant_errors, full_certificate
from .core import VARIANTS, NumericFailure, ValidationError, as_vector
from .csvio import (certificate_to_csv, compare_to_csv, error_status, flow_to_csv,
                    sweep_to_csv, trace_to_csv, write_lines)
from .csvio import read_sweep_csv  # noqa: F401  (bench/workloads.py imports it from here)
from .dynamics import SCHEMES, AlphaSchedule, FlowConfig, integrate
from .problems import load_problem, read_json_object
from .solvers import STATUS_NUMERIC_FAILURE, SolverConfig, solve

# the most cells one sweep may have (and so the largest 'a:b:N' count); a
# million cells write about 240 MB of CSV
MAX_SWEEP_CELLS = 1_000_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; route through the
    # validation-error path (exit 1) instead
    def error(self, message):
        raise ValidationError(message)


def _floats(spec: str, name: str, sep: str = ",", count: Optional[int] = None) -> List[float]:
    """The floats in spec split at sep (count of them, if given), else a ValidationError."""
    try:
        values = [float(v) for v in spec.split(sep)]
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from None
    if count is not None and len(values) != count:
        raise ValidationError(f"{name}: expected {count} {sep!r}-separated numbers, got {spec!r}")
    return values


def _parse_x0(spec: str, dim: int) -> np.ndarray:
    """'zeros', 'geometric' (x0_k = 1/(2*3^k)), or comma-separated floats."""
    if spec == "zeros":
        return np.zeros(dim)
    if spec == "geometric":
        # 3**k overflows to inf for k > 646, which gives the intended 0.0
        with np.errstate(over="ignore"):
            return 0.5 / 3.0 ** np.arange(dim)
    return as_vector(_floats(spec, "x0"), dim, name="x0")


def _parse_grid(spec: str, name: str) -> List[float]:
    """'start:stop:count' (inclusive linear grid) or comma-separated values."""
    if ":" not in spec:
        return _floats(spec, name)
    start, stop, count = _floats(spec, name, ":", 3)
    if not (count.is_integer() and count >= 1):
        raise ValidationError(f"{name}: grid count must be an integer >= 1, got {count!r}")
    if count > MAX_SWEEP_CELLS:
        raise ValidationError(f"{name}: grid count {int(count)} exceeds the limit of "
                              f"{MAX_SWEEP_CELLS} sweep cells")
    return [float(v) for v in np.linspace(start, stop, int(count))]


def _parse_alpha(spec: Optional[str]) -> Optional[AlphaSchedule]:
    """Constant ('1.0', i.e. the table '0:1.0') or table ('0:1.0,5:0.25')."""
    if spec is None:
        return None
    table = spec if ":" in spec else "0:" + spec
    times, values = zip(*(_floats(part, "alpha", ":", 2) for part in table.split(",")))
    return AlphaSchedule(times, values)


def _out(args) -> Union[str, IO[str]]:
    """Where a command writes: the --output path, else stdout."""
    return sys.stdout if args.output is None else args.output


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_certify(args) -> int:
    doc = full_certificate(ProblemConstants(
        L=args.L, rho=args.rho, l=args.l, lam=args.lam, beta=args.beta)).to_dict()
    if args.format == "json":
        write_lines(_out(args), [json.dumps(doc, indent=2)])
    else:
        certificate_to_csv(doc, _out(args))
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
    trace = integrate(problem, x0, config, keep_states=args.coords)
    flow_to_csv(trace, _out(args))
    return 2 if trace.status == STATUS_NUMERIC_FAILURE else 0


def cmd_compare(args) -> int:
    problem = load_problem(args.problem)
    x0 = _parse_x0(args.x0, problem.dim)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants or len(set(variants)) < len(variants) or not set(variants) <= set(VARIANTS):
        raise ValidationError(f"variants: need at least one of {'/'.join(VARIANTS)}, "
                              f"each named once, got {args.variants!r}")
    traces = [solve(problem, x0, SolverConfig(lam=args.lam, max_iter=args.max_iter,
                                              tol=args.tol, variant=variant))
              for variant in variants]
    compare_to_csv(traces, _out(args))
    return 2 if any(t.status == STATUS_NUMERIC_FAILURE for t in traces) else 0


SWEEP_COLUMNS = (
    "gamma", "theta", "radicand", "mu", "Lambda", "rate_r", "f_lipschitz", "discrete_rhs",
    "moving_rhs", "existence_ok", "nesterov_ok", "continuous_ok", "discrete_ok", "moving_ok",
    "radicand_ok",
)


def cmd_sweep(args) -> int:
    lam_grid = None if args.lambda_grid is None else _parse_grid(args.lambda_grid, "lambda-grid")
    l_grid = None if args.l_grid is None else _parse_grid(args.l_grid, "l-grid")
    beta_grid = None if args.beta_grid is None else _parse_grid(args.beta_grid, "beta-grid")
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
    cells = len(lam_grid) * len(l_grid) * len(beta_grid)
    if cells > MAX_SWEEP_CELLS:
        raise ValidationError(f"sweep: {cells} cells (lambda x l x beta) exceed the limit of "
                              f"{MAX_SWEEP_CELLS}")

    problem = load_problem(args.problem) if args.problem else None
    x0 = None if problem is None else _parse_x0(args.x0, problem.dim)

    errors = constant_errors(args.L, args.rho, lam_grid, l_grid, beta_grid)
    status = ["ok" if e is None else error_status(e) for e in errors.ravel().tolist()]
    ok = np.equal(errors, None)
    valid = np.flatnonzero(ok)
    # one table call over the valid cells; a None beta becomes its NaN
    lam_v, l_v, beta_v = (axis[ok] for axis in np.meshgrid(
        *(np.array(grid, dtype=float) for grid in (lam_grid, l_grid, beta_grid)), indexing="ij"))
    table = certificate_table(args.L, args.rho, l_v, lam_v, beta_v)
    columns = {name: table[name] for name in SWEEP_COLUMNS}
    if problem is not None:
        # the solve depends on lambda alone, so every (l, beta) cell of one
        # lambda shares its outcome; valid lambdas are positive and finite,
        # so equal keys mean equal bits
        outcomes, rates = {}, []
        for i, lam in zip(valid.tolist(), lam_v.tolist()):
            if lam not in outcomes:
                try:
                    trace = solve(problem, x0, SolverConfig(
                        lam=lam, max_iter=args.max_iter, tol=args.tol, variant=args.variant))
                    outcomes[lam] = (STATUS_NUMERIC_FAILURE
                                     if trace.status == STATUS_NUMERIC_FAILURE else "ok",
                                     trace.empirical_rate)
                except (ValidationError, NumericFailure) as exc:
                    outcomes[lam] = (error_status(exc), None)
            status[i], rate = outcomes[lam]
            rates.append(np.nan if rate is None else rate)
        columns["empirical_rate"] = np.array(rates, dtype=float)
    sweep_to_csv(_out(args), args.L, args.rho,
                 {"lambda": lam_grid, "l": l_grid, "beta": beta_grid}, columns, valid, status)
    return 0


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
    p.add_argument("--scheme", choices=SCHEMES, default="euler")
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
    """The command line a config document stands for. Each valued option is
    one '--key=value' token, so a value that starts with '-' stays a value."""
    if "command" not in doc:
        raise ValidationError("config: missing 'command'")
    argv = [str(doc["command"])]
    for key, value in doc.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, dict):
            argv.append(f"{flag}={json.dumps(value)}")
        elif isinstance(value, (list, tuple)):
            argv.append(f"{flag}={','.join(str(v) for v in value)}")
        else:
            argv.append(f"{flag}={value}")
    return argv


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            doc = read_json_object(Path(args.config), "config")
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
