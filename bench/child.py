"""One benchmark process: build a workload's inputs, then run its rounds.

run.py starts this as a fresh child per measurement, with PYTHONPATH set to
the checkout's src/ and the BLAS thread count pinned. The child is one
closed-loop caller: single-threaded Python, each op starts when the previous
one has returned. It talks to run.py through stdout lines that start with
``@@bench``: ``ready`` once its inputs are built (run.py times set-up up to
that line), then one ``result`` with a JSON payload.

Modes:
  setup   build the inputs, then exit
  verify  build, then run one round under every correctness gate
  timed   a verify round, then untraced rounds for --seconds
  traced  a verify round, then untraced and traced rounds in turn (traced:
          oracles wrapped, spans recorded, probes added) for --seconds or 20
          traced rounds, then the per-call probes and one tracemalloc round
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import qvisolve
import workloads
from tracing import OPERATOR, PROJECT, Tracer, summarize

MAX_TRACED_ROUNDS = 20
#: fewest timed ops in a run: p90 then has at least 10 ops beyond it
MIN_OPS = 100
MAX_FAILURE_MESSAGES = 20
MiB = float(1 << 20)


def emit(kind: str, payload=None) -> None:
    line = "@@bench " + kind
    if payload is not None:
        line += " " + json.dumps(payload)
    print(line, flush=True)


class Tally:
    """Ops attempted and failed, failure messages, and each CSV's sha256 from
    its first round (later rounds must reproduce it byte for byte)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, label: str, errors) -> None:
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(f"{label}: {'; '.join(errors)}")


def run_round(ops, env, full: bool, tally: Tally, op_base: int = 0):
    """Run each op once and check it. Returns the latencies (s) of the ops
    that completed, and the summed op statistics."""
    latencies = []
    stats = Counter()
    for i, op in enumerate(ops):
        env.tracer.op_id = op_base + i
        tally.attempted += 1
        try:
            start = perf_counter()
            with env.tracer.span("bench.probe" if op.probe else "bench.op"):
                res = op.run(env)
            latencies.append(perf_counter() - start)
            errors = op.check(res, env, full)
            stats.update(op.stats(res))
            if op.csv is not None:
                digest = hashlib.sha256(Path(op.csv).read_bytes()).hexdigest()
                if tally.digests.setdefault(op.label, digest) != digest:
                    errors.append("CSV bytes differ from the first round's")
            del res
        except Exception as exc:  # an op that raises is a failed op; keep going
            errors = [f"raised {exc!r}"]
        if errors:
            tally.fail(op.label, errors)
    return latencies, stats


def environment() -> dict:
    """Versions and the BLAS thread count as this process sees them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qvisolve": qvisolve.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
    }


def timed(wl, env, tally: Tally, seconds: float):
    """Untraced rounds until `seconds` have passed and at least MIN_OPS ops
    have been timed, so that the tail percentile keeps its sample count:
    (op latencies, round walls, each round's median op latency)."""
    latencies, walls, medians = [], [], []
    start = perf_counter()
    while True:
        lat, _ = run_round(wl.ops, env, False, tally)
        latencies += lat
        walls.append(sum(lat))
        medians.append(float(np.median(lat)))
        if perf_counter() - start >= seconds and len(latencies) >= MIN_OPS:
            return latencies, walls, medians


def traced(wl, tracer: Tracer, raw_env, tally: Tally, seconds: float, out_dir: Path) -> dict:
    """Untraced and traced rounds in turn (so that drift in machine speed
    cancels out of the tracing overhead), then the per-call probes and the
    tracemalloc round; returns the per-layer metrics."""
    probes = wl.make_probes()
    round_ops = wl.ops + probes
    shadow_ids = {i for i, op in enumerate(round_ops) if getattr(op, "shadow", False)}
    env = workloads.Env({k: tracer.wrap(p) for k, p in wl.problems.items()}, tracer)

    rounds, untraced_walls = [], []
    start = perf_counter()
    while len(rounds) < MAX_TRACED_ROUNDS:
        lat, _ = run_round(wl.ops, raw_env, False, tally)
        untraced_walls.append(sum(lat))
        base = 1000 * (len(rounds) + 1)
        spans = tracer.segment(f"round{len(rounds) + 1}")
        bytes0 = tracer.bytes_computed
        _, stats = run_round(round_ops, env, False, tally, op_base=base)
        rounds.append((spans, stats, tracer.bytes_computed - bytes0, base))
        if len(rounds) >= 2 and perf_counter() - start >= seconds:
            break

    cert_us = workloads.full_certificate_us(wl)
    core_ratio = workloads.core_overhead_ratio(wl)

    # one untraced round under tracemalloc for the allocation peak of each call
    peaks = {"solve": [], "integrate": []}
    tracemalloc.start()
    try:
        for op in round_ops:
            tracemalloc.reset_peak()
            run_round([op], raw_env, False, tally)
            if op.kind in peaks:
                peaks[op.kind].append(tracemalloc.get_traced_memory()[1] / MiB)
    finally:
        tracemalloc.stop()

    spans_written = tracer.write(out_dir / "spans.csv")

    per_round = []
    best_lambda_ms = []
    for spans, stats, nbytes, base in rounds:
        s = summarize(spans)
        solve, integ, cli = s["solvers.solve"], s["dynamics.integrate"], s["cli.main"]
        shadow_solve = sum(end - begin for _, name, begin, end, _, op_id in spans
                           if name == "solvers.solve" and op_id - base in shadow_ids)
        best_lambda_ms += [(end - begin) * 1e3 for _, name, begin, end, *_ in spans
                           if name == "certify.best_lambda"]
        per_round.append({
            "problems.operator.calls": s[OPERATOR]["count"],
            "problems.project.calls": s[PROJECT]["count"],
            "problems.operator.busy_s": s[OPERATOR]["total"],
            "problems.project.busy_s": s[PROJECT]["total"],
            "problems.bytes_computed": nbytes,
            "solvers.iters": stats["iters"],
            "solvers.converged_ratio": stats["converged"] / max(1, stats["solves"]),
            "solvers.self_s": solve["self"],
            "solvers.overhead_ratio": solve["total"] / (solve["total"] - solve["self"]),
            "solvers.csv_write_s": s["solvers.trace_to_csv"]["total"],
            "solvers.csv_read_s": s["solvers.read_trace_csv"]["total"],
            "dynamics.steps": stats["steps"],
            "dynamics.field_evals": stats["field_evals"],
            "dynamics.self_s": integ["self"],
            "dynamics.overhead_ratio": integ["total"] / (integ["total"] - integ["self"]),
            "dynamics.csv_write_s": s["dynamics.flow_to_csv"]["total"],
            "cli.main_s": cli["total"],
            "cli.bytes_out": stats["cli_bytes_out"],
            "cli.csv_read_s": s["cli.read_csv"]["total"],
            "cli.self_s_est": cli["total"] - shadow_solve - stats["cli_cells"] * cert_us * 1e-6,
            "cli.exit_nonzero": stats["cli_exit_nonzero"],
            "wall_s": s["bench.op"]["total"],
        })
    metrics = {name: float(np.median([r[name] for r in per_round])) for name in per_round[0]}
    traced_wall = metrics.pop("wall_s")
    metrics.update({
        "problems.build_s": summarize(tracer.segments["setup"])["problems.build"]["total"],
        "core.overhead_ratio": core_ratio,
        "solvers.peak_alloc_mb": max(peaks["solve"]),
        "dynamics.peak_alloc_mb": max(peaks["integrate"]),
        "certify.full_certificate.us": cert_us,
        "certify.best_lambda.ms": float(np.median(best_lambda_ms)),
        "trace.overhead_s": traced_wall - float(np.median(untraced_walls)),
    })
    return {"metrics": metrics, "traced_rounds": len(rounds), "spans": spans_written,
            "traced_wall_s": traced_wall, "untraced_wall_s": float(np.median(untraced_walls))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "verify", "timed", "traced"))
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--out-dir", required=True, type=Path)
    args = ap.parse_args(argv)

    tracer = Tracer(enabled=args.mode == "traced")
    tracer.segment("setup")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir, tracer, args.size)
    emit("ready")
    if args.mode == "setup":
        return 0

    tally = Tally()
    raw_env = workloads.Env(wl.problems, Tracer(enabled=False))
    run_round(wl.ops, raw_env, True, tally)
    result = {}
    if args.mode == "verify":
        result["env"] = environment()
    elif args.mode == "timed":
        latencies, walls, medians = timed(wl, raw_env, tally, args.seconds)
        result.update(latencies=latencies, walls=walls, round_medians=medians,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        result.update(traced(wl, tracer, raw_env, tally, args.seconds, args.out_dir))
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.messages, digests=tally.digests)
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
