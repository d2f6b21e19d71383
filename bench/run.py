#!/usr/bin/env python3
"""qvisolve benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload small-dim --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Each measurement is a fresh child process (child.py) with the BLAS thread
count pinned. With --trace 0 the run reports the end-to-end metrics: set-up
time is the median over several children, the timed phase is one child
running untraced rounds for --seconds, and a separate verify child re-runs
one round so that every CSV digest is compared across two processes. With
--trace 1 it reports the per-layer metrics from a traced child instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Any failed op makes correct false and the exit code 1.
See BENCHMARK.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("small-dim", "large-dim", "sweep")

#: children whose set-up time is measured; the median is setup_s
SETUP_RUNS = 5
BLAS_THREADS = 1
#: seconds a child may take beyond its timed phase
CHILD_SLACK = 60.0
#: the whole run, every child included, ends within this many seconds
RUN_BUDGET = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ok/attempted",
}
PER_LAYER = {
    "problems.operator.calls": "count",
    "problems.project.calls": "count",
    "problems.operator.busy_s": "s",
    "problems.project.busy_s": "s",
    "problems.bytes_computed": "B",
    "problems.build_s": "s",
    "core.overhead_ratio": "ratio",
    "solvers.iters": "count",
    "solvers.converged_ratio": "ratio",
    "solvers.self_s": "s",
    "solvers.overhead_ratio": "ratio",
    "solvers.peak_alloc_mb": "MB",
    "solvers.csv_write_s": "s",
    "solvers.csv_read_s": "s",
    "dynamics.steps": "count",
    "dynamics.field_evals": "count",
    "dynamics.self_s": "s",
    "dynamics.overhead_ratio": "ratio",
    "dynamics.peak_alloc_mb": "MB",
    "dynamics.csv_write_s": "s",
    "certify.full_certificate.us": "us",
    "certify.best_lambda.ms": "ms",
    "cli.main_s": "s",
    "cli.bytes_out": "B",
    "cli.csv_read_s": "s",
    "cli.self_s_est": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, mode: str, out_dir: Path, timeout: float):
    """Start child.py; return (set-up seconds, result payload or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--size", args.size, "--out-dir", str(out_dir)]
    lines: queue.Queue = queue.Queue()
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, encoding="utf-8")

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s = result = None
    try:
        while True:
            remaining = start + timeout - perf_counter()
            if remaining <= 0:
                raise ChildError(f"{mode} child exceeded {timeout:.0f} s")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                break
            if line.startswith("@@bench ready"):
                setup_s = perf_counter() - start
            elif line.startswith("@@bench result "):
                result = json.loads(line[len("@@bench result "):])
            else:
                sys.stderr.write(line)
        proc.wait(timeout=max(1.0, start + timeout - perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child did not exit after closing its output") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=5)
    if proc.returncode != 0 or setup_s is None or (mode != "setup" and result is None):
        raise ChildError(f"{mode} child exited with code {proc.returncode}")
    return setup_s, result


def tail(latencies_ms):
    """Highest of p90/p75/p50 with at least 10 ops beyond it: (name, value)."""
    cuts = statistics.quantiles(latencies_ms, n=20, method="inclusive")
    for name, k in (("p90", 18), ("p75", 15), ("p50", 10)):
        if len(latencies_ms) * (20 - k) >= 200 or name == "p50":
            return name, cuts[k - 1]


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l3": l3.read_text().strip() if l3.is_file() else "unknown",
        "blas_threads_pinned": BLAS_THREADS,
        "caller": "one closed-loop single-threaded Python caller per child process",
        "note": ("large-dim vectors (0.8 MB at n=1e5) are far below 4x the LLC, so "
                 "problems.bytes_computed counts array bytes and no bandwidth is claimed"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the harness smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qvisolve" / "__init__.py").is_file():
        print(f"error: no qvisolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run"
    out_dir = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = perf_counter() + RUN_BUDGET

    def child(mode, timeout):
        return run_child(args, mode, out_dir, min(timeout, deadline - perf_counter()))

    try:
        setup_times = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 2):
                setup_times.append(child("setup", CHILD_SLACK)[0])
        t, verify = child("verify", CHILD_SLACK)
        setup_times.append(t)
        t, res = child("traced" if args.trace else "timed", args.seconds + CHILD_SLACK)
        setup_times.append(t)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for csv in out_dir.glob("*.csv"):
            if csv.name != "spans.csv":
                csv.unlink()

    attempted = verify["attempted"] + res["attempted"]
    failed = verify["failed"] + res["failed"]
    failures = verify["failures"] + res["failures"]
    # the same seed must give the same CSV bytes in two processes
    for label, digest in verify["digests"].items():
        if res["digests"].get(label) != digest:
            failed += 1
            failures.append(f"{label}: CSV digest differs between two processes")

    if args.trace:
        units = PER_LAYER
        values = res["metrics"]
        notes = {"traced_rounds": res["traced_rounds"], "spans": res["spans"],
                 "traced_wall_s": res["traced_wall_s"], "untraced_wall_s": res["untraced_wall_s"]}
    else:
        units = END_TO_END
        lat_ms = [v * 1e3 for v in res["latencies"]]
        tail_name, tail_value = tail(lat_ms)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(res["walls"]),
            "op_ms.p50": statistics.median(res["round_medians"]) * 1e3,
            "op_ms.tail": tail_value,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        notes = {"op_ms.tail": f"{tail_name} of {len(lat_ms)} ops",
                 "op_ms.p50_pooled": statistics.median(lat_ms),
                 "rounds": len(res["walls"]), "setup_runs": len(setup_times),
                 "fail_ratio": f"{failed}/{attempted}"}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": {**machine(), **verify["env"]},
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
              "notes": notes, "digests": res["digests"], "failures": failures}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6g} {unit}")
    print("# " + json.dumps(notes))
    print(f"# {len(res['digests'])} CSV digests: {out_dir / 'result.json'}")
    for message in failures:
        print(f"# FAILED {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
