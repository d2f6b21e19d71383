"""Smoke test of the benchmark harness at tiny sizes. It makes no timing
assertions: a shared 2-core box is too noisy for them.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracing import summarize  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {0: [m["name"] for m in spec["end_to_end"]],
                  1: [m["name"] for m in spec["per_layer"]]}


@pytest.mark.parametrize("workload", ["small-dim", "large-dim", "sweep"])
def test_workload_runs_and_repeats_its_csvs(workload):
    spec, names = declared()
    assert workload in [w["name"] for w in spec["workloads"]]
    digests = []
    for trace in (0, 1):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names[trace]
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)
        path = re.search(r"CSV digests: (\S+)", proc.stdout).group(1)
        digests.append(json.loads(Path(path).read_text())["digests"])
    metrics = result["metrics"]
    assert metrics["solvers.converged_ratio"]["value"] == 1.0
    assert metrics["problems.operator.calls"]["value"] > 0
    assert metrics["cli.exit_nonzero"]["value"] == 0
    # the traced and untraced processes wrote the same CSV bytes
    shared = digests[0].keys() & digests[1].keys()
    assert shared and all(digests[0][k] == digests[1][k] for k in shared)


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("small-dim", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        (0, "solvers.solve", 0.0, 10.0, None, 1),
        (1, "problems.operator", 1.0, 3.0, 0, 1),
        (2, "problems.project", 4.0, 5.0, 0, 1),
        (3, "bench.op", 20.0, 21.0, None, 2),
    ]
    s = summarize(spans)
    assert s["solvers.solve"] == {"count": 1, "total": 10.0, "self": 7.0}
    assert s["problems.operator"]["self"] == 2.0
    assert s["bench.op"]["total"] == 1.0
