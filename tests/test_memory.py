"""Traces hold a bounded number of n-vectors: `solve` keeps only its final
iterate and `integrate` only its endpoint unless asked for every state; a
flow's t, V and envelope are float64 series of one entry per step. The
affine builder drops each n x n temporary once it has used it, and a
descriptor problem without a matrix builds none: it loads in memory linear in n.

CSV writers and readers do not hold a file's text: a writer holds its cell
texts and one block of rows, and a reader its rows as it parses them.

The bound is on memory allocated during the call (tracemalloc, which numpy
reports its buffers to), so it holds whatever the machine's speed. Keeping
every iterate, as a trace once did, peaks at about 92 MB here.
"""

import tracemalloc

import numpy as np
import pytest

from qvisolve import (AlphaSchedule, FlowConfig, SolverConfig, integrate, make_halfline_vi,
                      make_l2_example, solve)
from qvisolve.cli import main
from qvisolve.csvio import flow_to_csv, read_flow_csv
from qvisolve.dynamics import FlowTrace
from qvisolve.problems import load_problem, make_affine_qvi
from qvisolve.core import VARIANTS

N = 100_000
BOUND = 16 * N * 8  # 16 float vectors: 12.8 MB
LAM = 0.5 / 3.0


@pytest.fixture(scope="module")
def l2_large():
    problem = make_l2_example(N)
    return problem, np.full(N, 1.0 / np.sqrt(N))


def peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def per_unit(peak_at, sizes, at):
    """The peaks of peak_at(size) at the two sizes, extrapolated along their
    line: (its slope, the peak per unit at `at` units)."""
    (small, large), (p_small, p_large) = sizes, [peak_at(size) for size in sizes]
    slope = (p_large - p_small) / (large - small)
    return slope, (p_small + slope * (at - small)) / at


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_memory_is_bounded(l2_large, variant):
    problem, x0 = l2_large
    peak, trace = peak_bytes(lambda: solve(problem, x0, SolverConfig(lam=LAM, variant=variant)))
    assert trace.status == "converged"
    assert len(trace.records) > 16  # enough iterations that kept iterates would show
    assert peak < BOUND, f"{peak / 1e6:.1f} MB"


def test_integrate_memory_is_bounded(l2_large):
    problem, x0 = l2_large
    config = FlowConfig(lam=LAM, h=0.1, t_end=4.0)
    peak, trace = peak_bytes(lambda: integrate(problem, x0, config))
    assert trace.status == "completed"
    assert len(trace.t) == 41 and trace.x.shape == (1, N)
    assert peak < BOUND, f"{peak / 1e6:.1f} MB"


# alpha -> the tracemalloc bound on a half-line flow's peak, in B per step
FLOW_SERIES_BOUND = {
    # t, V and the envelope are three float64 series, 24 B per step; while the
    # envelope is formed a bool mask of t == 0 adds 1 B, and the fixed buffers
    # (the 64 KiB einsum block) stay under 1 B per step at 1e5 steps. Lists
    # of Python floats for t and V, as the flow once kept, read about 105 B
    None: 32,
    # the scaled time adds a fourth series, and while it is formed an int64
    # piece index and one gathered float64 temporary: about 41 B. One Python
    # float per step, as the scaled time once was, reads about 57 B
    AlphaSchedule((0.0, 20.0, 50.0), (1.0, 0.5, 2.0)): 48,
}


@pytest.mark.parametrize("alpha", list(FLOW_SERIES_BOUND), ids=["unscaled", "3-piece-alpha"])
def test_flow_series_memory_per_step_is_bounded(alpha):
    # the peak is affine in the step count, so the line through the peaks of
    # two short flows bounds the peak per step at any length: through 1e4 and
    # 2e4 steps it predicts 1e5 steps to within 0.4 B per step (25.3 B against
    # 25.7 B unscaled, 40.69 B against 40.69 B with the schedule). Both flows
    # run to t = 100, so the schedule's three pieces are each crossed
    problem = make_halfline_vi()
    integrate(problem, [2.0], FlowConfig(lam=0.1, h=0.1, t_end=1.0, alpha=alpha))  # lazy imports

    def flow_peak(steps):
        config = FlowConfig(lam=0.1, h=100.0 / steps, t_end=100.0, alpha=alpha)
        peak, trace = peak_bytes(lambda: integrate(problem, [2.0], config))
        assert trace.status == "completed" and len(trace.t) == steps + 1
        return peak

    slope, per_step = per_unit(flow_peak, (10_000, 20_000), 100_000)
    assert slope < FLOW_SERIES_BOUND[alpha], f"{slope:.1f} B per step"
    assert per_step < FLOW_SERIES_BOUND[alpha], f"{per_step:.1f} B per step at 1e5 steps"


def test_affine_build_memory_is_bounded():
    # the problem keeps two n x n matrices, and np.linalg.qr's own copies set
    # the build's peak at about four; keeping every temporary to the end, as
    # the build once did, peaks at about seven
    n = 300
    make_affine_qvi(2, seed=7, rho_target=1.0, L_target=3.0, beta=0.1)  # lazy imports
    peak, _ = peak_bytes(lambda: make_affine_qvi(n, seed=7, rho_target=1.0, L_target=3.0,
                                                 beta=0.1))
    assert peak < 5 * 8 * n * n, f"{peak / (8 * n * n):.2f} n^2 floats"



# descriptors with no n x n array, whose oracles are elementwise, by dimension
# n; their vectors are lists, as JSON gives them
MATRIX_FREE = {
    "l2_example": lambda n: {"family": "l2_example", "n": n},
    "moving_set": lambda n: {"family": "moving_set", "n": n, "shift_scale": 0.1,
                             "shift_offset": np.linspace(-1.0, 1.0, n).tolist(),
                             "base_set": {"type": "box", "lo": -1.0, "hi": 1.0}},
    "moving_set-ball": lambda n: {"family": "moving_set", "n": n, "shift_scale": 0.1,
                                  "shift_offset": np.linspace(-1.0, 1.0, n).tolist(),
                                  "base_set": {"type": "ball", "radius": 2.0}},
    "single_set_vi-identity": lambda n: {"family": "single_set_vi", "n": n,
                                         "operator": "identity",
                                         "set": {"type": "ball", "radius": 2.0},
                                         "known_solution": [0.0] * n},
    "offset-only-operator": lambda n: {"family": "single_set_vi", "n": n,
                                       "operator": {"offset": np.linspace(-1.0, 1.0, n).tolist()},
                                       "set": {"type": "box", "lo": 0.0}},
}


@pytest.mark.parametrize("case", list(MATRIX_FREE))
def test_matrix_free_descriptor_load_memory_is_linear(case):
    # a few float vectors and their temporaries: 16 to 48 B per entry, the
    # same at 1e4 and at 1e5 entries. An n x n identity standing in for
    # x -> scale*x + offset would take 8n B per entry
    load_problem(MATRIX_FREE[case](2))  # lazy imports
    per_entry = {}
    for n in (10_000, N):
        doc = MATRIX_FREE[case](n)
        peak, problem = peak_bytes(lambda: load_problem(doc))
        assert problem.dim == n
        per_entry[n] = peak / n
    assert per_entry[N] < 64, f"{per_entry[N]:.1f} B per entry at n = {N}"
    assert abs(per_entry[N] - per_entry[10_000]) <= 0.1 * per_entry[10_000], per_entry


def flow_trace(steps):
    """A flow-shaped trace of steps + 1 rows whose cells print 17 digits."""
    t = np.arange(steps + 1) * (100.0 / steps)
    return FlowTrace(t=t, x=np.zeros((1, 1)), V=np.exp(-t / 3), envelope=np.exp(-t / 7),
                     Lambda=-1 / 7, status="completed", keep_states=False)


# the CSV bounds are in B per row (or sweep cell) at STREAM_ROWS rows,
# extrapolated from tables of STREAM_SIZES rows. At these sizes one block of
# rows is small beside the rest: through 5e3 and 1e4 rows the line predicts
# 2e5 rows to within 1 B per row on writing and reading a flow (252.5 against
# 252.6 B, 224.6 against 224.1 B) and 20 B per sweep cell (306 against 326 B)
STREAM_ROWS = 200_000
STREAM_SIZES = (5_000, 10_000)


def test_flow_csv_write_memory_per_step_is_bounded(tmp_path):
    # the t, V and envelope cell texts and one block of rows: about 253 B per
    # step at 2e5 steps. Joining the file's whole text besides, as the writer
    # once did, read about 430 B
    def write_peak(steps):
        trace = flow_trace(steps)
        return peak_bytes(lambda: flow_to_csv(trace, tmp_path / "flow.csv"))[0]

    slope, per_step = per_unit(write_peak, STREAM_SIZES, STREAM_ROWS)
    assert per_step < 320, f"{per_step:.1f} B per step at {STREAM_ROWS} steps ({slope:.1f} slope)"


def test_flow_csv_read_memory_per_row_is_bounded(tmp_path):
    # the rows' floats as lists and then as the returned (rows, 3) array:
    # about 225 B per row. Holding the text, its lines and a list of rows
    # besides, as the reader once did, read about 367 B
    def read_peak(steps):
        flow_to_csv(flow_trace(steps), tmp_path / "flow.csv")
        peak, doc = peak_bytes(lambda: read_flow_csv(tmp_path / "flow.csv"))
        assert len(doc["t"]) == steps + 1
        return peak

    slope, per_row = per_unit(read_peak, STREAM_SIZES, STREAM_ROWS)
    assert per_row < 300, f"{per_row:.1f} B per row at {STREAM_ROWS} rows ({slope:.1f} slope)"


def test_sweep_command_memory_per_cell_is_bounded(tmp_path):
    # the certificate table, the error cells and the writer's column lists of
    # shared cell texts: about 325 B per cell at 2e5 cells. A list of every
    # row and the file's joined text, as the writer once made, read about 1100 B
    def sweep_peak(cells):
        argv = ["sweep", "--L", "3", "--rho", "1", "--lambda-grid", f"0.01:0.5:{cells // 100}",
                "--l-grid", "0:0.3:10", "--beta-grid", "0:0.5:10",
                "-o", str(tmp_path / "sweep.csv")]
        peak, code = peak_bytes(lambda: main(argv))
        assert code == 0
        return peak

    main(["sweep", "--L", "3", "--rho", "1", "--lambda-grid", "0.1", "-o",
          str(tmp_path / "sweep.csv")])  # lazy imports
    slope, per_cell = per_unit(sweep_peak, STREAM_SIZES, STREAM_ROWS)
    assert per_cell < 400, f"{per_cell:.1f} B per cell at {STREAM_ROWS} cells ({slope:.1f} slope)"
