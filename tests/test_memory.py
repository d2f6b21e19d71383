"""Traces hold a bounded number of n-vectors: `solve` keeps only its final
iterate and `integrate` only its endpoint unless asked for every state; a
flow's t, V and envelope are float64 series of one entry per step. The
affine builder drops each n x n temporary once it has used it, and a
descriptor problem without a matrix builds none.

The bound is on memory allocated during the call (tracemalloc, which numpy
reports its buffers to), so it holds whatever the machine's speed. Keeping
every iterate, as a trace once did, peaks at about 92 MB here.
"""

import tracemalloc

import numpy as np
import pytest

from qvisolve import FlowConfig, SolverConfig, integrate, make_halfline_vi, make_l2_example, solve
from qvisolve.problems import load_problem, make_affine_qvi
from qvisolve.solvers import VARIANTS

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


def test_flow_series_memory_per_step_is_bounded():
    # t, V and the envelope are three float64 series, 24 B per step; while the
    # envelope is formed a bool mask of t == 0 adds 1 B, and the fixed buffers
    # (the 64 KiB einsum block) stay under 1 B per step at this length. Lists
    # of Python floats for t and V, as the flow once kept, read about 105 B
    steps = 100_000
    problem = make_halfline_vi()
    integrate(problem, [2.0], FlowConfig(lam=0.1, h=0.1, t_end=1.0))  # lazy imports
    config = FlowConfig(lam=0.1, h=1e-3, t_end=steps * 1e-3)
    peak, trace = peak_bytes(lambda: integrate(problem, [2.0], config))
    assert trace.status == "completed" and len(trace.t) == steps + 1
    assert peak < 32 * steps, f"{peak / steps:.1f} B per step"


def test_affine_build_memory_is_bounded():
    # the problem keeps two n x n matrices, and np.linalg.qr's own copies set
    # the build's peak at about four; keeping every temporary to the end, as
    # the build once did, peaks at about seven
    n = 300
    make_affine_qvi(2, seed=7, rho_target=1.0, L_target=3.0, beta=0.1)  # lazy imports
    peak, _ = peak_bytes(lambda: make_affine_qvi(n, seed=7, rho_target=1.0, L_target=3.0,
                                                 beta=0.1))
    assert peak < 5 * 8 * n * n, f"{peak / (8 * n * n):.2f} n^2 floats"



# descriptors with no matrix, whose oracles are elementwise, by dimension n
MATRIX_FREE = {
    "moving_set": lambda n: {"family": "moving_set", "n": n, "shift_scale": 0.1,
                             "base_set": {"type": "box", "lo": -1.0, "hi": 1.0}},
    "single_set_vi-identity": lambda n: {"family": "single_set_vi", "n": n,
                                         "operator": "identity",
                                         "set": {"type": "ball", "radius": 2.0}},
    "offset-only-operator": lambda n: {"family": "single_set_vi", "n": n,
                                       "operator": {"offset": np.linspace(-1.0, 1.0, n).tolist()},
                                       "set": {"type": "box", "lo": 0.0}},
}


@pytest.mark.parametrize("case", list(MATRIX_FREE))
def test_matrix_free_descriptor_load_memory_is_linear(case):
    # an n x n identity standing in for x -> scale*x + offset takes 1 n^2 floats
    n = 1000
    load_problem(MATRIX_FREE[case](2))  # lazy imports
    doc = MATRIX_FREE[case](n)
    peak, problem = peak_bytes(lambda: load_problem(doc))
    assert problem.dim == n
    assert peak < 0.1 * 8 * n * n, f"{peak / (8 * n * n):.2f} n^2 floats"
