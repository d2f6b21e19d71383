import math

import hypothesis
import numpy as np
import pytest

from qvisolve import make_halfline_vi, make_l2_example
from qvisolve.problems import default_problem_suite

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=100, derandomize=True)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def l2_problem():
    return make_l2_example(50, 2.0)


@pytest.fixture(scope="session")
def halfline():
    return make_halfline_vi()


@pytest.fixture(scope="session")
def problem_suite():
    return default_problem_suite()


@pytest.fixture(scope="session")
def geometric_x0():
    # the Figure-style start 1/2, 1/6, 1/18, ... truncated to 50 coordinates
    return 0.5 / 3.0 ** np.arange(50)


@pytest.fixture(scope="session")
def halfline_reference_endpoint():
    """Exact endpoint x(5) of the half-line flow (lambda=0.1, x0=2), shared by
    the order-of-convergence checks.

    With F(x) = x and K = [1, inf), y = max(1, 0.9x). While x >= 10/9,
    y = 0.9x and the field is 0.9x + 0.1(x - 0.9x) - x = -0.09x, so
    x(t) = 2 exp(-0.09 t). That path decreases from 2 to 2 exp(-0.45) ~ 1.275
    at t = 5 and so never leaves x >= 10/9: the endpoint is 2 exp(-0.45).
    """
    return 2.0 * math.exp(-0.45)
