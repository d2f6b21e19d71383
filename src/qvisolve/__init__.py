"""Solvers, continuous-time flows, and convergence certificates for
quasi-variational inequalities (QVIs): problems where the constraint set
moves with the point, attacked with a single-projection
forward-backward-forward (Tseng-type) step.

The package exports what the quick start and the bundled scripts use; the
rest stays in its module (the problem builders and sets in
`qvisolve.problems`, the trace types in `qvisolve.solvers` and
`qvisolve.dynamics`, `Certificate` in `qvisolve.certify`)."""

from .core import (
    ConstraintSpec,
    NumericFailure,
    OperatorSpec,
    QviProblem,
    ValidationError,
    evaluate_operator,
    natural_residual,
    norm,
    project,
    tseng_map,
)
from .certify import ProblemConstants, best_lambda, certificate_table, full_certificate
from .solvers import (
    SolverConfig,
    extragradient_step,
    gradient_projection_step,
    solve,
    tseng_step,
)
from .dynamics import AlphaSchedule, FlowConfig, integrate
from .csvio import flow_to_csv, trace_to_csv
from .problems import default_problem_suite, make_affine_qvi, make_halfline_vi, make_l2_example

__version__ = "0.1.0"
