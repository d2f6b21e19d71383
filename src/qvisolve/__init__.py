"""Solvers, continuous-time flows, and convergence certificates for
quasi-variational inequalities (QVIs): problems where the constraint set
moves with the point, attacked with a single-projection
forward-backward-forward (Tseng-type) step."""

from .core import (
    ConstraintSpec,
    NumericFailure,
    OperatorSpec,
    QviProblem,
    ValidationError,
    as_vector,
    evaluate_operator,
    natural_residual,
    norm,
    project,
    tseng_map,
)
from .certify import (
    Certificate,
    ProblemConstants,
    best_lambda,
    certificate_table,
    existence_bounds,
    full_certificate,
)
from .solvers import (
    IterationRecord,
    IterationTrace,
    SolverConfig,
    extragradient_step,
    gradient_projection_step,
    solve,
    tseng_step,
)
from .dynamics import AlphaSchedule, FlowConfig, FlowTrace, integrate, rhs
from .csvio import flow_to_csv, trace_to_csv
from .problems import (
    AffineMap,
    BallSet,
    BoxSet,
    MovingSetSpec,
    default_problem_suite,
    load_problem,
    make_affine_qvi,
    make_halfline_vi,
    make_l2_example,
    make_moving_box_problem,
    make_moving_set_problem,
    make_single_set_problem,
    moving_set_project,
)

__version__ = "0.1.0"
