"""Lyapunov equations, transition matrices and stability analysis for
linear systems x^delta = A(t) x on time-scale windows.

The window model unifies continuous intervals, uniform and nonuniform
discrete point sets, and mixed interval/gap structures; the solvers reduce
to the classical continuous and discrete Lyapunov theory on the respective
canonical scales.
"""

from .errors import ChronosLyapError
from .timescale import (
    Grid,
    PointClass,
    TimeScaleWindow,
    build_grid,
    classify,
    make_canonical,
    mu,
    rho,
    sigma,
    window_from_spec,
    window_to_spec,
)
from .tscalc import (
    RegressivityClass,
    ScalarSignal,
    delta_derivative,
    delta_integral,
    exp_ts,
    regressivity,
    stack_delta,
)
from .transition import (
    SystemMatrix,
    TransitionMatrix,
    check_matrix_regressive,
    sweep_transition,
    transition,
    transition_inverse,
)
from .lyapunov import (
    CostMatrix,
    GramianSolution,
    cdle_direct_solution,
    ddle_recursion_solution,
    solve_cale_oracle,
    solve_cdle,
    solve_dale_oracle,
    solve_ddle,
    solve_tsale_pointwise,
    solve_tsale_series,
    solve_tsdle,
    solve_tsdle_stationary,
    stationary_initial_condition,
    tsale_residual,
)
from .stability import (
    GammaDiagnostic,
    HminVerdict,
    StabilityRegion,
    StabilityReport,
    gamma_functional,
    hilger_contains,
    hmin_verdict,
    s_r_detect,
    stability_region,
    stability_report,
)
from .verify import (
    LyapunovTrace,
    Trajectory,
    empirical_decay,
    is_positive_definite,
    lyapunov_trace,
    simulate,
)

__version__ = "0.1.0"
