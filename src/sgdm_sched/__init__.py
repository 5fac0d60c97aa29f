"""Momentum-SGD scheduling laboratory.

SHB/NSHB optimizers under dynamic learning-rate and batch-size schedules,
closed-form convergence-bound evaluation, synthetic problems with exact
constants, and a multi-seed harness that verifies the bounds empirically.
"""

from .schedules import (
    AdmissibilityReport,
    InadmissibleSchedule,
    MomentumTooLarge,
    ScheduleError,
    ScheduleSpec,
    ScheduleTable,
    table_to_csv,
    validate_admissible,
)
from .problems import IterateOutsideCertifiedBox, LogCoshProblem, QuadraticMeanProblem
from .optim import (
    NumericalDivergence,
    RunTrace,
    batch_indices,
    empirical_minibatch_variance,
    run,
)
from .theory import (
    TheoremConstants,
    TheoryReport,
    build_report,
    corollary_bounds,
    descent_inequality_rhs,
    lyapunov_value,
)
from .harness import (
    AggregateReport,
    AuditReport,
    ExperimentConfig,
    ProblemSpec,
    RateFit,
    lyapunov_descent_audit,
    rate_fit,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AggregateReport",
    "AuditReport",
    "ExperimentConfig",
    "InadmissibleSchedule",
    "IterateOutsideCertifiedBox",
    "LogCoshProblem",
    "MomentumTooLarge",
    "NumericalDivergence",
    "ProblemSpec",
    "QuadraticMeanProblem",
    "RateFit",
    "RunTrace",
    "ScheduleError",
    "ScheduleSpec",
    "ScheduleTable",
    "TheoremConstants",
    "TheoryReport",
    "batch_indices",
    "build_report",
    "corollary_bounds",
    "descent_inequality_rhs",
    "empirical_minibatch_variance",
    "lyapunov_descent_audit",
    "lyapunov_value",
    "rate_fit",
    "run",
    "run_experiment",
    "table_to_csv",
    "validate_admissible",
]
