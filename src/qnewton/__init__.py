"""Newton-type optimization with spectrally reflected steps.

The step direction is |A|^-1 grad f where A is the Hessian shifted just
enough to be safely invertible and |A| reflects the sign of every negative
eigenvalue.  Near a nondegenerate local minimum this is exactly Newton's
method; near a saddle the reflection turns the attracting directions into
repelling ones, so the iteration escapes instead of converging to it.

Submodules: ``spectral`` (symmetric eigendecomposition and the reflected
solve), ``objectives`` (benchmark catalog, finite differences, the chain
model, stochastic objectives), ``optimizers`` (the methods and the run
driver), ``rootfind`` (complex root finding via squared-modulus descent),
``harness`` (experiment batches and reports), ``fixtures`` (pinned start
points), ``cli`` (the command line).
"""

from .errors import (DomainError, InvalidInputError, NoConvergenceError,
                     NoValidDeltaError, QNewtonError, SingularMatrixError,
                     StalledLineSearchError)
from .spectral import SpectralDecomposition, eigh, reflect_inverse_apply
from .objectives import (Objective, fd_gradient, fd_hessian, make_benchmark,
                         make_stochastic_griewank, protein_objective)
from .optimizers import (DeltaSchedule, IterationRecord, METHODS,
                         StopCriteria, Trace, run, select_delta)
from .rootfind import (MeroFunction, RootResult, builtin,
                       classify_critical_point, exp_rational_derivative,
                       find_root, mero_objective, poly_from_roots, poly_mero,
                       zeta_partial)
from .harness import (ExperimentSpec, MethodConfig, ResultRow, build_spec,
                      emit_report, run_experiment, suite_spec)

__version__ = "0.1.0"

__all__ = [
    "DeltaSchedule", "DomainError", "ExperimentSpec", "IterationRecord",
    "InvalidInputError", "METHODS", "MeroFunction", "MethodConfig",
    "NoConvergenceError", "NoValidDeltaError", "Objective", "QNewtonError",
    "ResultRow", "RootResult", "SingularMatrixError", "SpectralDecomposition",
    "StalledLineSearchError", "StopCriteria", "Trace", "build_spec",
    "builtin", "classify_critical_point", "emit_report",
    "eigh", "exp_rational_derivative", "fd_gradient", "fd_hessian",
    "find_root", "make_benchmark", "make_stochastic_griewank",
    "mero_objective", "poly_from_roots", "poly_mero",
    "protein_objective", "reflect_inverse_apply", "run", "run_experiment",
    "select_delta", "suite_spec", "zeta_partial",
    "__version__",
]
