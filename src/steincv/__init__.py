"""Stein-operator control variates for Monte Carlo variance reduction.

Control variates are zero-mean functions subtracted from an integrand to shrink
the variance of its Monte Carlo estimate. This package builds them by pushing
polynomial, kernel, neural-network and ensemble function classes through the
scalar Langevin operator L u = lap u + grad u . grad log pi, and trains them
either by minibatch SGD or by exact linear solves.
"""

__version__ = "0.1.0"

from .core import (
    Estimate,
    LinearCV,
    ScoredSampleSet,
    SplitIndex,
    estimate_mc,
    estimate_with_cv,
    mean_absolute_error,
    split_samples,
)
from .targets import (
    GaussianTarget,
    MixtureTarget,
    load_scored_samples,
    random_mixture,
    sample_target,
    save_scored_samples,
)
from .poly import (
    MultiIndexSet,
    PolynomialFamily,
    enumerate_multi_indices,
    fit_poly_exact,
    stein_poly_basis,
)
from .kernels import (
    BaseKernelParams,
    KernelFamily,
    base_kernel,
    base_kernel_derivatives,
    fit_control_functional,
    median_heuristic,
    stein_kernel,
    stein_kernel_gram,
)
from .mlp import MlpControlFunction, cv_values, forward_with_derivatives
from .ensemble import EnsembleFamily, build_multi_kernel_params, fit_semi_exact
from .training import (
    TrainConfig,
    TrainReport,
    design_matrix_spectrum,
    objective_least_squares,
    objective_variance,
    sgd_train,
)
from .problems import (
    GENZ_KINDS,
    GenzProblem,
    GpProblem,
    PolynomialIntegrand,
    Problem,
    gp_double_integral,
    gp_mean_embedding,
    parse_problem,
    sample_gp_problem,
    standard_normal_cdf,
)
from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    emit_report,
    run_benchmark,
)
