"""Kernel-based identification of nonlinear predictors with stability guarantees.

The package learns one-step-ahead predictors ``y_t = f(y_{t-m:t-1},
u_{t-m:t})`` by kernel ridge regression and makes the induced simulation
model provably stable (BIBS, ISS, or their incremental counterparts) by
restricting the kernel hyperparameters to a viability set and bounding the
predictor's norm during the fit.
"""

from .errors import (
    DivergenceError,
    InfeasibleTargetError,
    InputError,
    NumericError,
    StableSysidError,
    UnsupportedTargetError,
)
from .kernels import (
    FeatureGaussian,
    Gaussian,
    KernelInstance,
    LinearAffine,
    Matern32,
    NarxFading,
    Polynomial,
    ProductWithStationary,
    SumKernel,
    gaussian_delta_boundary,
    gram_matrix,
)
from .viability import (
    StabilityTarget,
    ViabilityWitness,
    feasible_parameterization,
    membership,
    numeric_falsifier,
)
from .solver import (
    FitProblem,
    FitReport,
    RegressionData,
    build_regression_data,
    find_alpha_bar,
    gamma_fn,
    solve_constrained,
)
from .selection import (
    OptimizerConfig,
    SelectionConfig,
    SelectionResult,
    eb_cost,
    gcv_cost,
    select_hyperparameters,
)
from .predictor import (
    PredictorModel,
    SimulationResult,
    load_model,
    metrics,
    one_step_predict,
    run_model,
    save_model,
    simulate,
)
from .benchmarks import (
    Dataset,
    MethodSpec,
    MonteCarloConfig,
    MonteCarloResult,
    SyntheticSystemSpec,
    generate_dataset,
    run_monte_carlo,
    simulate_hh,
    simulate_system_a,
    simulate_system_b,
    standard_methods,
    summarize,
)

__version__ = "0.1.0"
