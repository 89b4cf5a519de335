"""Every exported name resolves: each module's ``__all__`` and the package
namespace, which holds exactly the public names listed here."""

import importlib
import inspect
import pkgutil

import pytest

import stable_sysid

MODULES = sorted(f"stable_sysid.{info.name}" for info in pkgutil.iter_modules(stable_sysid.__path__))

# the package's public surface: adding or removing a name is an edit here
PUBLIC = {
    # errors
    "StableSysidError", "InputError", "NumericError", "DivergenceError",
    "InfeasibleTargetError", "UnsupportedTargetError",
    # kernels
    "LinearAffine", "Polynomial", "Gaussian", "Matern32", "NarxFading", "FeatureGaussian",
    "SumKernel", "ProductWithStationary", "KernelInstance",
    "gram_matrix", "gaussian_delta_boundary",
    # viability
    "StabilityTarget", "ViabilityWitness", "membership", "numeric_falsifier", "feasible_parameterization",
    # solver
    "RegressionData", "FitProblem", "FitReport", "build_regression_data",
    "gamma_fn", "find_alpha_bar", "solve_constrained",
    # selection
    "OptimizerConfig", "SelectionConfig", "SelectionResult",
    "eb_cost", "gcv_cost", "select_hyperparameters",
    # predictor
    "PredictorModel", "SimulationResult", "one_step_predict", "simulate",
    "metrics", "run_model", "save_model", "load_model",
    # benchmarks
    "Dataset", "SyntheticSystemSpec", "MethodSpec", "MonteCarloConfig", "MonteCarloResult",
    "simulate_system_a", "simulate_system_b", "simulate_hh", "generate_dataset",
    "standard_methods", "run_monte_carlo", "summarize",
}


def public_names() -> dict:
    """The package's public names other than its submodules."""
    return {
        name: value for name, value in vars(stable_sysid).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_import(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in getattr(module, "__all__", ()) if n not in namespace] == []


def test_package_names_are_their_modules_exports():
    """A public name of the package is the object of that name in the module
    that defines it, and is in that module's ``__all__`` where it has one."""
    for name, value in public_names().items():
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name
        assert name in getattr(module, "__all__", [name]), name


def test_package_namespace_is_the_listed_surface():
    assert set(public_names()) == PUBLIC
