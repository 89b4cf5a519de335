"""The boundary rules of :mod:`stable_sysid.config`, as every entry point applies them.

Each count, real and flag field of the config classes, and ``beta`` of the
public costs and of the k-fold cost, rejects ``True``, ``"1"``, nan and inf
with :class:`InputError` (a flag accepts ``True`` and rejects ``1``
instead); membership and :class:`KernelInstance` read ``eta`` entries by
one rule; the public functions that take plain numbers raise
:class:`InputError` for a string, a bool, a non-finite value or one out of
range; every public entry point that takes an array rejects string, bool,
complex and None entries, ragged nesting, a rank it does not take, and the
non-finite values it cannot use; every field that holds an object of a config class rejects
anything else at construction, and every public entry point rejects an
object argument of another class, naming the argument; and the removed H
solver step key exits 2 before any integration.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from stable_sysid import benchmarks, cli
from stable_sysid.benchmarks import (
    Dataset,
    MethodSpec,
    MonteCarloConfig,
    MultisineRealization,
    SyntheticSystemSpec,
    generate_dataset,
    hh_alpha,
    hh_beta,
    run_monte_carlo,
    simulate_hh,
    simulate_system_a,
    simulate_system_b,
    standard_methods,
    summarize,
    write_dataset_csv,
    write_results_csv,
)
from stable_sysid.errors import InputError
from stable_sysid.kernels import (
    Gaussian,
    KernelInstance,
    LinearAffine,
    ProductWithStationary,
    SumKernel,
    gaussian_delta_boundary,
    gram_matrix,
    metric_pairs,
)
from stable_sysid.predictor import PredictorModel, metrics, one_step_predict, run_model, save_model, simulate
from stable_sysid.selection import OptimizerConfig, SelectionConfig, _kfold, eb_cost, gcv_cost, select_hyperparameters
from stable_sysid.solver import (
    FitProblem, RegressionData, build_regression_data, find_alpha_bar, gamma_fn, solve_constrained,
)
from stable_sysid.viability import StabilityTarget, feasible_parameterization, membership, numeric_falsifier

GAUSS_ETA = (0.5, 1.0, 0.1)
DATA = build_regression_data(np.sin(np.arange(30.0)), np.cos(np.arange(30.0)), 2)
KERNEL = KernelInstance(Gaussian(), GAUSS_ETA, 5)
DISS_MAP = feasible_parameterization(Gaussian(), StabilityTarget.diss())
SPEC = SyntheticSystemSpec("B", n_train=20, n_valid=20)
METHOD = MethodSpec("Bb", Gaussian(), SelectionConfig(target=StabilityTarget.diss()))
MC = MonteCarloConfig(runs=1, systems=(SPEC,), methods=(METHOD,))
PROBLEM = FitProblem(DATA, KERNEL, beta=1e-3)

# (what, kind, build from one value): every count, real and flag field of
# the config classes, and every public beta
FIELDS = [
    *((f"SelectionConfig.{n}", kind, lambda v, n=n: SelectionConfig(**{n: v}))
      for n, kind in [("seed", "count"), ("iota", "real"), ("chi", "real"), ("cap_aware_cost", "flag")]),
    *((f"OptimizerConfig.{n}", "count", lambda v, n=n: OptimizerConfig(**{n: v})) for n in ("restarts", "max_evals")),
    *((f"MonteCarloConfig.{n}", "count", lambda v, n=n: replace(MC, **{n: v})) for n in ("runs", "model_order", "n_jobs")),
    *((f"SyntheticSystemSpec.{n}", kind, lambda v, n=n: replace(SPEC, **{n: v}))
      for n, kind in [("seed", "count"), ("n_train", "count"), ("n_valid", "count"), ("noise_std", "real")]),
    *((f"FitProblem.{n}", kind, lambda v, n=n: replace(PROBLEM, **{n: v}))
      for n, kind in [("beta", "real"), ("chi", "real"), ("constrained", "flag")]),
    ("KernelInstance.input_dim", "count", lambda v: KernelInstance(Gaussian(), GAUSS_ETA, v)),
    *((f"KernelInstance.eta[{i}]", "real",
       lambda v, i=i: KernelInstance(Gaussian(), GAUSS_ETA[:i] + (v,) + GAUSS_ETA[i + 1:], 5)) for i in range(3)),
    *((f"{cost.__name__}(beta)", "real", lambda v, cost=cost: cost(v, GAUSS_ETA, DATA, Gaussian()))
      for cost in (eb_cost, gcv_cost)),
    ("_kfold(beta)", "real", lambda v: _kfold(v, GAUSS_ETA, DATA, Gaussian(), None)),
]
BAD = {"count": [True, "1", math.nan, math.inf], "real": [True, "1", math.nan, math.inf],
       "flag": [1, "1", math.nan, math.inf]}


@pytest.mark.parametrize("what,kind,build", FIELDS, ids=[f[0] for f in FIELDS])
def test_every_checked_field_rejects_bools_strings_and_non_finite_values(what, kind, build):
    for value in BAD[kind]:
        with pytest.raises(InputError):
            build(value)


def test_flags_take_bools_only():
    assert SelectionConfig(cap_aware_cost=False).cap_aware_cost is False
    assert replace(PROBLEM, constrained=False).constrained is False
    with pytest.raises(InputError, match="^constrained must be true or false, got 'no'$"):
        replace(PROBLEM, constrained="no")


class TestEtaEntries:
    """Membership and KernelInstance read an eta entry by the same rule."""

    @pytest.mark.parametrize("entry", [np.float32(0.5), np.float64(0.5), np.int64(1), 1])
    def test_numpy_and_integer_reals_pass_both(self, entry):
        eta = (entry, 1.0, 0.0)
        assert KernelInstance(Gaussian(), eta, 5).eta == (float(entry), 1.0, 0.0)
        assert membership(Gaussian(), eta, StabilityTarget.viable(0.5)) == (float(entry) <= 0.5)
        assert membership(Gaussian(), eta, StabilityTarget.delta_viable(0.0)) == (2.0 * float(entry) <= 1.0)

    @pytest.mark.parametrize("entry", [True, False, "0.5", math.nan, math.inf])
    def test_bools_strings_and_non_finite_values_fail_both(self, entry):
        eta = (entry, 1.0, 0.0)
        with pytest.raises(InputError, match="^hyperparameter tau must be a number with a finite value"):
            KernelInstance(Gaussian(), eta, 5)
        with pytest.raises(InputError, match="^hyperparameter tau must be a number with a finite value"):
            membership(Gaussian(), eta, StabilityTarget.viable(0.5))

    def test_sum_weights_accept_numpy_reals(self):
        structure = SumKernel((Gaussian(), LinearAffine()))
        eta = (np.float32(0.25), np.float32(0.5), 0.5, 1.0, 0.0, 0.5, 0.0)
        assert KernelInstance(structure, eta, 5).eta == (0.25, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0)
        assert membership(structure, eta, StabilityTarget.viable(0.5))
        with pytest.raises(InputError, match="^sum kernel weight must be a number"):
            membership(structure, (True,) + eta[1:], StabilityTarget.viable(0.5))


class TestHStep:
    """The H solver step is no setting: naming it in a config exits 2
    before any integration and writes nothing."""

    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    def test_cli_exits_before_any_integration(self, tmp_path, monkeypatch, capsys, command):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated before the keys were checked")

        monkeypatch.setattr(benchmarks, "simulate_hh", integrate)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": "H", "n_train": 20, "n_valid": 20, "hh_dt": 0.001, "out": str(tmp_path)}))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_INPUT
        assert f"unknown keys ['hh_dt'] in {command} config" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]


# public functions whose arguments go through the config rules: each call
# raises InputError, not a TypeError, ValueError or OverflowError, and a bool
# is not read as 1
ARGUMENTS = {
    "gamma_fn-alpha-string": lambda: gamma_fn(np.eye(3), np.ones(3), 2, 0.5, "1"),
    "gaussian_delta_boundary-tau-string": lambda: gaussian_delta_boundary("1", 1.0),
    "membership-eta-integer": lambda: membership(Gaussian(), 5, StabilityTarget.viable(0.5)),
    "membership-structure-string": lambda: membership("gaussian", GAUSS_ETA, StabilityTarget.viable(0.5)),
    "membership-target-string": lambda: membership(Gaussian(), GAUSS_ETA, "iss"),
    "numeric_falsifier-kernel-string": lambda: numeric_falsifier("gaussian", StabilityTarget.viable(0.5)),
    "numeric_falsifier-target-none": lambda: numeric_falsifier(KERNEL, None),
    "feasible_parameterization-structure-string": lambda: feasible_parameterization("gaussian", StabilityTarget.iss()),
    "feasible_parameterization-target-string": lambda: feasible_parameterization(Gaussian(), "iss"),
    "feasible_parameterization-target-none": lambda: feasible_parameterization(Gaussian(), None),
    "select_hyperparameters-config-string": lambda: select_hyperparameters("x", DATA, Gaussian()),
    "select_hyperparameters-data-string": lambda: select_hyperparameters(SelectionConfig(), "d", Gaussian()),
    "solve_constrained-problem-string": lambda: solve_constrained("p"),
    "eb_cost-data-string": lambda: eb_cost(1.0, GAUSS_ETA, "d", Gaussian()),
    "gcv_cost-data-string": lambda: gcv_cost(1.0, GAUSS_ETA, "d", Gaussian()),
    "simulate_hh-dt_solver-string": lambda: simulate_hh(np.sin, 0.5, 1.0, "1"),
    "simulate_hh-t_end-string": lambda: simulate_hh(np.sin, 0.5, "1"),
    "simulate_hh-kappa0-string": lambda: simulate_hh(np.sin, "a", 1.0),
    "simulate_hh-t_end-true": lambda: simulate_hh(np.sin, 0.5, True),
    "simulate_hh-dt_solver-subnormal": lambda: simulate_hh(np.sin, 0.5, 1.0, 5e-324),
    "simulate_hh-kappa0-true": lambda: simulate_hh(np.sin, True, 1.0),
    "simulate_hh-dt_solver-nan": lambda: simulate_hh(np.sin, 0.5, 1.0, math.nan),
    "simulate_hh-dt_solver-negative": lambda: simulate_hh(np.sin, 0.5, 1.0, -1e-3),
    "simulate_hh-t_end-below-one-step": lambda: simulate_hh(np.sin, 0.5, 1e-4),
    # step and sample counts that numpy refuses before allocating anything
    "simulate_hh-t_end-too-many-steps": lambda: simulate_hh(np.sin, 0.5, 1e300, 1e-3),
    "generate_dataset-A-n_train-too-many": lambda: generate_dataset(SyntheticSystemSpec("A", n_train=10**20)),
    "generate_dataset-H-n_valid-too-many": lambda: generate_dataset(SyntheticSystemSpec("H", n_train=20, n_valid=10**20)),
    "gaussian_delta_boundary-gamma-true": lambda: gaussian_delta_boundary(1.0, True),
    "gamma_fn-alpha-true": lambda: gamma_fn(np.eye(3), np.ones(3), 2, 0.5, True),
    "gamma_fn-alpha-negative": lambda: gamma_fn(np.eye(3), np.ones(3), 2, 0.5, -1.0),
    # counts: metrics scores samples m+1..n, so m < 1 would score the wrong ones
    "metrics-m-negative": lambda: metrics(np.ones(4), np.ones(4), np.ones(4), -1),
    "metrics-m-zero": lambda: metrics(np.ones(4), np.ones(4), np.ones(4), 0),
    "metrics-m-string": lambda: metrics(np.ones(4), np.ones(4), np.ones(4), "2"),
    "simulate_system_a-length-fraction": lambda: simulate_system_a(np.ones(5), 0.0, 0.0, 2.5),
    "simulate_system_a-length-string": lambda: simulate_system_a(np.ones(5), 0.0, 0.0, "5"),
    "simulate_system_b-length-fraction": lambda: simulate_system_b(np.ones(5), 0.0, 0.0, 2.5),
    "simulate_system_b-length-one": lambda: simulate_system_b(np.ones(5), 0.0, 0.0, 1),
    # start values are reals, and no sample or start value may overflow the
    # regressor norm, whose sine the recursion takes
    "simulate_system_a-y0-string": lambda: simulate_system_a(np.ones(12), "a", 0.2, 10),
    "simulate_system_a-y0-inf": lambda: simulate_system_a(np.ones(12), math.inf, 0.2, 10),
    "simulate_system_a-y1-true": lambda: simulate_system_a(np.ones(12), 0.1, True, 10),
    "simulate_system_b-y1-nan": lambda: simulate_system_b(np.ones(12), 0.1, math.nan, 10),
    "simulate_system_b-y0-huge": lambda: simulate_system_b(np.ones(12), 1e154, 0.2, 10),
    "simulate_system_a-u-huge": lambda: simulate_system_a(np.full(12, 1e200), 0.1, 0.2, 10),
    "simulate_system_b-u-huge": lambda: simulate_system_b(np.full(12, 1e200), 0.1, 0.2, 10),
    "generate_dataset-salt-string": lambda: generate_dataset(SPEC, salt=("a",)),
    "generate_dataset-salt-negative": lambda: generate_dataset(SPEC, salt=(-1,)),
    "generate_dataset-salt-true": lambda: generate_dataset(SPEC, salt=(True,)),
    "to_eta-too-short": lambda: DISS_MAP.to_eta(np.zeros(2)),
    "to_eta-too-long": lambda: DISS_MAP.to_eta(np.zeros(4)),
    "to_eta-2d": lambda: DISS_MAP.to_eta(np.zeros((1, 3))),
    # zip would drop the unmatched frequency or amplitude
    "MultisineRealization-frequencies-longer": lambda: MultisineRealization([1.0], [0.5, 0.2], [0.0]),
    "MultisineRealization-phases-shorter": lambda: MultisineRealization([1.0, 0.3], [0.5, 0.2], [0.0]),
    # object arguments of the wrong type (ROADMAP D16)
    "one_step_predict-model-string": lambda: one_step_predict("m", U, Y),
    "simulate-model-string": lambda: simulate("m", U, Y[:2]),
    "run_model-model-string": lambda: run_model("m", U, Y),
    "save_model-model-string": lambda: save_model("m", os.devnull),
    "PredictorModel.from_fit-data-string": lambda: PredictorModel.from_fit(
        "d", KERNEL, solve_constrained(PROBLEM), StabilityTarget.unconstrained()),
    "PredictorModel.from_fit-report-string": lambda: PredictorModel.from_fit(
        DATA, KERNEL, "r", StabilityTarget.unconstrained()),
    "run_monte_carlo-config-string": lambda: run_monte_carlo("c"),
    "summarize-rows-string": lambda: summarize("ab"),
    "generate_dataset-spec-string": lambda: generate_dataset("s"),
    "gram_matrix-kernel-string": lambda: gram_matrix("k", P),
    "metric_pairs-kernel-string": lambda: metric_pairs("k", P, P),
    "write_dataset_csv-dataset-string": lambda: write_dataset_csv("ds", os.devnull),
    "write_results_csv-rows-strings": lambda: write_results_csv(["row"], os.devnull),
    "standard_methods-selection-string": lambda: standard_methods("B", selection="x"),
}
# the argument each object row names in its message
OBJECT_ARGUMENTS = {
    "one_step_predict-model-string": "model",
    "simulate-model-string": "model",
    "run_model-model-string": "model",
    "save_model-model-string": "model",
    "PredictorModel.from_fit-data-string": "data",
    "PredictorModel.from_fit-report-string": "report",
    "run_monte_carlo-config-string": "config",
    "summarize-rows-string": "summary row",
    "generate_dataset-spec-string": "spec",
    "gram_matrix-kernel-string": "kernel",
    "metric_pairs-kernel-string": "kernel",
    "write_dataset_csv-dataset-string": "dataset",
    "write_results_csv-rows-strings": "result row",
    "standard_methods-selection-string": "selection",
}


@pytest.mark.parametrize("call", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_untyped_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("key,what", OBJECT_ARGUMENTS.items(), ids=OBJECT_ARGUMENTS.keys())
def test_object_arguments_name_themselves(key, what):
    with pytest.raises(InputError, match=f"^{what} must be a "):
        ARGUMENTS[key]()


def test_chi_in_the_unit_interval_binds_selection_and_constrained_fit():
    for build in (lambda chi: SelectionConfig(chi=chi), lambda chi: replace(PROBLEM, chi=chi)):
        assert build(np.float32(0.5)).chi == 0.5
        with pytest.raises(InputError, match=r"^chi must lie in \(0, 1\), got 1.0$"):
            build(1)
    assert replace(PROBLEM, chi=1.5, constrained=False).chi == 1.5


# every public entry point that takes an array, one row per array argument:
# (what, call with that argument, a good value, the non-finite values that
# raise); the other arguments are good
U, Y = np.sin(np.arange(12.0)), np.cos(np.arange(12.0))
ROWS = build_regression_data(U, Y, 2).regressors[:4]
P = np.random.default_rng(0).normal(size=(4, 5))
MODEL = PredictorModel(2, KERNEL, ROWS, np.full(4, 0.01), StabilityTarget.unconstrained())
MATRIX_SOLVES = [
    ("gamma_fn", lambda K, y: gamma_fn(K, y, 2, 0.5, 0.1)),
    ("find_alpha_bar", lambda K, y: find_alpha_bar(K, y, 2, 0.5)),
]
SINE = {"amplitudes": np.array([0.2, 0.4]), "frequencies": np.array([0.1, 0.7]), "phases": np.array([0.0, 3.0])}
NAN_INF = ("nan", "inf")
ARRAYS = [
    ("Dataset(u)", lambda x: Dataset(x, Y), U, ()),
    ("Dataset(y)", lambda x: Dataset(U, x), Y, ()),
    ("simulate_system_a(u)", lambda x: simulate_system_a(x, 0.1, 0.2, 10), U, ("inf",)),
    ("simulate_system_b(u)", lambda x: simulate_system_b(x, 0.1, 0.2, 10), U, ("inf",)),
    ("RegressionData(regressors)", lambda x: RegressionData(x, ROWS[:, 0], 2), ROWS, NAN_INF),
    ("RegressionData(targets)", lambda x: RegressionData(ROWS, x, 2), ROWS[:, 0], NAN_INF),
    ("build_regression_data(u)", lambda x: build_regression_data(x, Y, 2), U, NAN_INF),
    ("build_regression_data(y)", lambda x: build_regression_data(U, x, 2), Y, NAN_INF),
    *(row for name, f in MATRIX_SOLVES for row in (
        (f"{name}(K)", lambda x, f=f: f(x, np.ones(3)), np.eye(3), NAN_INF),
        (f"{name}(y)", lambda x, f=f: f(np.eye(3), x), np.ones(3), NAN_INF))),
    *((f"metric_pairs({arg})", lambda x, i=i: metric_pairs(KERNEL, *((x, P), (P, x))[i]), P, NAN_INF)
      for i, arg in enumerate("AB")),
    # one vector is one row: the single-pair form of the row evaluator
    *((f"metric_pairs({arg} vector)", lambda x, i=i: metric_pairs(KERNEL, *((x, P[0]), (P[0], x))[i]), P[1], NAN_INF)
      for i, arg in enumerate("AB")),
    ("gram_matrix(points)", lambda x: gram_matrix(KERNEL, x), P, NAN_INF),
    ("PredictorModel(centers)", lambda x: replace(MODEL, centers=x), ROWS, NAN_INF),
    ("PredictorModel(coefficients)", lambda x: replace(MODEL, coefficients=x), np.full(4, 0.01), NAN_INF),
    ("one_step_predict(u)", lambda x: one_step_predict(MODEL, x, Y), U, NAN_INF),
    ("one_step_predict(y)", lambda x: one_step_predict(MODEL, U, x), Y, NAN_INF),
    ("simulate(u)", lambda x: simulate(MODEL, x, Y[:2]), U, NAN_INF),
    ("simulate(y_seed)", lambda x: simulate(MODEL, U, x), Y[:2], NAN_INF),
    ("run_model(u)", lambda x: run_model(MODEL, x, Y), U, NAN_INF),
    ("run_model(y)", lambda x: run_model(MODEL, U, x), Y, NAN_INF),
    ("metrics(y_true)", lambda x: metrics(x, Y, Y, 2), Y, ()),
    ("metrics(predicted)", lambda x: metrics(Y, x, Y, 2), Y, ()),
    ("metrics(simulated)", lambda x: metrics(Y, Y, x, 2), Y, ()),
    *((f"MultisineRealization({name})", lambda x, name=name: MultisineRealization(**{**SINE, name: x}), good, NAN_INF)
      for name, good in SINE.items()),
    ("MultisineRealization(t)", lambda x: MultisineRealization(**SINE)(x), U, ()),
    ("hh_alpha(V)", hh_alpha, np.linspace(-50.0, 40.0, 7), ()),
    ("hh_beta(V)", hh_beta, np.linspace(-50.0, 40.0, 7), ()),
    # the search's iterates may hold nan or inf; the map takes them
    ("to_eta(u)", DISS_MAP.to_eta, np.zeros(3), ()),
]
# the entries that take more than one rank: one vector or rows of them, or
# values taken entry by entry
ANY_RANK = {"metric_pairs(A vector)", "metric_pairs(B vector)", "MultisineRealization(t)", "hh_alpha(V)", "hh_beta(V)"}


def _with_entry(good, value) -> list:
    """``good`` as nested lists, its first entry replaced by ``value``."""
    rows = good.tolist()
    if good.ndim == 1:
        return [value] + rows[1:]
    return [[value] + rows[0][1:]] + rows[1:]


def _bad_array(good, variant):
    """``good`` spoiled one way."""
    rows = good.tolist()
    if variant == "string":
        return _with_entry(good, str(good.flat[0]))
    if variant == "none":
        return _with_entry(good, None)
    if variant == "rank":
        return good[None]
    if variant == "ragged":
        return [[rows[0], rows[0]]] + rows[1:] if good.ndim == 1 else rows[:-1] + [rows[-1][:-1]]
    if variant == "bool":
        return np.ones(good.shape, dtype=bool)
    if variant == "complex":
        return good + 0j
    return np.array(_with_entry(good, {"nan": math.nan, "inf": math.inf}[variant]))


def _rejected(what, nonfinite, variant) -> bool:
    """Whether the entry ``what`` rejects ``variant``."""
    if variant == "nan":
        return variant in nonfinite
    if variant == "rank":
        return what not in ANY_RANK
    return True


# each entry point against each variant; where nan or another rank passes, a
# case pins that it still passes
ARRAY_CASES = [
    pytest.param(call, good, variant, _rejected(what, nonfinite, variant), id=f"{what}-{variant}")
    for what, call, good, nonfinite in ARRAYS
    for variant in ("string", "ragged", "bool", "complex", "none", "rank", "nan", *(("inf",) if "inf" in nonfinite else ()))
]


@pytest.mark.parametrize("call,good,variant,rejected", ARRAY_CASES)
def test_array_arguments_read_by_one_rule(call, good, variant, rejected):
    call(good)
    bad = _bad_array(good, variant)
    if not rejected:
        call(bad)
        return
    with pytest.raises(InputError):
        call(bad)


def test_float64_arrays_are_kept_without_a_copy():
    data = RegressionData(ROWS, ROWS[:, 0], 2)
    assert np.shares_memory(data.regressors, ROWS) and np.shares_memory(data.targets, ROWS)
    coefficients = np.full(4, 0.01)
    model = PredictorModel(2, KERNEL, ROWS, coefficients, StabilityTarget.unconstrained())
    assert model.centers is ROWS and model.coefficients is coefficients
    sine = MultisineRealization(**SINE)
    assert all(getattr(sine, name) is good for name, good in SINE.items())


def test_integer_arrays_read_as_float64():
    data = RegressionData(np.ones((3, 5), dtype=np.int64), [1, 2, 3], 2)
    assert data.regressors.dtype == data.targets.dtype == np.float64
    assert Dataset([1, 2], np.array([3, 4], dtype=np.uint8)).y.dtype == np.float64


# every field that holds an object of a config class, given something else
INSTANCES = {
    "SelectionConfig-target-string": lambda: SelectionConfig(target="iss"),
    "SelectionConfig-optimizer-none": lambda: SelectionConfig(optimizer=None),
    "MethodSpec-structure-string": lambda: MethodSpec("x", "gaussian"),
    "MethodSpec-target-string": lambda: MethodSpec("x", Gaussian(), "diss"),
    "MethodSpec-selection-dict": lambda: MethodSpec("x", Gaussian(), {"method": "eb"}),
    "MonteCarloConfig-systems-string": lambda: replace(MC, systems=("A",)),
    "MonteCarloConfig-methods-string": lambda: replace(MC, methods=("Aa",)),
    "PredictorModel-kernel-none": lambda: replace(MODEL, kernel=None),
    "PredictorModel-stability_tag-string": lambda: replace(MODEL, stability_tag="iss"),
    "KernelInstance-structure-string": lambda: KernelInstance("gaussian", GAUSS_ETA, 5),
    "FitProblem-data-string": lambda: FitProblem("d", KERNEL, 1.0),
    "FitProblem-kernel-string": lambda: FitProblem(DATA, "k", 1.0),
    "SumKernel-child-string": lambda: SumKernel((Gaussian(), "linear_affine")),
    "ProductWithStationary-left-string": lambda: ProductWithStationary("linear_affine", Gaussian()),
    "ProductWithStationary-right-none": lambda: ProductWithStationary(LinearAffine(), None),
}


@pytest.mark.parametrize("call", INSTANCES.values(), ids=INSTANCES.keys())
def test_object_fields_rejected_at_construction(call):
    with pytest.raises(InputError):
        call()
