"""The boundary rules of :mod:`stable_sysid.config`, as every entry point applies them.

Each count, real and flag field of the config classes, and ``beta`` of the
public costs and of ``solve_ridge``, rejects ``True``, ``"1"``, nan and inf
with :class:`InputError` (a flag accepts ``True`` and rejects ``1``
instead); membership and :class:`KernelInstance` read ``eta`` entries by
one rule; the public functions that take plain numbers raise
:class:`InputError` for a string, a bool, a non-finite value or one out of
range; and the removed H solver step key exits 2 before any integration.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from stable_sysid import benchmarks, cli
from stable_sysid.benchmarks import MethodSpec, MonteCarloConfig, SyntheticSystemSpec, generate_dataset, simulate_hh
from stable_sysid.errors import InputError
from stable_sysid.kernels import Gaussian, KernelInstance, LinearAffine, SumKernel, gaussian_delta_boundary
from stable_sysid.selection import OptimizerConfig, SelectionConfig, eb_cost, gcv_cost, kfold_cost
from stable_sysid.solver import FitProblem, build_regression_data, gamma_fn, solve_ridge
from stable_sysid.viability import StabilityTarget, delta_membership, theta_membership

GAUSS_ETA = (0.5, 1.0, 0.1)
DATA = build_regression_data(np.sin(np.arange(30.0)), np.cos(np.arange(30.0)), 2)
KERNEL = KernelInstance(Gaussian(), GAUSS_ETA, 5)
SPEC = SyntheticSystemSpec("B", n_train=20, n_valid=20)
METHOD = MethodSpec("Bb", Gaussian(), StabilityTarget.diss())
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
      for cost in (eb_cost, gcv_cost, kfold_cost)),
    ("solve_ridge(beta)", "real", lambda v: solve_ridge(np.eye(3), np.ones(3), v)),
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
        assert theta_membership(Gaussian(), eta, 0.5) == (float(entry) <= 0.5)
        assert delta_membership(Gaussian(), eta, 0.0) == (2.0 * float(entry) <= 1.0)

    @pytest.mark.parametrize("entry", [True, False, "0.5", math.nan, math.inf])
    def test_bools_strings_and_non_finite_values_fail_both(self, entry):
        eta = (entry, 1.0, 0.0)
        with pytest.raises(InputError, match="^hyperparameter tau must be a number with a finite value"):
            KernelInstance(Gaussian(), eta, 5)
        with pytest.raises(InputError, match="^hyperparameter tau must be a number with a finite value"):
            theta_membership(Gaussian(), eta, 0.5)

    def test_sum_weights_accept_numpy_reals(self):
        structure = SumKernel((Gaussian(), LinearAffine()))
        eta = (np.float32(0.25), np.float32(0.5), 0.5, 1.0, 0.0, 0.5, 0.0)
        assert KernelInstance(structure, eta, 5).eta == (0.25, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0)
        assert theta_membership(structure, eta, 0.5)
        with pytest.raises(InputError, match="^sum kernel weight must be a number"):
            theta_membership(structure, (True,) + eta[1:], 0.5)


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
    "theta_membership-eta-integer": lambda: theta_membership(Gaussian(), 5, 0.5),
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
}


@pytest.mark.parametrize("call", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_untyped_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_chi_in_the_unit_interval_binds_selection_and_constrained_fit():
    for build in (lambda chi: SelectionConfig(chi=chi), lambda chi: replace(PROBLEM, chi=chi)):
        assert build(np.float32(0.5)).chi == 0.5
        with pytest.raises(InputError, match=r"^chi must lie in \(0, 1\), got 1.0$"):
            build(1)
    assert replace(PROBLEM, chi=1.5, constrained=False).chi == 1.5
