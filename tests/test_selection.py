"""Selection costs and the constrained hyperparameter search."""

import math

import numpy as np
import pytest

from stable_sysid import (
    Gaussian,
    InfeasibleTargetError,
    LinearAffine,
    OptimizerConfig,
    SelectionConfig,
    StabilityTarget,
    build_regression_data,
    eb_cost,
    gcv_cost,
    kfold_cost,
    membership,
    select_hyperparameters,
)
from stable_sysid.kernels import KernelInstance, gram_matrix
from stable_sysid.viability import feasible_parameterization


class ZeroKernelLike:
    pass


def smooth_data(n=40, seed=0, m=2):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = 0.4 * y[t - 1] + 0.3 * math.tanh(u[t - 1]) + 0.1
    return build_regression_data(u, y, m)


def tiny_optimizer(restarts=2, max_evals=160):
    return OptimizerConfig(restarts=restarts, max_evals=max_evals)


class TestEbCost:
    def test_zero_kernel_closed_form(self):
        # tau = sigma = 0 makes the Gram matrix vanish: J = |y|^2 / (2 beta)
        # + (N/2) log beta + (N/2) log 2 pi
        data = build_regression_data([0.0, 0.0, 0.0], [0.0, 1.0, 1.0], 1)
        value = eb_cost(1.0, (0.0, 1.0, 0.0), data, Gaussian())
        assert value == pytest.approx(0.5 * 2 + math.log(2 * math.pi), rel=1e-12)

    def test_zero_targets_leave_logdet_only(self):
        data = build_regression_data([1.0, -1.0, 2.0, 0.5], [0.0, 0.0, 0.0, 0.0], 1)
        kernel = KernelInstance(Gaussian(), (0.7, 0.3, 0.1), 3)
        K = gram_matrix(kernel, data.regressors)
        expected = 0.5 * math.log(np.linalg.det(K + 2.0 * np.eye(3))) \
            + (3 / 2) * math.log(2 * math.pi)
        assert eb_cost(2.0, (0.7, 0.3, 0.1), data, Gaussian()) == pytest.approx(expected, rel=1e-10)

    def test_zero_kernel_log_beta_term(self):
        data = build_regression_data([0.0, 1.0], [0.0, 0.0], 1)
        value = eb_cost(math.e ** 2, (0.0, 1.0, 0.0), data, Gaussian())
        assert value == pytest.approx(1.0 + 0.5 * math.log(2 * math.pi), rel=1e-12)


class TestGcvCost:
    def test_identity_gram_closed_form(self):
        # eta with a far-apart regressor set and unit diagonal: K = I, H = I/2,
        # J = N (|y|^2/4) / (N/2)^2 = |y|^2 / N
        data = build_regression_data([0.0, 100.0, -100.0], [0.0, 3.0, 4.0], 1)
        value = gcv_cost(1.0, (1.0, 1.0, 0.0), data, Gaussian())
        norm_sq = float(np.sum(data.targets ** 2))
        assert value == pytest.approx(norm_sq / data.size, rel=1e-10)

    def test_zero_targets_zero_cost(self):
        data = build_regression_data([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], 1)
        assert gcv_cost(0.5, (1.0, 1.0, 0.1), data, Gaussian()) == 0.0


class TestKfoldCost:
    def test_perfect_linear_model_near_zero(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=30)
        y = np.zeros(30)
        for t in range(1, 30):
            y[t] = 0.5 * y[t - 1] + 0.25 * u[t - 1] + 0.1 * u[t]
        data = build_regression_data(u, y, 1)
        value = kfold_cost(1e-8, (1.0, 0.0), data, LinearAffine(), k=5)
        assert value < 1e-10

    def test_k_bounds_validated(self):
        data = smooth_data(20)
        with pytest.raises(Exception):
            kfold_cost(1.0, (1.0, 1.0, 0.0), data, Gaussian(), k=1)


class TestSelectHyperparameters:
    def test_infeasible_pair_raises_before_search(self):
        config = SelectionConfig(target=StabilityTarget.iss(), optimizer=tiny_optimizer())
        with pytest.raises(InfeasibleTargetError, match="stationary"):
            select_hyperparameters(config, smooth_data(), Gaussian())

    def test_result_is_feasible_and_passes_membership(self):
        config = SelectionConfig(
            method="eb", target=StabilityTarget.diss(), optimizer=tiny_optimizer(), seed=3
        )
        data = smooth_data(50)
        result = select_hyperparameters(config, data, Gaussian())
        assert result.beta >= config.iota
        assert result.feasible
        assert membership(Gaussian(), result.eta, config.target)

    def test_deterministic_given_seed(self):
        config = SelectionConfig(
            method="gcv", target=StabilityTarget.dbibs(), optimizer=tiny_optimizer(), seed=11
        )
        data = smooth_data(45)
        r1 = select_hyperparameters(config, data, Gaussian())
        r2 = select_hyperparameters(config, data, Gaussian())
        assert r1 == r2

    def test_beats_coarse_grid_oracle(self):
        data = smooth_data(60, seed=4)
        config = SelectionConfig(
            method="eb",
            target=StabilityTarget.unconstrained(),
            optimizer=OptimizerConfig(restarts=3, max_evals=600),
            seed=0,
        )
        result = select_hyperparameters(config, data, Gaussian())
        grid = np.logspace(-4, 1, 5)
        best_grid = min(
            eb_cost(float(b), (float(t), float(g), float(s)), data, Gaussian())
            for b in grid
            for t in grid
            for g in grid
            for s in grid
        )
        assert result.cost <= best_grid + 1e-9

    def test_unconstrained_cost_not_above_constrained(self):
        data = smooth_data(50, seed=5)
        opt = tiny_optimizer(restarts=3, max_evals=240)
        con = select_hyperparameters(
            SelectionConfig(method="eb", target=StabilityTarget.delta_viable(0.5),
                            optimizer=opt, seed=2),
            data,
            Gaussian(),
        )
        # warm-start the unconstrained run from nothing: selection must still
        # find a cost at least as good as any feasible point's plain cost,
        # which we check against the constrained result directly
        unc = select_hyperparameters(
            SelectionConfig(method="eb", target=StabilityTarget.unconstrained(),
                            optimizer=opt, seed=2),
            data,
            Gaussian(),
        )
        plain_cost_at_constrained = eb_cost(con.beta, con.eta, data, Gaussian())
        assert unc.cost <= plain_cost_at_constrained + 1e-9
        assert unc.cost <= con.cost + 1e-9

    def test_row_permutation_invariance_of_costs(self):
        data = smooth_data(30, seed=6)
        perm = np.random.default_rng(0).permutation(data.size)
        from stable_sysid.solver import RegressionData

        permuted = RegressionData(
            regressors=data.regressors[perm], targets=data.targets[perm], model_order=2
        )
        for fn in (eb_cost, gcv_cost):
            a = fn(0.3, (0.5, 0.4, 0.1), data, Gaussian())
            b = fn(0.3, (0.5, 0.4, 0.1), permuted, Gaussian())
            assert a == pytest.approx(b, abs=1e-9)

    def test_polynomial_searches_beta_only(self):
        from stable_sysid import Polynomial

        data = smooth_data(25, seed=8)
        config = SelectionConfig(
            method="gcv", target=StabilityTarget.unconstrained(),
            optimizer=tiny_optimizer(), seed=1,
        )
        result = select_hyperparameters(config, data, Polynomial(degree=2))
        assert result.eta == ()
        assert result.feasible


class TestCapAwareCost:
    def test_constrained_cost_interpretation(self):
        """For a constrained target the reported cost is the plain cost at the
        effective regularizer induced by the norm budget."""
        from stable_sysid.solver import alpha_bar_from_spectrum
        from stable_sysid.selection import _spectrum, _eb_from_spectrum

        data = smooth_data(40, seed=9)
        config = SelectionConfig(
            method="eb", target=StabilityTarget.dbibs(), optimizer=tiny_optimizer(), seed=4
        )
        result = select_hyperparameters(config, data, Gaussian())
        lam, yt = _spectrum(Gaussian(), result.eta, data)
        beta_eff = max(result.beta, alpha_bar_from_spectrum(lam, yt ** 2, 2, config.chi))
        assert result.cost == pytest.approx(
            _eb_from_spectrum(lam, yt, beta_eff, data.size), rel=1e-12
        )
