"""Selection costs and the constrained hyperparameter search."""

import functools
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stable_sysid import (
    FitProblem,
    Gaussian,
    InfeasibleTargetError,
    InputError,
    LinearAffine,
    Matern32,
    OptimizerConfig,
    RegressionData,
    SelectionConfig,
    StabilityTarget,
    SumKernel,
    build_regression_data,
    eb_cost,
    gcv_cost,
    membership,
    select_hyperparameters,
    solve_constrained,
)
from stable_sysid import solver
from stable_sysid.benchmarks import MethodSpec, SyntheticSystemSpec, fit_method, generate_dataset, standard_methods
from stable_sysid.errors import NumericError
from stable_sysid.kernels import KernelInstance, gram_matrix
from stable_sysid.selection import (
    _BAD_COST, _SPECTRA, SEARCH_FATOL, SEARCH_XATOL, _gcv_score, _kfold, _nelder_mead, _Objective,
)
from stable_sysid.viability import feasible_parameterization

from oracles import random_spectrum_problem, root_conditioning


def smooth_data(n=40, seed=0, m=2):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = 0.4 * y[t - 1] + 0.3 * math.tanh(u[t - 1]) + 0.1
    return build_regression_data(u, y, m)


def tiny_optimizer(restarts=2, max_evals=160):
    return OptimizerConfig(restarts=restarts, max_evals=max_evals)


@functools.lru_cache(maxsize=None)
def benchmark_data(system, seed):
    """The training data of run 0 of a benchmark system, as the harness builds it."""
    train, _ = generate_dataset(SyntheticSystemSpec(system, seed=seed), salt=(0,))
    return build_regression_data(train.u, train.y, 2)


@functools.lru_cache(maxsize=None)
def desk_costs(system, seed):
    """The selected cost of each standard method of ``system`` on ``benchmark_data(system, seed)``."""
    data = benchmark_data(system, seed)
    return {method.name: fit_method(data, method)[2].cost for method in standard_methods(system)}


def memo(data):
    """The EB search's memo of spectra on ``data``; empty where no EB search made one."""
    return _SPECTRA.get(data, {})


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
        value = _kfold(1e-8, (1.0, 0.0), data, LinearAffine(), None)
        assert value < 1e-10

    @pytest.mark.parametrize("rows", [1, 3, 4])
    def test_fewer_rows_than_folds_raise_before_any_evaluation(self, monkeypatch, rows):
        from stable_sysid import selection

        def no_work(*args, **kwargs):
            raise AssertionError("work began on data too short for five folds")

        for name in ("_gram", "_data_stats", "_nelder_mead"):
            monkeypatch.setattr(selection, name, no_work)
        data = smooth_data(rows + 2)
        message = f"^kfold needs at least 5 regression rows, one per fold, got {rows}$"
        for cap_aware_cost in (False, True):
            config = SelectionConfig(method="kfold", target=StabilityTarget.diss(), cap_aware_cost=cap_aware_cost)
            with pytest.raises(InputError, match=message):
                select_hyperparameters(config, data, Gaussian())

    def test_five_rows_are_enough(self):
        data = smooth_data(7)
        assert math.isfinite(_kfold(1.0, (1.0, 1.0, 0.0), data, Gaussian(), None))
        config = SelectionConfig(method="kfold", optimizer=tiny_optimizer(max_evals=20))
        assert math.isfinite(select_hyperparameters(config, data, Gaussian()).cost)


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("cost", [eb_cost, gcv_cost, functools.partial(_kfold, chi=None)])
def test_costs_reject_a_bad_beta_alike(cost, beta):
    message = "beta must be finite and > 0" if math.isfinite(beta) else "beta must be a number with a finite value"
    with pytest.raises(InputError, match=message):
        cost(beta, (1.0, 1.0, 0.1), smooth_data(20), Gaussian())


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

    @pytest.mark.parametrize("method", ["eb", "gcv", "kfold"])
    def test_pair_distances_computed_once_per_dataset(self, method, monkeypatch):
        # every cost evaluation assembles its Gram matrix from the data's
        # cached pair terms; recomputing the distances per evaluation was
        # the search's second-largest cost
        from stable_sysid import kernels

        calls = []
        real = kernels._sq_dist_matrix

        def counting(A, B):
            calls.append(A.shape[0])
            return real(A, B)

        monkeypatch.setattr(kernels, "_sq_dist_matrix", counting)
        config = SelectionConfig(
            method=method, target=StabilityTarget.dbibs(), optimizer=tiny_optimizer(), seed=2
        )
        data = smooth_data(45)
        result = select_hyperparameters(config, data, Gaussian())
        assert result.evaluations > 10
        assert calls == [data.size]
        # the final solve reads the same cache
        kernel = KernelInstance(Gaussian(), result.eta, 5)
        solve_constrained(FitProblem(data=data, kernel=kernel, beta=result.beta))
        assert calls == [data.size]

    def test_data_stats_subset_distances_match_direct(self):
        # above 200 rows the start point uses a 200-row subset, read off the
        # full pair terms; each entry must equal the subset's own distances
        from stable_sysid.kernels import _sq_dist_matrix
        from stable_sysid.selection import _data_stats

        data = smooth_data(240, seed=2)
        idx = np.random.default_rng(0).choice(data.size, size=200, replace=False)
        S = data.regressors[idx]
        direct = _sq_dist_matrix(S, S)
        assert np.array_equal(data.terms.sq[np.ix_(idx, idx)], direct)
        med = float(np.median(direct[np.triu_indices(200, k=1)]))
        assert _data_stats(data)["med_sq"] == med

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


class TestConfigValues:
    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: OptimizerConfig(restarts=2.5), "restarts must be an integer"),
            (lambda: OptimizerConfig(max_evals="90"), "max_evals must be an integer"),
            (lambda: SelectionConfig(chi=1.5), r"chi must lie in \(0, 1\)"),
            (lambda: SelectionConfig(seed=True), "seed must be an integer"),
            (lambda: SelectionConfig(iota=True), "iota must be a number"),
            (lambda: SelectionConfig(iota="1e-8"), "iota must be a number"),
            (lambda: SelectionConfig(cap_aware_cost="yes"), "cap_aware_cost must be true or false"),
            (lambda: SelectionConfig(iota=math.inf), "iota must be a number"),
            (lambda: SelectionConfig(chi="0.5"), "chi must be a number"),
            (lambda: SelectionConfig(chi=math.nan), "chi must be a number"),
            (lambda: SelectionConfig(method="ml"), "unknown selection method 'ml'"),
            (lambda: SelectionConfig(iota=0.0), "iota must be > 0"),
        ],
    )
    def test_rejects_bad_values(self, make, message):
        with pytest.raises(InputError, match=message):
            make()

    def test_integral_and_numpy_values_normalized(self):
        config = SelectionConfig(seed=np.int64(7), iota=np.float32(0.5),
                                 optimizer=OptimizerConfig(restarts=np.int16(2), max_evals=90.0))
        assert (config.seed, config.iota) == (7, 0.5)
        assert (config.optimizer.restarts, config.optimizer.max_evals) == (2, 90)
        values = (config.seed, config.iota, config.optimizer.restarts, config.optimizer.max_evals)
        assert [type(v) for v in values] == [int, float, int, int]


class TestCapAwareCost:
    def test_constrained_cost_interpretation(self):
        """For a constrained target the reported cost is the plain cost at the
        effective regularizer induced by the norm budget."""
        from stable_sysid.solver import _alpha_bar
        from stable_sysid.selection import _spectrum, _eb_from_spectrum

        data = smooth_data(40, seed=9)
        config = SelectionConfig(
            method="eb", target=StabilityTarget.dbibs(), optimizer=tiny_optimizer(), seed=4
        )
        result = select_hyperparameters(config, data, Gaussian())
        lam, yt = _spectrum(Gaussian(), result.eta, data)
        beta_eff = max(result.beta, _alpha_bar(lam, yt ** 2, 2, config.chi))
        assert result.cost == pytest.approx(
            _eb_from_spectrum(lam, yt, beta_eff, data.size), rel=1e-12
        )


def hex_result(result):
    return (result.beta.hex(), tuple(float(v).hex() for v in result.eta), result.cost.hex())


@pytest.mark.usefixtures("in_process")
class TestCholeskyGcv:
    """GCV charged at (beta, eta) comes from one Cholesky factor of
    K + beta I, cap-aware GCV from the tridiagonal reduction of its root,
    and either from the clamped spectrum only when LAPACK rejects it."""

    ETA = (0.5, 0.4, 0.1)

    def spectral(self, beta, data):
        from stable_sysid.selection import _gcv_from_spectrum, _spectrum

        lam, yt = _spectrum(Gaussian(), self.ETA, data)
        return _gcv_from_spectrum(lam, yt, beta, data.size), float(lam[-1])

    @staticmethod
    def failing_dpotrf(monkeypatch):
        from stable_sysid import solver

        monkeypatch.setattr(solver, "dpotrf", lambda A, **kwargs: (A, 1))

    @staticmethod
    def fixed_gram(monkeypatch, K):
        from stable_sysid import selection

        monkeypatch.setattr(selection, "_gram", lambda structure, eta, data: K.copy())

    @pytest.mark.parametrize("scale", ["lam_max", "one", "huge"])
    def test_agrees_with_the_spectrum(self, scale, eigh_calls, cholesky_calls):
        data = smooth_data(30)
        lam_max = self.spectral(1.0, data)[1]
        beta = {"lam_max": 1e-3 * lam_max, "one": 1.0, "huge": 1e250}[scale]
        expected = self.spectral(beta, data)[0]
        calls = len(eigh_calls)
        value = gcv_cost(beta, self.ETA, data, Gaussian())
        assert (len(eigh_calls), cholesky_calls) == (calls, [data.size])
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_failed_factor_falls_back_to_the_spectrum(self, monkeypatch, eigh_calls):
        data = smooth_data(30)
        expected = self.spectral(0.3, data)[0]
        self.failing_dpotrf(monkeypatch)
        calls = len(eigh_calls)
        assert gcv_cost(0.3, self.ETA, data, Gaussian()) == expected
        assert len(eigh_calls) == calls + 1

    def test_indefinite_gram_is_checked_only_on_the_fallback(self, monkeypatch):
        # a Gram below -1e-10 |K| that still factors with beta scores as its
        # unclamped spectrum does; one that does not factor meets _eig_psd
        from stable_sysid.selection import _gcv_from_spectrum

        data = smooth_data(30)
        Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(data.size,) * 2))
        lam = np.linspace(-0.05, 2.0, data.size)
        K = (Q * lam) @ Q.T
        self.fixed_gram(monkeypatch, 0.5 * (K + K.T))
        expected = _gcv_from_spectrum(lam, Q.T @ data.targets, 1.0, data.size)
        assert gcv_cost(1.0, self.ETA, data, Gaussian()) == pytest.approx(expected, rel=1e-10)
        with pytest.raises(NumericError, match="positive semidefinite"):
            gcv_cost(0.01, self.ETA, data, Gaussian())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cell", [(3, 3), (5, 3)])
    def test_non_finite_gram_raises(self, monkeypatch, value, cell):
        # a nan pivot passes dpotrf's test and an infinite one factors
        from stable_sysid.selection import _gram

        data = smooth_data(30)
        K = _gram(Gaussian(), self.ETA, data)
        K[cell] = K[cell[::-1]] = value
        self.fixed_gram(monkeypatch, K)
        with pytest.raises(NumericError):
            gcv_cost(1.0, self.ETA, data, Gaussian())

    def test_unconstrained_search_makes_no_spectrum(self, eigh_calls, cholesky_calls):
        config = SelectionConfig(method="gcv", optimizer=tiny_optimizer(), seed=3)
        data = smooth_data(45, seed=1)
        result = select_hyperparameters(config, data, Gaussian())
        assert eigh_calls == [] and data not in _SPECTRA
        assert result.factorizations == result.evaluations == len(cholesky_calls)

    CAP_AWARE = SelectionConfig(
        method="gcv", target=StabilityTarget.dbibs(), optimizer=tiny_optimizer(), seed=3
    )

    @staticmethod
    def failing_dptsv(monkeypatch):
        from stable_sysid import solver

        monkeypatch.setattr(solver, "dptsv", lambda d, e, b: (d, e, b, 1))

    def test_cap_aware_search_makes_no_spectrum(
        self, monkeypatch, eigh_calls, cholesky_calls, inverse_calls, reduction_calls
    ):
        # the cap-aware score comes off the reduction that finds the root:
        # no Cholesky factor and no triangular inverse
        data = smooth_data(45, seed=1)
        result = select_hyperparameters(self.CAP_AWARE, data, Gaussian())
        assert eigh_calls == [] and data not in _SPECTRA
        assert cholesky_calls == [] and inverse_calls == []
        assert len(reduction_calls) == result.factorizations == result.evaluations
        # the all-spectral search: every reduction, root and factor fails
        from stable_sysid import solver

        monkeypatch.setattr(solver, "dsytrd", lambda A, **kwargs: (A, None, None, None, 1))
        self.failing_dptsv(monkeypatch)
        self.failing_dpotrf(monkeypatch)
        spectral = select_hyperparameters(self.CAP_AWARE, smooth_data(45, seed=1), Gaussian())
        assert spectral.cost == pytest.approx(result.cost, rel=1e-8)

    def test_failed_root_takes_the_spectral_root(self, monkeypatch):
        # the reference replaces the tridiagonal path with the spectral root
        # and the spectral score terms, computed afresh per evaluation
        from stable_sysid import selection
        from stable_sysid.solver import _alpha_bar, _eig_psd

        def spectral(K, y, m, chi, beta):
            lam, _, yt = _eig_psd(K, y)
            alpha = max(beta, _alpha_bar(lam, yt ** 2, m, chi))
            d = lam + alpha
            return alpha, float(np.sum((alpha * yt / d) ** 2)), float(np.sum(alpha / d))

        monkeypatch.setattr(selection, "_effective_alpha", spectral)
        reference = select_hyperparameters(self.CAP_AWARE, smooth_data(45, seed=1), Gaussian())
        monkeypatch.undo()
        self.failing_dptsv(monkeypatch)
        fallback = select_hyperparameters(self.CAP_AWARE, smooth_data(45, seed=1), Gaussian())
        assert hex_result(fallback) == hex_result(reference)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gram_scores_no_cap_aware_point(self, monkeypatch, value):
        from stable_sysid.selection import _gram

        K = _gram(Gaussian(), self.ETA, smooth_data(45, seed=1))
        K[5, 3] = K[3, 5] = value
        self.fixed_gram(monkeypatch, K)
        with pytest.raises(NumericError, match="no finite cost"):
            select_hyperparameters(self.CAP_AWARE, smooth_data(45, seed=1), Gaussian())

    def test_spectral_search_selects_an_equal_cost(self, monkeypatch):
        config = SelectionConfig(method="gcv", optimizer=tiny_optimizer(), seed=3)
        cholesky = select_hyperparameters(config, smooth_data(45, seed=1), Gaussian())
        self.failing_dpotrf(monkeypatch)
        data = smooth_data(45, seed=1)
        spectral = select_hyperparameters(config, data, Gaussian())
        assert spectral.cost == pytest.approx(cholesky.cost, rel=1e-8)
        # every evaluation tried a factor and then factored the spectrum,
        # which GCV never memoizes
        assert spectral.factorizations == 2 * spectral.evaluations
        assert data not in _SPECTRA


class TestTridiagonalGcv:
    """The cap-aware GCV scored on the tridiagonal form that finds the root
    equals the spectral GCV at max(beta, alpha_bar)."""

    @staticmethod
    def scores(lam, Q, K, y, m, chi, beta):
        """The tridiagonal score, the spectral one, and the spectral
        ``max(beta, alpha_bar)``."""
        from stable_sysid.selection import _gcv_from_spectrum
        from stable_sysid.solver import _alpha_bar, _effective_alpha

        yt = Q.T @ y
        alpha = max(beta, _alpha_bar(lam, yt ** 2, m, chi))
        _, residual_sq, trace = _effective_alpha(K, y, m, chi, beta)
        return _gcv_score(y.size, residual_sq, trace), _gcv_from_spectrum(lam, yt, alpha, y.size), alpha

    @given(
        n=st.integers(2, 40),
        m=st.integers(1, 3),
        chi=st.floats(0.05, 0.95),
        log_beta=st.floats(-12.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_spectra(self, n, m, chi, log_beta, seed):
        # the tolerance adds the root's conditioning, the floor of any method
        # working on the rounded K (TestEffectiveAlpha.test_random_spectra)
        lam, Q, K, y = random_spectrum_problem(seed, n)
        beta = 10.0 ** log_beta
        value, expected, alpha = self.scores(lam, Q, K, y, m, chi, beta)
        cond = 0.0 if alpha == beta else root_conditioning(lam, (Q.T @ y) ** 2, alpha)
        assert value == pytest.approx(expected, rel=1e-9 + n * cond * np.finfo(float).eps)

    @pytest.mark.parametrize("ratio,binds", [(2.0, False), (1e-3, True)])
    def test_slack_and_binding_cap(self, ratio, binds):
        from stable_sysid.solver import _alpha_bar

        lam, Q, K, y = random_spectrum_problem(7, 30)
        alpha_bar = _alpha_bar(lam, (Q.T @ y) ** 2, 2, 0.5)
        assert alpha_bar > 0
        value, expected, alpha = self.scores(lam, Q, K, y, 2, 0.5, ratio * alpha_bar)
        assert (alpha > ratio * alpha_bar) is binds
        assert value == pytest.approx(expected, rel=1e-9)

    def test_largest_beta_scores_finite(self):
        lam, Q, K, y = random_spectrum_problem(7, 30)
        value, expected, alpha = self.scores(lam, Q, K, y, 2, 0.5, math.exp(690.0))
        assert alpha == math.exp(690.0)
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_zero_targets_score_zero(self):
        lam, Q, K, _ = random_spectrum_problem(7, 30)
        assert self.scores(lam, Q, K, np.zeros(30), 2, 0.5, 1e-3)[:2] == (0.0, 0.0)


class TestSpectrumMemo:
    """The EB search memoizes its spectra per data: a factorization is
    done once per (structure, eta) and data, and sharing changes no result.
    No other search reads or fills the memo."""

    def configs(self):
        # plain EB on a Gaussian: the deltaBIBS map is the unconstrained one
        # and the cost ignores the target, as in the H benchmark methods
        base = SelectionConfig(method="eb", cap_aware_cost=False, optimizer=tiny_optimizer(), seed=3)
        return replace(base, target=StabilityTarget.unconstrained()), replace(base, target=StabilityTarget.dbibs())

    def test_shared_data_gives_the_fresh_results(self):
        unconstrained, dbibs = self.configs()
        shared = smooth_data(45, seed=1)
        first = select_hyperparameters(unconstrained, shared, Gaussian())
        second = select_hyperparameters(dbibs, shared, Gaussian())
        alone_first = select_hyperparameters(unconstrained, smooth_data(45, seed=1), Gaussian())
        alone_second = select_hyperparameters(dbibs, smooth_data(45, seed=1), Gaussian())
        assert hex_result(first) == hex_result(alone_first)
        assert hex_result(second) == hex_result(alone_second)
        assert (first.evaluations, second.evaluations) == (alone_first.evaluations, alone_second.evaluations)

    @pytest.mark.parametrize("method,target", [("eb", "none"), ("eb", "dbibs")])
    def test_memo_changes_no_result(self, without_memo, method, target):
        # the reference search factors on every evaluation: every lookup in
        # the memo misses
        config = SelectionConfig(
            method=method, target=StabilityTarget.from_config({"kind": target}),
            optimizer=tiny_optimizer(), seed=5,
        )
        memoized = select_hyperparameters(config, smooth_data(45, seed=2), Gaussian())
        without_memo()
        reference = select_hyperparameters(config, smooth_data(45, seed=2), Gaussian())
        assert hex_result(memoized) == hex_result(reference)
        assert memoized.evaluations == reference.evaluations == reference.factorizations
        assert memoized.factorizations < memoized.evaluations

    def test_entries_are_the_spectra_of_their_keys(self):
        from stable_sysid.selection import _spectrum

        data = smooth_data(30)
        select_hyperparameters(self.configs()[1], data, Gaussian())
        fresh = smooth_data(30)
        assert memo(data)
        for (structure, eta_bytes), (lam, yt) in memo(data).items():
            eta = tuple(np.frombuffer(eta_bytes))
            expected_lam, expected_yt = _spectrum(structure, eta, fresh)
            assert np.array_equal(lam, expected_lam) and np.array_equal(yt, expected_yt)

    def test_identical_search_replays_every_factorization(self, eigh_calls):
        unconstrained, dbibs = self.configs()
        data = smooth_data(45, seed=1)
        first = select_hyperparameters(unconstrained, data, Gaussian())
        assert 0 < first.factorizations == len(eigh_calls) == len(memo(data))
        assert first.factorizations <= first.evaluations
        second = select_hyperparameters(dbibs, data, Gaussian())
        assert second.factorizations == 0
        assert second.evaluations == first.evaluations
        assert len(eigh_calls) == first.factorizations

    def test_memo_arrays_are_read_only(self):
        data = smooth_data(30)
        select_hyperparameters(self.configs()[0], data, Gaussian())
        assert memo(data)
        for lam, yt in memo(data).values():
            for values in (lam, yt):
                with pytest.raises(ValueError):
                    values[0] = 1.0

    def test_public_costs_do_not_use_the_memo(self, eigh_calls, cholesky_calls):
        # they are what a benchmark replay times, so each call must factor:
        # eb_cost by one eigh, gcv_cost by one Cholesky factor
        data = smooth_data(30)
        result = select_hyperparameters(self.configs()[0], data, Gaussian())
        entries, searched = len(memo(data)), len(eigh_calls)
        assert cholesky_calls == []
        for fn in (eb_cost, gcv_cost):
            fn(result.beta, result.eta, data, Gaussian())
        assert len(eigh_calls) == searched + 1
        assert cholesky_calls == [data.size]
        assert len(memo(data)) == entries

    def test_eb_after_gcv_fallbacks_is_the_fresh_search(self):
        # plain GCV on a LinearAffine kernel and exactly linear targets
        # drives beta down until Cholesky fails, and factors the spectrum
        def linear_data():
            Z = np.random.default_rng(0).normal(size=(40, 5))
            return RegressionData(Z, Z @ np.array([0.3, -0.2, 0.1, 0.5, 0.05]), 2)

        gcv = SelectionConfig(method="gcv", optimizer=tiny_optimizer(restarts=3, max_evals=120), seed=2)
        eb = replace(gcv, method="eb")
        data = linear_data()
        fallbacks = select_hyperparameters(gcv, data, LinearAffine())
        assert fallbacks.factorizations > fallbacks.evaluations and data not in _SPECTRA
        after = select_hyperparameters(eb, data, LinearAffine())
        fresh = select_hyperparameters(eb, linear_data(), LinearAffine())
        assert hex_result(after) == hex_result(fresh)
        assert (after.evaluations, after.factorizations, after.restarts) == \
            (fresh.evaluations, fresh.factorizations, fresh.restarts)

    def test_pickle_leaves_the_memo_behind(self):
        # a helper process gets the data and its pair terms, not the memo
        import pickle

        eb, _ = self.configs()
        data = smooth_data(45, seed=1)
        data.terms.sq, data.terms.inner
        before = pickle.dumps(data)
        searched = select_hyperparameters(eb, data, Gaussian())
        assert memo(data) and len(pickle.dumps(data)) == len(before)
        unpickled = pickle.loads(pickle.dumps(data))
        assert unpickled not in _SPECTRA
        assert np.array_equal(unpickled.terms.__dict__["sq"], data.terms.sq)
        again = select_hyperparameters(eb, unpickled, Gaussian())
        fresh = select_hyperparameters(eb, smooth_data(45, seed=1), Gaussian())
        assert hex_result(again) == hex_result(fresh) == hex_result(searched)
        assert (again.evaluations, again.factorizations, again.restarts) == \
            (fresh.evaluations, fresh.factorizations, fresh.restarts)

    def test_each_data_keeps_its_own_memo(self):
        # a data compares and hashes by identity, so data built from equal
        # arrays share no memo, and the memo leaves a data's pickle as it was
        import pickle

        eb, _ = self.configs()
        data, twin = smooth_data(30), smooth_data(30)
        assert data == data and data != twin and hash(data) == object.__hash__(data)
        data.terms.sq, data.terms.inner
        before = pickle.dumps(data)
        searched = select_hyperparameters(eb, data, Gaussian())
        assert pickle.dumps(data) == before
        assert memo(data) and twin not in _SPECTRA
        again = select_hyperparameters(eb, twin, Gaussian())
        assert again.factorizations == searched.factorizations == len(memo(twin)) == len(memo(data))
        assert memo(twin) is not memo(data)

    def test_kfold_search_factors_nothing(self):
        config = SelectionConfig(method="kfold", optimizer=tiny_optimizer(max_evals=40), seed=1)
        data = smooth_data(30)
        assert select_hyperparameters(config, data, Gaussian()).factorizations == 0
        assert data not in _SPECTRA

    def test_factorizations_default_and_not_compared(self):
        from stable_sysid.selection import SelectionResult

        plain = SelectionResult(beta=1.0, eta=(), cost=0.0, evaluations=3, feasible=True)
        assert (plain.factorizations, plain.restarts) == (0, ())
        assert plain == SelectionResult(1.0, (), 0.0, 3, True, factorizations=3)
        assert plain == SelectionResult(1.0, (), 0.0, 3, True, restarts=((3, 0.0, "maxfev"),))


class TestNelderMead:
    """The search's own Nelder-Mead repeats scipy's arithmetic bit for bit;
    scipy.optimize is the reference here and is imported by no module of
    the package."""

    @staticmethod
    def assert_matches_scipy(fun, x0, maxfev, xatol=SEARCH_XATOL, fatol=SEARCH_FATOL, adaptive=False):
        import scipy.optimize

        ref = scipy.optimize.minimize(
            fun, x0, method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": adaptive},
        )
        x, value, evaluations, stop = _nelder_mead(fun, x0, maxfev, xatol, fatol, adaptive)
        assert np.array_equal(x, ref.x)
        assert value == ref.fun
        assert evaluations == ref.nfev
        assert stop == ("maxfev" if ref.status == 1 else "tolerance")
        return stop

    @staticmethod
    def quadratic(dim):
        rng = np.random.default_rng(dim)
        A, center = rng.normal(size=(dim, dim)), rng.normal(size=dim)
        return lambda x: float(np.sum((A @ (x - center)) ** 2))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_dimensions_stop_on_tolerance(self, dim):
        x0 = np.linspace(0.5, 2.0, dim)
        assert self.assert_matches_scipy(self.quadratic(dim), x0, 4000, adaptive=dim > 4) == "tolerance"

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_dimensions_stop_on_maxfev(self, dim):
        def rosenbrock(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2) + x[0] ** 2)

        x0 = np.full(dim, -1.2)
        assert self.assert_matches_scipy(rosenbrock, x0, 25 * dim, adaptive=dim > 4) == "maxfev"

    def test_zero_coordinate_takes_the_small_step(self):
        self.assert_matches_scipy(self.quadratic(3), np.array([0.0, 1.5, 0.0]), 400)

    @pytest.mark.parametrize("maxfev", range(1, 61))
    def test_every_budget_on_tied_values(self, maxfev):
        # quarter steps tie many vertices exactly, and failed contractions
        # shrink, so some budget runs out inside a shrink
        def stepped(x):
            return math.floor(4.0 * float(np.sum((x - 0.3) ** 2))) / 4.0

        self.assert_matches_scipy(stepped, np.array([1.0, 0.0, -2.0]), maxfev, xatol=1e-6, fatol=1e-12)

    @pytest.mark.parametrize(
        "x0,step,xatol,fatol",
        [
            ([3.0, -1.0], 1.0, 1e-6, 1e-12),  # a contraction ties the reflection
            ([0.5, 2.5], 1.0, 1e-6, 1e-12),
            ([1.0, 0.0, -2.0], 0.25, 10.0, 0.25),  # the spread of values equals fatol
            ([3.0], 1.0, 10.0, 1.0),
            ([1.0], 1.0, 1.05 - 1.0, 1.0),  # the first simplex's spread equals xatol
            ([5.0, 5.0, 5.0], 1.0, 1e-6, 1e-12),  # an expansion ties the reflection
            ([5.0], 4.0, 1e-6, 1e-12),
        ],
    )
    def test_ties_at_the_comparisons(self, x0, step, xatol, fatol):
        def stepped(x):
            return math.floor(float(np.sum((x - 0.3) ** 2)) / step) * step

        self.assert_matches_scipy(stepped, np.array(x0), 200, xatol=xatol, fatol=fatol)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_bad_cost_plateau(self, adaptive):
        def fenced(x):
            return _BAD_COST if x[0] > 1.0 or x[1] < -0.5 else float(np.sum((x - 1.2) ** 2))

        self.assert_matches_scipy(fenced, np.array([0.9, -0.45, 0.2, 0.0, 1.0]), 600, adaptive=adaptive)

    def test_objective_receives_a_copy(self):
        seen = []

        def keeping(x):
            seen.append(x)
            x[0] = 99.0
            return float(np.sum(x ** 2))

        x, _, evaluations, _ = _nelder_mead(keeping, np.array([1.0, 2.0]), 30, 1e-6, 1e-10, False)
        assert len({id(v) for v in seen}) == evaluations == 30
        assert x[0] != 99.0

    def test_package_imports_no_scipy_optimize(self):
        # nor the scipy.linalg package, whose __init__ imports numpy.f2py:
        # the package binds scipy's LAPACK/BLAS modules by path; nor the
        # search's worker, which a GCV search imports on first use; nor the
        # thread pool (and its logging), which only n_jobs > 1 imports
        import subprocess
        import sys

        import stable_sysid

        src = str(Path(stable_sysid.__file__).resolve().parents[1])
        unwanted = ["scipy.optimize", "scipy.linalg", "numpy.f2py", "stable_sysid._worker", "subprocess",
                    "multiprocessing", "concurrent.futures", "logging"]
        for module in ("stable_sysid", "stable_sysid.cli"):
            code = f"import sys, {module}; print(sorted(set({unwanted!r}) & set(sys.modules)))"
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
            assert done.stdout.strip() == "[]", module


class TestRestartRecord:
    def test_restarts_sum_to_the_evaluations(self):
        config = SelectionConfig(method="gcv", optimizer=tiny_optimizer(restarts=3, max_evals=200), seed=2)
        result = select_hyperparameters(config, smooth_data(40, seed=3), Gaussian())
        assert len(result.restarts) == 3
        assert sum(spent for spent, _, _ in result.restarts) == result.evaluations
        assert min(cost for _, cost, _ in result.restarts) == result.cost
        assert {stop for _, _, stop in result.restarts} <= {"tolerance", "maxfev"}

    @pytest.mark.parametrize("system", ["A", "B"])
    def test_seed0_desk_searches_spend_their_budget(self, system):
        data = benchmark_data(system, 0)
        for method in standard_methods(system):
            _, _, sel = fit_method(data, method)
            assert [stop for _, _, stop in sel.restarts] == ["maxfev"] * 3, method.name
            assert sel.evaluations == 360


@pytest.mark.parametrize("restarts,cpus,processes", [
    (3, 2, 3), (2, 2, 2), (5, 2, 3), (6, 2, 2), (8, 2, 2), (3, 1, 1), (1, 4, 1), (7, 4, 7)])
def test_process_count_of_a_gcv_search(restarts, cpus, processes):
    from stable_sysid.selection import _processes

    assert _processes(restarts, cpus) == processes


class TestBudgetFloor:
    def test_floor_per_restart_binds_over_max_evals(self):
        # a Gaussian search has 4 coordinates (log beta and 3 of eta): each
        # restart may spend 2 * 4 + 2 = 10 evaluations, above 3 // 3 = 1
        config = SelectionConfig(method="gcv", optimizer=OptimizerConfig(restarts=3, max_evals=3), seed=0)
        result = select_hyperparameters(config, smooth_data(30), Gaussian())
        assert result.evaluations == 30
        assert [spent for spent, _, _ in result.restarts] == [10, 10, 10]

    def test_fewer_evaluations_than_restarts_rejected(self):
        with pytest.raises(InputError, match=r"max_evals must be >= restarts; each restart then spends "
                                              r"at most max\(max_evals // restarts, 2 \* dim \+ 2\)"):
            OptimizerConfig(restarts=4, max_evals=3)


class TestPackageGrams:
    """The package's own Grams enter the solve bodies directly: the boundary
    check of a caller's matrix runs on none of them, and a Gram that
    overflowed raises NumericError."""

    @pytest.fixture
    def unchecked(self, monkeypatch):
        def boundary(K, y):
            raise AssertionError("a package Gram went through the boundary check")

        monkeypatch.setattr(solver, "_validate_matrix", boundary)

    @pytest.mark.parametrize("target", [StabilityTarget.unconstrained(), StabilityTarget.diss()])
    def test_fit_method(self, unchecked, target):
        selection = SelectionConfig(method="gcv", optimizer=tiny_optimizer(max_evals=40), seed=2)
        _, report, _ = fit_method(smooth_data(40), MethodSpec("x", Gaussian(), replace(selection, target=target)))
        assert np.all(np.isfinite(report.coefficients))

    @pytest.mark.usefixtures("in_process")
    @pytest.mark.parametrize("cap_aware_cost", [False, True])
    def test_kfold_search(self, unchecked, cap_aware_cost):
        config = SelectionConfig(method="kfold", target=StabilityTarget.diss(), cap_aware_cost=cap_aware_cost,
                                 optimizer=tiny_optimizer(max_evals=40), seed=1)
        assert math.isfinite(select_hyperparameters(config, smooth_data(30), Gaussian()).cost)

    def test_same_bits_as_the_matrix_solves(self):
        data = smooth_data(40)
        kernel = KernelInstance(Gaussian(), (1.0, 0.5, 0.1), 5)
        K = gram_matrix(kernel, data.regressors)
        for constrained in (False, True):
            report = solve_constrained(FitProblem(data, kernel, beta=1e-6, chi=0.5, constrained=constrained))
            if constrained:
                c, alpha_bar = solver._norm_constrained(K, data.targets, 2, 0.5, 1e-6)
            else:
                c, alpha_bar = solver._ridge(K, data.targets, 1e-6), 0.0
            assert np.array_equal(report.coefficients, c) and report.alpha_bar == alpha_bar

    def test_overflowed_gram_raises_numeric_error(self):
        # finite data and eta whose inner products overflow
        data = build_regression_data(np.linspace(1.0, 2.0, 30), np.linspace(0.0, 1e200, 30), 1)
        kernel = KernelInstance(LinearAffine(), (1e300, 0.0), 3)
        with np.errstate(over="ignore"):
            for constrained in (False, True):
                with pytest.raises(NumericError, match="the Gram is not finite"):
                    solve_constrained(FitProblem(data, kernel, beta=1.0, constrained=constrained))
            with pytest.raises(NumericError, match="the Gram is not finite"):
                _kfold(1.0, kernel.eta, data, LinearAffine(), None)
            # the spectral path: its eigenvalues are not finite
            for cost in (eb_cost, gcv_cost):
                with pytest.raises(NumericError, match="the Gram is not finite"):
                    cost(1.0, kernel.eta, data, LinearAffine())

    def test_a_score_that_is_not_finite_raises_numeric_error(self):
        with pytest.raises(NumericError, match="GCV score is inf"):
            _gcv_score(3, math.inf, 1.0)


class TestMapEdges:
    """Past a feasible map's edge its image can leave the structure's domain,
    or the map can divide by an underflowed 0 (ROADMAP D7).  The search
    scores such a point ``_BAD_COST``, so the error does not escape it."""

    @pytest.mark.parametrize("method", ["gcv", "eb", "kfold"])
    @pytest.mark.parametrize("gamma_coordinate", [-740.0, -746.0], ids=["tau-inf", "zero-division"])
    def test_gaussian_finite_rho_cap(self, method, gamma_coordinate):
        # gamma underflows: the tau cap rho / (2 (1 - exp(-gamma rho))) is inf,
        # or its denominator is 0
        config = SelectionConfig(method=method, target=StabilityTarget.delta_viable(0.7))
        objective = _Objective(config, benchmark_data("B", 0), Gaussian())
        assert objective(np.array([0.0, gamma_coordinate, 0.0, 0.0])) == _BAD_COST
        assert objective(np.zeros(4)) < _BAD_COST

    @pytest.mark.parametrize("method", ["gcv", "eb", "kfold"])
    def test_sum_weight_underflowed_to_zero(self, method):
        structure = SumKernel(children=(Gaussian(), Matern32()))
        objective = _Objective(SelectionConfig(method=method), smooth_data(30), structure)
        assert objective(np.array([0.0, -800.0] + [0.0] * 7)) == _BAD_COST

    @pytest.mark.parametrize("method", ["gcv", "eb", "kfold"])
    def test_matern32_diss_map_overflow(self, method):
        # the finite-rho map squares gamma = exp(400): the float power overflows
        config = SelectionConfig(method=method, target=StabilityTarget.diss())
        objective = _Objective(config, benchmark_data("B", 0), Matern32())
        assert objective(np.array([0.0, 400.0, 0.0, 0.0])) == _BAD_COST
        assert objective(np.zeros(4)) < _BAD_COST


class TestNestedOrder:
    """A search may not select a higher cost than a search of the same cost,
    structure and data over a subset of its domain (ROADMAP Direction 21):
    Aa's against Ab's, Ba's against Bb's, and Ha's against Hb's and Hc's,
    at the benchmark's desk budget of 3 restarts of 120 evaluations.  The
    cap-aware cost of Ab and Bb charges ``max(alpha_bar, beta)``, itself an
    admissible ``beta``, so the rule holds for them too."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("system", ["A", "B"])
    def test_desk_gcv_searches_keep_the_order(self, system, seed):
        costs = desk_costs(system, seed)
        assert costs[f"{system}a"] <= costs[f"{system}b"]

    def test_hb_replays_ha(self):
        # plain EB ignores the target, and on a Gaussian the deltaBIBS map is the unconstrained one
        costs = desk_costs("H", 6)
        assert costs["Ha"] == costs["Hb"]

    @pytest.mark.xfail(strict=True, reason="D19: the desk EB search does not converge on H; "
                                           "Ha selects -1235.101 and Hc -1576.083")
    def test_desk_eb_search_keeps_the_order_on_h(self):
        # the benchmark's own seed breaks the rule too: on H seed 0, Ha selects
        # -1164.330 and Hc -1171.815
        costs = desk_costs("H", 6)
        assert costs["Ha"] <= costs["Hc"]
