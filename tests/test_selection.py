"""Selection costs and the constrained hyperparameter search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stable_sysid import (
    FitProblem,
    Gaussian,
    InfeasibleTargetError,
    InputError,
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
    solve_constrained,
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
            (lambda: SelectionConfig(kfold_k=2.5), "kfold_k must be an integer"),
            (lambda: SelectionConfig(seed=True), "seed must be an integer"),
            (lambda: SelectionConfig(iota=True), "iota must be a number"),
            (lambda: SelectionConfig(iota="1e-8"), "iota must be a number"),
            (lambda: SelectionConfig(cap_aware_cost="yes"), "cap_aware_cost must be true or false"),
            (lambda: SelectionConfig(iota=math.inf), "iota must be a number"),
            (lambda: SelectionConfig(chi="0.5"), "chi must be a number"),
            (lambda: SelectionConfig(chi=math.nan), "chi must be a number"),
        ],
    )
    def test_rejects_bad_values(self, make, message):
        with pytest.raises(InputError, match=message):
            make()

    def test_integral_and_numpy_values_normalized(self):
        config = SelectionConfig(kfold_k=4.0, seed=np.int64(7), iota=np.float32(0.5),
                                 optimizer=OptimizerConfig(restarts=np.int16(2), max_evals=90.0))
        assert (config.kfold_k, config.seed, config.iota) == (4, 7, 0.5)
        assert (config.optimizer.restarts, config.optimizer.max_evals) == (2, 90)
        values = (config.kfold_k, config.seed, config.iota, config.optimizer.restarts, config.optimizer.max_evals)
        assert [type(v) for v in values] == [int, int, float, int, int]


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


def hex_result(result):
    return (result.beta.hex(), tuple(float(v).hex() for v in result.eta), result.cost.hex())


class TestSpectrumMemo:
    """The search memoizes its spectra on the data: a factorization is done
    once per (structure, eta) and data, and sharing changes no result."""

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

    @pytest.mark.parametrize("method,target", [("eb", "none"), ("gcv", "dbibs")])
    def test_memo_changes_no_result(self, monkeypatch, method, target):
        # the reference search factors on every evaluation: each access to
        # the memo sees an empty dict
        from stable_sysid import solver

        config = SelectionConfig(
            method=method, target=StabilityTarget.from_config({"kind": target}),
            optimizer=tiny_optimizer(), seed=5,
        )
        memoized = select_hyperparameters(config, smooth_data(45, seed=2), Gaussian())
        monkeypatch.setattr(solver.RegressionData, "spectra", property(lambda self: {}))
        reference = select_hyperparameters(config, smooth_data(45, seed=2), Gaussian())
        assert hex_result(memoized) == hex_result(reference)
        assert memoized.evaluations == reference.evaluations == reference.factorizations
        assert memoized.factorizations < memoized.evaluations

    def test_entries_are_the_spectra_of_their_keys(self):
        from stable_sysid.selection import _spectrum

        data = smooth_data(30)
        select_hyperparameters(self.configs()[1], data, Gaussian())
        fresh = smooth_data(30)
        for (structure, eta_bytes), (lam, yt) in data.spectra.items():
            eta = tuple(np.frombuffer(eta_bytes))
            expected_lam, expected_yt = _spectrum(structure, eta, fresh)
            assert np.array_equal(lam, expected_lam) and np.array_equal(yt, expected_yt)

    def test_identical_search_replays_every_factorization(self, eigh_calls):
        unconstrained, dbibs = self.configs()
        data = smooth_data(45, seed=1)
        first = select_hyperparameters(unconstrained, data, Gaussian())
        assert 0 < first.factorizations == len(eigh_calls) == len(data.spectra)
        assert first.factorizations <= first.evaluations
        second = select_hyperparameters(dbibs, data, Gaussian())
        assert second.factorizations == 0
        assert second.evaluations == first.evaluations
        assert len(eigh_calls) == first.factorizations

    def test_memo_arrays_are_read_only(self):
        data = smooth_data(30)
        select_hyperparameters(self.configs()[0], data, Gaussian())
        assert data.spectra
        for lam, yt in data.spectra.values():
            for values in (lam, yt):
                with pytest.raises(ValueError):
                    values[0] = 1.0

    def test_public_costs_do_not_use_the_memo(self, eigh_calls):
        # they are what a benchmark replay times, so each call must factor
        data = smooth_data(30)
        result = select_hyperparameters(self.configs()[0], data, Gaussian())
        entries, searched = len(data.spectra), len(eigh_calls)
        for fn in (eb_cost, gcv_cost):
            fn(result.beta, result.eta, data, Gaussian())
        assert len(eigh_calls) == searched + 2
        assert len(data.spectra) == entries

    def test_kfold_search_factors_nothing(self):
        config = SelectionConfig(method="kfold", optimizer=tiny_optimizer(max_evals=40), seed=1)
        data = smooth_data(30)
        assert select_hyperparameters(config, data, Gaussian()).factorizations == 0
        assert data.spectra == {}

    def test_factorizations_default_and_not_compared(self):
        from stable_sysid.selection import SelectionResult

        plain = SelectionResult(beta=1.0, eta=(), cost=0.0, evaluations=3, feasible=True)
        assert plain.factorizations == 0
        assert plain == SelectionResult(1.0, (), 0.0, 3, True, factorizations=3)
