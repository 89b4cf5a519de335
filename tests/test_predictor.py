"""Predictor models: evaluation, prediction, simulation, metrics, serialization."""

import math
import tracemalloc

import numpy as np
import pytest

from stable_sysid import (
    DivergenceError,
    FeatureGaussian,
    FitProblem,
    Gaussian,
    InputError,
    KernelInstance,
    LinearAffine,
    PredictorModel,
    StabilityTarget,
    build_regression_data,
    load_model,
    membership,
    metrics,
    one_step_predict,
    save_model,
    simulate,
    solve_constrained,
)
from stable_sysid.benchmarks import SyntheticSystemSpec, fit_method, generate_dataset, standard_methods
from stable_sysid.kernels import ROW_BLOCK, PairTerms, _RowTerms
from stable_sysid.predictor import _f_batch
from oracles import free_run_step_ratio
from rule_cases import all_structures


def make_model(structure=None, eta=(1.0, 1.0, 0.0), centers=None, coefficients=None,
               m=2, tag=None):
    structure = structure if structure is not None else Gaussian()
    centers = centers if centers is not None else np.zeros((1, 2 * m + 1))
    coefficients = coefficients if coefficients is not None else np.zeros(len(centers))
    return PredictorModel(
        model_order=m,
        kernel=KernelInstance(structure, eta, 2 * m + 1),
        centers=np.asarray(centers, dtype=float),
        coefficients=np.asarray(coefficients, dtype=float),
        stability_tag=tag if tag is not None else StabilityTarget.unconstrained(),
    )


def f_at(model, z):
    """``f`` at one window, through the package's one evaluator."""
    return float(_f_batch(model, np.asarray(z, dtype=float)[None, :])[0])


def k_pair(kernel, a, b):
    """``k_eta(a, b)`` from the structure's ``from_terms`` on row-paired terms."""
    return kernel.structure.from_terms(kernel.eta, _RowTerms(a[None, :], b[None, :]))[0]


def fitted_model(seed=0, n=60, constrained=True, target=None, structure=None, eta=None,
                 beta=1e-4):
    """Small constrained fit on a smooth synthetic sequence."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(2, n):
        y[t] = 0.3 * math.sin(y[t - 1]) + 0.2 * math.tanh(u[t - 1]) + 0.05 * u[t]
    data = build_regression_data(u, y, 2)
    structure = structure if structure is not None else Gaussian()
    eta = eta if eta is not None else (0.5, 0.3, 0.01)
    kernel = KernelInstance(structure, eta, 5)
    problem = FitProblem(data=data, kernel=kernel, beta=beta, chi=0.99, constrained=constrained)
    report = solve_constrained(problem)
    tag = target if target is not None else StabilityTarget.dbibs()
    return PredictorModel.from_fit(data, kernel, report, tag), data, report


class TestEvaluateF:
    def test_zero_coefficients(self):
        model = make_model()
        assert f_at(model, np.ones(5)) == 0.0

    def test_single_center_at_peak(self):
        center = np.array([[0.5, -0.2, 1.0, 0.0, 0.3]])
        model = make_model(centers=center, coefficients=[0.7])
        assert f_at(model, center[0]) == pytest.approx(0.7)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(12, 5))
        coeff = rng.normal(size=12)
        model = make_model(eta=(0.8, 0.6, 0.2), centers=centers, coefficients=coeff)
        for _ in range(20):
            z = rng.normal(size=5)
            direct = sum(
                c * k_pair(model.kernel, z, center)
                for c, center in zip(coeff, centers)
            )
            assert f_at(model, z) == pytest.approx(direct, abs=1e-12)


class TestOneStepPredict:
    def test_zero_model_copies_seed_then_zero(self):
        model = make_model()
        u = np.arange(6.0)
        y = np.array([3.0, -1.0, 0.5, 0.2, 0.1, 0.4])
        pred = one_step_predict(model, u, y)
        assert pred[:2].tolist() == [3.0, -1.0]
        assert np.all(pred[2:] == 0.0)

    def test_interpolation_on_training_set(self):
        model, data, _ = fitted_model(constrained=False, beta=1e-9)
        preds = data.regressors  # predictions at training regressors
        values = np.array([f_at(model, z) for z in preds])
        assert np.max(np.abs(values - data.targets)) < 1e-3

    def test_hand_unroll_order_one(self):
        centers = np.array([[0.0, 0.0, 0.0]])
        model = PredictorModel(
            model_order=1,
            kernel=KernelInstance(LinearAffine(), (1.0, 0.0), 3),
            centers=centers + np.array([[1.0, 2.0, 3.0]]),
            coefficients=np.array([2.0]),
            stability_tag=StabilityTarget.unconstrained(),
        )
        u = np.array([0.5, -0.25])
        y = np.array([1.5, 9.9])
        pred = one_step_predict(model, u, y)
        # f(z) = 2 * (z . (1, 2, 3)); z = (y1, u1, u2) = (1.5, 0.5, -0.25)
        expected = 2 * (1.5 * 1 + 0.5 * 2 + (-0.25) * 3)
        assert pred[1] == pytest.approx(expected, abs=1e-14)

    def test_windows_never_build_pair_terms(self, monkeypatch):
        # an N x N pair-term cache over the prediction windows would cost
        # N^2 doubles for nothing: prediction needs windows x centers only
        from stable_sysid import predictor

        built = []

        def capture(u, y, m):
            data = build_regression_data(u, y, m)
            built.append(data)
            return data

        monkeypatch.setattr(predictor, "build_regression_data", capture)
        model, _, _ = fitted_model()
        rng = np.random.default_rng(1)
        one_step_predict(model, rng.normal(size=30), rng.normal(size=30))
        assert len(built) == 1
        assert "terms" not in built[0].__dict__

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            one_step_predict(make_model(), np.zeros(5), np.zeros(4))


class TestRowBlocks:
    """One-step prediction evaluates ``f`` in blocks of ``ROW_BLOCK`` windows."""

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513, 3000])
    @pytest.mark.parametrize("structure,eta", all_structures())
    def test_bit_equal_to_block_reference(self, structure, eta, rows):
        rng = np.random.default_rng(rows)
        centers = rng.normal(size=(37, 5))
        coeff = rng.normal(size=37)
        model = make_model(structure, eta, centers, coeff)
        u, y = rng.normal(size=rows + 2), rng.normal(size=rows + 2)
        pred = one_step_predict(model, u, y)
        Z = build_regression_data(u, y, 2).regressors
        blocks = [structure.from_terms(model.kernel.eta, PairTerms(Z[i:i + ROW_BLOCK], centers)) @ coeff
                  for i in range(0, rows, ROW_BLOCK)]
        assert np.array_equal(pred[2:], np.concatenate(blocks))
        # against the unblocked product, relative to the summed term magnitudes
        K = structure.from_terms(model.kernel.eta, PairTerms(Z, centers))
        assert np.all(np.abs(pred[2:] - K @ coeff) <= 1e-12 * (np.abs(K) @ np.abs(coeff)))

    def test_memory_bounded_by_one_block(self):
        # the unblocked 4,999 x 199 cross matrix traced a 16 MB peak; one
        # block of 256 windows stays under 4 MB
        rng = np.random.default_rng(0)
        model = make_model(centers=rng.normal(size=(199, 5)), coefficients=rng.normal(size=199))
        u, y = rng.normal(size=5001), rng.normal(size=5001)
        one_step_predict(model, u[:10], y[:10])
        tracemalloc.start()
        try:
            one_step_predict(model, u, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestSimulate:
    def test_zero_model_outputs_zero_after_seed(self):
        model = make_model()
        traj = simulate(model, np.ones(20), np.array([2.0, -3.0]))
        assert traj[:2].tolist() == [2.0, -3.0]
        assert np.all(traj[2:] == 0.0)

    def test_hand_recursion_five_steps(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(4, 5))
        coeff = rng.normal(size=4) * 0.1
        model = make_model(eta=(0.9, 0.5, 0.1), centers=centers, coefficients=coeff)
        u = rng.normal(size=7)
        seed = np.array([0.3, -0.2])
        traj = simulate(model, u, seed)
        manual = [0.3, -0.2]
        for j in range(2, 7):
            z = np.array([manual[j - 2], manual[j - 1], u[j - 2], u[j - 1], u[j]])
            manual.append(f_at(model, z))
        assert traj == pytest.approx(np.array(manual), abs=1e-14)

    def test_iss_tagged_model_decays_to_zero_input(self):
        model, _, report = fitted_model(
            structure=FeatureGaussian(), eta=(0.6, 0.4, 0.2),
            target=StabilityTarget.iss(),
        )
        assert report.mu <= 0.99 + 1e-8
        assert f_at(model, np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
        traj = simulate(model, np.zeros(300), np.array([0.5, -0.5]))
        assert abs(traj[-1]) < 1e-8

    def test_divergence_carries_first_bad_index(self):
        # f(z) = 4 z_1 doubles the output every step from y = 1
        model = PredictorModel(
            model_order=1,
            kernel=KernelInstance(LinearAffine(), (1.0, 0.0), 3),
            centers=np.array([[4.0, 0.0, 0.0]]),
            coefficients=np.array([1.0]),
            stability_tag=StabilityTarget.unconstrained(),
        )
        with pytest.raises(DivergenceError) as err:
            simulate(model, np.zeros(100), np.array([1.0]))
        # 4^k exceeds 1e12 first at k = 20, i.e. 1-based sample 21
        assert err.value.index == 21

    def test_seed_length_checked(self):
        with pytest.raises(InputError):
            simulate(make_model(), np.zeros(10), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_an_input_error(self, bad):
        u = np.zeros(10)
        u[6] = bad
        with pytest.raises(InputError):
            simulate(make_model(), u, np.zeros(2))
        with pytest.raises(InputError):
            simulate(make_model(), np.zeros(10), np.array([0.0, bad]))

    def test_bit_equal_to_validated_step_loop(self):
        # the loop builds each window by hand and evaluates it alone;
        # simulate's shift register must give the same bits
        model, data, _ = fitted_model(seed=5)
        u = np.random.default_rng(6).normal(size=40)
        seed = data.targets[:2]
        manual = list(seed)
        for j in range(2, 40):
            z = np.array([manual[j - 2], manual[j - 1], u[j - 2], u[j - 1], u[j]])
            manual.append(f_at(model, z))
        assert np.array_equal(simulate(model, u, seed), np.array(manual))


class TestMetrics:
    def test_identical_sequences_zero(self):
        y = np.arange(10.0)
        assert metrics(y, y, y, 2) == (0.0, 0.0)

    def test_constant_offset(self):
        y = np.zeros(10)
        shifted = y + 0.25
        q_pre, q_sim = metrics(y, shifted, y, 2)
        assert q_pre == pytest.approx(0.25)
        assert q_sim == 0.0

    def test_hand_computation(self):
        rng = np.random.default_rng(4)
        y, p, s = rng.normal(size=(3, 10))
        q_pre, q_sim = metrics(y, p, s, 2)
        assert q_pre == pytest.approx(np.mean(np.abs(y[2:] - p[2:])), abs=1e-14)
        assert q_sim == pytest.approx(np.mean(np.abs(y[2:] - s[2:])), abs=1e-14)

    @pytest.mark.parametrize("lengths,message", [((10, 10, 9), "three equal-length"),
                                                 ((2, 2, 2), "longer than the model order")])
    def test_rejects_bad_lengths(self, lengths, message):
        with pytest.raises(InputError, match=message):
            metrics(*(np.zeros(n) for n in lengths), 2)


class TestInvariants:
    def test_seed_convention_on_both_sequences(self):
        model, data, _ = fitted_model()
        rng = np.random.default_rng(5)
        u = rng.normal(size=30)
        y = rng.normal(size=30)
        pred = one_step_predict(model, u, y)
        sim = simulate(model, u, y[:2])
        assert pred[:2].tolist() == y[:2].tolist()
        assert sim[:2].tolist() == y[:2].tolist()

    def test_prediction_simulation_agree_on_shared_prefix(self):
        model, _, _ = fitted_model()
        u = np.linspace(-1, 1, 10)
        sim = simulate(model, u, np.array([0.1, 0.2]))
        pred_on_sim = one_step_predict(model, u, sim)
        # feeding the simulated outputs back as measurements reproduces the
        # same next value: both evaluate f on identical regressors
        assert pred_on_sim == pytest.approx(sim, abs=1e-14)

    def test_cauchy_schwarz_envelope(self):
        model, data, report = fitted_model()
        norm_sq = report.mu / data.model_order
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.normal(scale=2.0, size=5)
            bound = norm_sq * k_pair(model.kernel, z, z)
            assert f_at(model, z) ** 2 <= bound * (1 + 1e-9) + 1e-12


class TestIncrementalStability:
    def test_delta_fit_forgets_its_seed(self):
        """A deltaISS fit is incrementally stable: under one random input, the
        free runs from two random seed windows end within 1e-6 of each other."""
        model, _, _ = fitted_model(structure=Gaussian(), eta=(0.5, 0.3, 0.01),
                                   target=StabilityTarget.diss())
        assert membership(model.kernel.structure, model.kernel.eta, model.stability_tag)
        rng = np.random.default_rng(2)
        for _ in range(4):
            u = rng.uniform(-1.0, 1.0, size=402)
            ya = simulate(model, u, rng.uniform(-1.0, 1.0, size=2))
            yb = simulate(model, u, rng.uniform(-1.0, 1.0, size=2))
            assert abs(ya[-1] - yb[-1]) < 1e-6


def harness_fit(variant, seed, name):
    """A standard method fitted at desk scale on the harness's run-0 pair:
    the model, its fit report, and the training and validation sets."""
    train, valid = generate_dataset(SyntheticSystemSpec(variant, seed=seed), salt=(0,))
    method = next(method for method in standard_methods(variant) if method.name == name)
    model, report, _ = fit_method(build_regression_data(train.u, train.y, 2), method)
    return model, report, train, valid


class TestFreeRunStepRatio:
    """The deltaISS promise on fitted simulators: the gap between two free
    runs under one input obeys ``dy_t^2 <= (mu / m) sum_i dy_{t-i}^2``,
    checked against the fit's own ``mu`` with seed offsets ``d std(y)``."""

    # (system, seed, method, first validation sample): the largest ratio
    # measured is 0.0017, 0.26 and 0.49, each fit at mu = 0.99; from sample 0
    # on H seed 3 every model collapses within 4 steps, a transient
    @pytest.mark.parametrize("variant,seed,name,start", [("B", 0, "Bb", 0), ("H", 1, "Hc", 0), ("H", 3, "Hc", 200)])
    def test_delta_iss_fit_keeps_the_step_bound(self, variant, seed, name, start):
        model, report, train, valid = harness_fit(variant, seed, name)
        u, y_seed = valid.u[start:], valid.y[start:start + 2]
        for d in (1e-3, 0.3, 1.0):
            assert 0.0 < free_run_step_ratio(model, u, y_seed, train.y, d) <= report.mu

    def test_unconstrained_fit_breaks_it(self):
        # negative control: Ha on H seed 1 (mu = 149) reaches 762 and 303
        model, report, train, valid = harness_fit("H", 1, "Ha")
        for d in (1e-3, 0.3):
            assert free_run_step_ratio(model, valid.u, valid.y[:2], train.y, d) > report.mu


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model, _, _ = fitted_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.model_order == model.model_order
        assert loaded.kernel == model.kernel
        assert loaded.stability_tag == model.stability_tag
        assert np.array_equal(loaded.centers, model.centers)
        assert np.array_equal(loaded.coefficients, model.coefficients)

    def test_round_trip_preserves_predictions(self, tmp_path):
        model, _, _ = fitted_model(seed=9)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(10)
        for _ in range(20):
            z = rng.normal(size=5)
            assert f_at(loaded, z) == f_at(model, z)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_model(path)
