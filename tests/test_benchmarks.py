"""Benchmark systems, dataset generation, Monte-Carlo harness, CSV round trips."""

import csv
import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from stable_sysid import (
    benchmarks,
    Dataset,
    Gaussian,
    InputError,
    KernelInstance,
    MethodSpec,
    MonteCarloConfig,
    NarxFading,
    NumericError,
    OptimizerConfig,
    Polynomial,
    PredictorModel,
    RegressionData,
    SelectionConfig,
    StabilityTarget,
    SyntheticSystemSpec,
    generate_dataset,
    run_monte_carlo,
    simulate_hh,
    simulate_system_a,
    simulate_system_b,
    standard_methods,
    summarize,
)
from stable_sysid.benchmarks import (
    _HH_BLOCK,
    FailureRow,
    ResultRow,
    draw_multisine,
    hh_alpha,
    hh_beta,
    read_dataset_csv,
    write_dataset_csv,
    write_results_csv,
)
from stable_sysid.predictor import run_model
from stable_sysid.solver import build_regression_data
from stable_sysid.viability import numeric_falsifier


def fast_selection():
    return SelectionConfig(method="gcv", optimizer=OptimizerConfig(restarts=2, max_evals=120))


class TestSystemsAB:
    def test_zero_everything_stays_zero(self):
        for sim in (simulate_system_a, simulate_system_b):
            y = sim(np.zeros(10), 0.0, 0.0, 10)
            assert np.all(y == 0.0)

    def test_one_step_hand_values(self):
        ya = simulate_system_a(np.zeros(3), 1.0, 0.0, 3)
        assert ya[2] == pytest.approx(0.2 * math.sqrt(math.sin(1.0) + 1.0), rel=1e-14)
        yb = simulate_system_b(np.zeros(3), 1.0, 0.0, 3)
        assert yb[2] == pytest.approx(0.2 * math.sin(1.0) ** 2, rel=1e-14)

    def test_analytic_bounds_hold_on_random_runs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.normal(size=120)
            y0, y1 = rng.normal(size=2)
            ya = simulate_system_a(u, y0, y1, 120)
            for t in range(2, 120):
                p_norm = math.sqrt(ya[t - 2] ** 2 + ya[t - 1] ** 2 + u[t - 2] ** 2 + u[t - 1] ** 2)
                assert 0.0 <= ya[t] <= 0.2 * math.sqrt(2.0) * p_norm + 1e-12
            yb = simulate_system_b(u, y0, y1, 120)
            assert np.all(yb[2:] >= 0.0) and np.all(yb[2:] <= 0.2)

    def test_largest_magnitude_runs_and_a_larger_one_is_named(self):
        # at the bound the four squares of a regressor sum to a finite norm
        # (a RuntimeWarning fails the test); past it the argument is named
        bound = benchmarks._AB_MAGNITUDE
        above = np.nextafter(bound, math.inf)
        for sim in (simulate_system_a, simulate_system_b):
            assert np.all(np.isfinite(sim(np.full(12, -bound), bound, -bound, 12)))
            for what, args in [("u", (np.full(12, above), 0.0, 0.0)), ("y0", (np.zeros(12), above, 0.0)),
                               ("y1", (np.zeros(12), 0.0, -above))]:
                with pytest.raises(InputError, match=f"^{what} must lie within"):
                    sim(*args, 12)


class TestHodgkinHuxleyGate:
    def test_rate_singularity_handled(self):
        near = hh_alpha(np.array([-10.0, -10.0 + 1e-9, -10.0 - 1e-9]))
        assert near == pytest.approx([0.1, 0.1, 0.1], rel=1e-6)
        assert np.isfinite(hh_alpha(np.array([-50.0, 0.0, 40.0]))).all()

    def test_constant_voltage_reaches_algebraic_fixed_point(self):
        for V in (-3.0, 0.0, 5.0):
            voltage = lambda t, V=V: np.full_like(np.asarray(t, dtype=float), V)
            kappa_end = simulate_hh(voltage, 0.9, t_end=200.0, dt_solver=0.01)[-1]
            a, b = float(hh_alpha(V)), float(hh_beta(V))
            assert abs(a * (1 - kappa_end) - b * kappa_end) <= 1e-8

    def test_gate_stays_in_unit_interval_for_valid_start(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            voltage = draw_multisine(np.random.default_rng(seed))
            kappa0 = float(rng.uniform(0, 1))
            kappa = simulate_hh(voltage, kappa0, t_end=30.0, dt_solver=0.005)
            assert kappa.shape == (6001,)
            assert np.all(kappa >= -1e-9)
            assert np.all(kappa <= 1.0 + 1e-9)

    def test_current_vanishes_at_reversal_voltage(self, monkeypatch):
        # one sine of frequency 0 and phase pi/2 holds V at 12 exactly
        reversal = benchmarks.MultisineRealization(np.array([12.0]), np.array([0.0]), np.array([math.pi / 2]))
        monkeypatch.setattr(benchmarks, "draw_multisine", lambda rng: reversal)
        benchmarks._clear_memos()
        try:
            train, valid = generate_dataset(SyntheticSystemSpec("H", seed=1, n_train=20, n_valid=20))
        finally:
            benchmarks._clear_memos()
        for data in (train, valid):
            assert np.all(data.u == 12.0) and np.all(data.y == 0.0)

    @pytest.mark.parametrize(
        "voltage",
        [lambda t: np.full(t.shape, "a"), lambda t: np.ones(t.shape, dtype=bool), lambda t: t + 0j,
         lambda t: [t.tolist(), [0.0]], lambda t: t[:-1], lambda t: np.where(t > 0.005, np.nan, t)],
        ids=["string", "bool", "complex", "ragged", "wrong-length", "nan"],
    )
    def test_malformed_voltage_grid_is_a_numeric_error(self, voltage):
        with pytest.raises(NumericError, match="^voltage input produced a malformed or non-finite sample grid$"):
            simulate_hh(voltage, 0.5, 0.01, 0.001)

    def test_float64_grid_reaches_the_rates_as_given(self, monkeypatch):
        grids, seen = [], []
        rates = benchmarks.hh_alpha
        monkeypatch.setattr(benchmarks, "hh_alpha", lambda V: seen.append(V) or rates(V))
        simulate_hh(lambda t: grids.append(np.sin(t)) or grids[-1], 0.5, 0.01, 0.001)
        assert len(seen) == len(grids) == 1 and seen[0] is grids[0]
        integer = simulate_hh(lambda t: np.zeros(t.shape, dtype=np.int64), 0.5, 0.01, 0.001)
        assert np.array_equal(integer, simulate_hh(lambda t: np.zeros(t.shape), 0.5, 0.01, 0.001))

    def test_overflowing_gate_names_its_step(self):
        # at V = 0 a step of 100 is far past RK4's stability limit
        with pytest.raises(NumericError, match="^gate integration produced a non-finite state at step 87$"):
            simulate_hh(lambda t: np.zeros(t.shape), 0.5, 1e5, 100.0)

    def test_fourth_order_convergence_on_dt_halving(self):
        voltage = draw_multisine(np.random.default_rng(7))
        t_end = 2.0
        ref = simulate_hh(voltage, 0.4, t_end, dt_solver=t_end / 12800)[-1]
        errors = []
        for steps in (100, 200, 400):
            kappa = simulate_hh(voltage, 0.4, t_end, dt_solver=t_end / steps)[-1]
            errors.append(abs(kappa - ref))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5


def reference_kappa(voltage, kappa0, n_steps, h):
    """The gate recursion on one full-horizon half-step grid."""
    V = np.asarray(voltage(0.5 * h * np.arange(2 * n_steps + 1)), dtype=float)
    A = hh_alpha(V)
    B = A + hh_beta(V)
    c1, d1 = A[0:-1:2], -B[0:-1:2]
    Ah, Bh, A1, B1 = A[1::2], B[1::2], A[2::2], B[2::2]
    c2, d2 = Ah - Bh * (h / 2.0) * c1, -Bh * (1.0 + (h / 2.0) * d1)
    c3, d3 = Ah - Bh * (h / 2.0) * c2, -Bh * (1.0 + (h / 2.0) * d2)
    c4, d4 = A1 - B1 * h * c3, -B1 * (1.0 + h * d3)
    q = (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    p = 1.0 + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    kappa = [float(kappa0)]
    for p_i, q_i in zip(p.tolist(), q.tolist()):
        kappa.append(p_i * kappa[-1] + q_i)
    return np.array(kappa)


def reference_hh(spec, n, salt):
    """An H set as its definition states it: the gate at each 0.1 s sample
    indexed by ``rint(t / dt)``, the current from a fresh multisine call."""
    rng = np.random.default_rng([spec.seed, *salt])
    multisine = draw_multisine(rng)
    kappa0 = float(rng.standard_normal())
    noise = spec.noise_std * rng.standard_normal(n)
    dt, t = benchmarks.DEFAULT_HH_DT, 0.1 * np.arange(1, n + 1)
    kappa = simulate_hh(lambda s: multisine(49.9 + s), kappa0, 0.1 * n, dt)
    V = multisine(49.9 + t)
    return V, 36.0 * (V - 12.0) * kappa[np.rint(t / dt).astype(int)] ** 4 + noise


class TestHodgkinHuxleyBlocks:
    H = 0.01

    def test_multi_block_horizon_bit_equal_to_one_pass(self):
        voltage = draw_multisine(np.random.default_rng(4))
        steps = 2 * _HH_BLOCK + 5
        got = simulate_hh(voltage, 0.3, steps * self.H, self.H)
        assert np.array_equal(got, reference_kappa(voltage, 0.3, steps, self.H))

    @pytest.mark.parametrize("steps", [24, 25])
    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_block_size_moves_no_bit(self, monkeypatch, block, steps):
        voltage = draw_multisine(np.random.default_rng(4))
        want = simulate_hh(voltage, 0.3, steps * self.H, self.H)
        monkeypatch.setattr(benchmarks, "_HH_BLOCK", block)
        got = simulate_hh(voltage, 0.3, steps * self.H, self.H)
        assert got.shape == (steps + 1,)
        assert np.array_equal(got, want)
        assert np.array_equal(got, reference_kappa(voltage, 0.3, steps, self.H))

    @pytest.mark.parametrize("block", [3, None])
    def test_voltage_sees_one_block_at_a_time(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(benchmarks, "_HH_BLOCK", block)
        block = benchmarks._HH_BLOCK
        multisine = draw_multisine(np.random.default_rng(4))
        sizes = []

        def voltage(t):
            sizes.append(np.size(t))
            return multisine(t)

        steps = 2 * block + 1  # two full blocks and a one-step tail
        simulate_hh(voltage, 0.3, steps * self.H, self.H)
        assert max(sizes) <= 2 * block + 1
        # each block's grid shares its first point with the last of the one before
        assert sum(sizes) == 2 * steps + len(sizes) and len(sizes) == 3


class TestGenerateDataset:
    def test_deterministic_given_seed(self):
        spec = SyntheticSystemSpec("A", seed=4, n_train=50, n_valid=30)
        t1, v1 = generate_dataset(spec)
        benchmarks._generate_pair.cache_clear()  # draw again, not from the memo
        t2, v2 = generate_dataset(spec)
        assert t1 is not t2
        assert np.array_equal(t1.u, t2.u) and np.array_equal(t1.y, t2.y)
        assert np.array_equal(v1.u, v2.u) and np.array_equal(v1.y, v2.y)
        assert not np.array_equal(t1.y, v1.y)  # validation is a fresh draw

    def test_default_sizes_match_protocol(self):
        spec = SyntheticSystemSpec("A", seed=0)
        train, valid = generate_dataset(spec)
        assert len(train) == 200 and len(valid) == 200

    def test_salt_varies_the_draw(self):
        spec = SyntheticSystemSpec("B", seed=4, n_train=40, n_valid=40)
        t1, _ = generate_dataset(spec, salt=(0,))
        t2, _ = generate_dataset(spec, salt=(1,))
        assert not np.array_equal(t1.y, t2.y)

    @pytest.mark.parametrize("variant,band", [("A", (5, 20)), ("B", (5, 20))])
    def test_snr_band(self, variant, band):
        ratios = []
        for seed in range(6):
            noisy, _ = generate_dataset(SyntheticSystemSpec(variant, seed=seed))
            clean, _ = generate_dataset(
                SyntheticSystemSpec(variant, seed=seed, noise_std=0.0)
            )
            noise = noisy.y - clean.y
            ratios.append(float(np.var(clean.y) / np.var(noise)))
        median = float(np.median(ratios))
        assert band[0] <= median <= band[1], ratios

    def test_hh_dataset_shapes_and_values(self):
        spec = SyntheticSystemSpec("H", seed=2, n_train=20, n_valid=10)
        train, valid = generate_dataset(spec)
        assert len(train) == 20 and len(valid) == 10
        assert np.all(np.isfinite(train.y))
        # multisine amplitudes cap |V| at 50 * 0.5 = 25
        assert np.max(np.abs(train.u)) <= 25.0

    @pytest.mark.parametrize("seed,n_valid", [(0, 40), (3, 1200)])
    def test_hh_pair_is_the_sampled_gate_current(self, seed, n_valid):
        spec = SyntheticSystemSpec("H", seed=seed, n_train=30, n_valid=n_valid)
        for data, salt in zip(generate_dataset(spec, salt=(2,)), ((2, 0), (2, 1))):
            u, y = reference_hh(spec, len(data), salt)
            assert np.array_equal(data.u, u) and np.array_equal(data.y, y)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InputError):
            SyntheticSystemSpec("C", seed=0)

    def test_a_count_that_cannot_be_allocated_is_an_input_error(self):
        # numpy's own error where an allocation fails is a MemoryError
        def unallocatable(n):
            raise MemoryError(f"Unable to allocate {8 * n / 2**30:.1f} GiB")

        with pytest.raises(InputError, match=r"^too many samples for an array: Unable to allocate 74\.5 GiB$"):
            benchmarks._sized(unallocatable, 10**10, "samples")


# one count of each library type: (field, a valid value, the object built from it)
LIBRARY_COUNTS = [
    ("input_dim", 5, lambda v: KernelInstance(Gaussian(), (1.0, 1.0, 0.0), v).input_dim),
    ("model_order", 2, lambda v: PredictorModel(v, KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5),
                                                 np.zeros((1, 5)), np.zeros(1),
                                                 StabilityTarget.unconstrained()).model_order),
    ("model order m", 2, lambda v: build_regression_data(np.arange(6.0), np.arange(6.0), v).model_order),
    ("model order m", 2, lambda v: RegressionData(np.zeros((3, 5)), np.zeros(3), v).model_order),
    ("degree", 3, lambda v: Polynomial(v).degree),
    ("model_order", 2, lambda v: NarxFading(v, 1).model_order),
    ("window", 1, lambda v: NarxFading(2, v).window),
]

# counts whose lower bound moved into the config helpers, or is new (the
# seeds): (field as named in the message, the bound, a build from a count)
BOUNDED_COUNTS = [
    ("model_order", 1, LIBRARY_COUNTS[1][2]),
    ("model order m", 1, LIBRARY_COUNTS[2][2]),
    ("model order m", 1, LIBRARY_COUNTS[3][2]),
    ("degree", 2, LIBRARY_COUNTS[4][2]),
    ("model_order", 1, lambda v: NarxFading(v, 1)),
    ("n_train", 3, lambda v: SyntheticSystemSpec("B", n_train=v)),
    ("n_valid", 3, lambda v: SyntheticSystemSpec("B", n_valid=v)),
    ("seed", 0, lambda v: SyntheticSystemSpec("B", seed=v)),
    ("seed", 0, lambda v: SelectionConfig(seed=v)),
    ("seed", 0, lambda v: numeric_falsifier(KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5),
                                            StabilityTarget.iss(), sample_count=10, seed=v)),
]


class TestConfigValues:
    """The config dataclasses validate their own counts and real values."""

    @pytest.mark.parametrize(
        "kwargs,field",
        [({"seed": 2.7}, "seed"), ({"n_train": 40.9}, "n_train"), ({"n_valid": "30"}, "n_valid"),
         ({"seed": True}, "seed"), ({"noise_std": True}, "noise_std"),
         ({"noise_std": math.inf}, "noise_std"), ({"noise_std": math.nan}, "noise_std")],
    )
    def test_system_spec_rejects_bad_values(self, kwargs, field):
        with pytest.raises(InputError, match=f"^{field} must be an? (integer|number)"):
            SyntheticSystemSpec("B", **kwargs)

    def test_system_spec_normalizes_integral_and_numpy_values(self):
        spec = SyntheticSystemSpec("B", seed=np.int64(3), n_train=40.0, n_valid=np.int32(30), noise_std=np.float32(0.5))
        assert (spec.seed, spec.n_train, spec.n_valid, spec.noise_std) == (3, 40, 30, 0.5)
        assert [type(v) for v in (spec.seed, spec.n_train, spec.n_valid, spec.noise_std)] == [int, int, int, float]

    @pytest.mark.parametrize(
        "kwargs,message",
        [({"runs": 1.5}, "runs must be an integer"), ({"model_order": 2.5}, "model_order must be an integer"),
         ({"n_jobs": True}, "n_jobs must be an integer"), ({"model_order": 0}, "model_order must be >= 1")],
    )
    def test_monte_carlo_config_rejects_bad_counts(self, kwargs, message):
        spec = SyntheticSystemSpec("B", seed=1, n_train=20, n_valid=20)
        methods = standard_methods("B", fast_selection())
        with pytest.raises(InputError, match=message):
            MonteCarloConfig(**{"runs": 1, "systems": (spec,), "methods": methods, **kwargs})

    def test_monte_carlo_config_accepts_numpy_counts(self):
        spec = SyntheticSystemSpec("B", seed=1, n_train=20, n_valid=20)
        config = MonteCarloConfig(runs=np.int64(2), systems=(spec,), methods=standard_methods("B"), model_order=2.0)
        assert (config.runs, config.model_order) == (2, 2)
        assert type(config.runs) is int and type(config.model_order) is int

    @pytest.mark.parametrize("field,value,build", LIBRARY_COUNTS)
    def test_library_counts_accept_integral_and_numpy_values(self, field, value, build):
        for count in (value, float(value), np.int64(value), np.int32(value)):
            built = build(count)
            assert built == value and type(built) is int

    @pytest.mark.parametrize("bad", [2.7, "2", True])
    @pytest.mark.parametrize("field,value,build", LIBRARY_COUNTS)
    def test_library_counts_reject_non_integral_values(self, field, value, build, bad):
        with pytest.raises(InputError, match=f"^{field} must be an integer"):
            build(bad)

    @pytest.mark.parametrize("chi", ["0.5", True, None, math.inf, math.nan])
    def test_method_spec_rejects_non_number_chi(self, chi):
        with pytest.raises(InputError, match="^chi must be a number"):
            MethodSpec("fit", Gaussian(), SelectionConfig(chi=chi, target=StabilityTarget.diss()))

    @pytest.mark.parametrize("chi", [0.0, 1.0, 1.5, -0.5])
    def test_method_spec_rejects_chi_outside_unit_interval(self, chi):
        method = standard_methods("B")[1]
        with pytest.raises(InputError, match=r"^chi must lie in \(0, 1\)"):
            replace(method, selection=replace(method.selection, chi=chi))

    def test_method_target_is_the_selection_target(self):
        selection = replace(fast_selection(), target=StabilityTarget.diss())
        method = MethodSpec("x", Gaussian(), selection)
        assert [f.name for f in fields(MethodSpec)] == ["name", "structure", "selection"]
        assert method.target == method.selection_config().target == StabilityTarget.diss()
        with pytest.raises(InputError, match="^method selection must be"):
            MethodSpec("x", Gaussian(), StabilityTarget.diss())
        with pytest.raises(TypeError):
            MethodSpec("x", Gaussian(), target=StabilityTarget.diss())
        with pytest.raises(TypeError):
            replace(method, target=StabilityTarget.unconstrained())
        train, _ = generate_dataset(SyntheticSystemSpec("B", seed=2, n_train=30, n_valid=10))
        model, report, _ = benchmarks.fit_method(build_regression_data(train.u, train.y, 2), method)
        assert model.stability_tag == StabilityTarget.diss()
        assert report.mu <= selection.chi * (1 + 1e-9)

    def test_standard_methods_carry_their_targets(self):
        kinds = {variant: [m.selection.target.label() for m in standard_methods(variant, fast_selection())]
                 for variant in ("A", "B", "H")}
        assert kinds == {"A": ["none", "iss"], "B": ["none", "diss"], "H": ["none", "dbibs", "diss"]}
        for method in standard_methods("H", fast_selection()):
            assert method.selection == replace(fast_selection(), target=method.target)

    def test_method_chi_is_the_selection_chi(self, monkeypatch):
        seen = {}

        def search(config, data, structure):
            seen["search"] = config.chi
            return select(config, data, structure)

        def solve(problem):
            seen["fit"] = problem.chi
            return solve_constrained(problem)

        select, solve_constrained = benchmarks.select_hyperparameters, benchmarks.solve_constrained
        monkeypatch.setattr(benchmarks, "select_hyperparameters", search)
        monkeypatch.setattr(benchmarks, "solve_constrained", solve)
        train, _ = generate_dataset(SyntheticSystemSpec("B", seed=2, n_train=30, n_valid=10))
        method = MethodSpec("x", Gaussian(), replace(fast_selection(), chi=0.5, target=StabilityTarget.diss()))
        _, report, _ = benchmarks.fit_method(build_regression_data(train.u, train.y, 2), method)
        assert seen == {"search": 0.5, "fit": 0.5}
        assert report.mu <= 0.5 * (1 + 1e-9)

    @pytest.mark.parametrize("field,minimum,build", BOUNDED_COUNTS)
    def test_counts_below_their_bound_are_rejected(self, field, minimum, build):
        with pytest.raises(InputError, match=f"^{field} must be >= {minimum}, got {minimum - 1}$"):
            build(minimum - 1)


def reference_multisine(ms, t):
    """The multisine summed one full-length temporary per sine."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for a, nu, phi in zip(ms.amplitudes, ms.frequencies, ms.phases):
        out += a * np.sin(2.0 * math.pi * nu * t + phi)
    return out


class TestMultisine:
    @pytest.mark.parametrize(
        "shape",
        [(), (1,), (2 * _HH_BLOCK,), (2 * _HH_BLOCK + 1,), (2 * _HH_BLOCK + 2,), (3, 7), (0,)],
    )
    def test_sum_bit_equal_to_reference(self, shape):
        ms = draw_multisine(np.random.default_rng(9))
        size = int(np.prod(shape))
        t = 49.9 + 0.0005 * np.arange(size, dtype=float).reshape(shape)
        got = ms(t)
        want = reference_multisine(ms, t)
        assert got.shape == want.shape == np.shape(t)
        assert np.array_equal(got, want)

    def test_scalar_time_gives_zero_d_array(self):
        ms = draw_multisine(np.random.default_rng(9))
        got = ms(12.5)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert np.array_equal(got, reference_multisine(ms, 12.5))


class TestMonteCarlo:
    def test_row_accounting(self):
        spec = SyntheticSystemSpec("B", seed=1, n_train=40, n_valid=40)
        methods = standard_methods("B", fast_selection())
        config = MonteCarloConfig(runs=2, systems=(spec,), methods=methods)
        result = run_monte_carlo(config)
        assert len(result.rows) + len(result.failures) == 2 * len(methods)
        assert len(result.failures) == 0
        assert {row.method for row in result.rows} == {"Ba", "Bb"}

    def test_reproducible(self):
        spec = SyntheticSystemSpec("B", seed=1, n_train=30, n_valid=30)
        methods = (MethodSpec("Ba", Gaussian(), fast_selection()),)
        config = MonteCarloConfig(runs=2, systems=(spec,), methods=methods)
        r1 = run_monte_carlo(config)
        r2 = run_monte_carlo(config)

        def content(result):  # everything but the wall-clock column
            return [(r.run, r.system, r.method, r.q_pre, r.q_sim, r.feasible) for r in result.rows]

        assert content(r1) == content(r2)
        assert r1.failures == r2.failures

    def test_beats_trivial_zero_predictor(self):
        # noise-free System B: a fitted model must out-predict the zero model
        spec = SyntheticSystemSpec("B", seed=5, n_train=80, n_valid=80, noise_std=0.0)
        methods = (MethodSpec("Ba", Gaussian(), fast_selection()),)
        config = MonteCarloConfig(runs=1, systems=(spec,), methods=methods)
        result = run_monte_carlo(config)
        assert len(result.rows) == 1
        _, valid = generate_dataset(spec, salt=(0,))
        zero_q_pre = float(np.mean(np.abs(valid.y[2:])))
        assert result.rows[0].q_pre < zero_q_pre

    def test_numeric_failure_becomes_a_failure_row(self, monkeypatch):
        spec = SyntheticSystemSpec("B", seed=1, n_train=30, n_valid=30)
        config = MonteCarloConfig(runs=2, systems=(spec,), methods=standard_methods("B", fast_selection()))
        fit = benchmarks.fit_method

        def failing(data, method):
            if method.name == "Bb":
                raise NumericError("the Gram is not finite")
            return fit(data, method)

        def content(rows):  # everything but the wall-clock column
            return [(r.run, r.method, r.q_pre, r.q_sim, r.feasible) for r in rows]

        kept = [row for row in run_monte_carlo(config).rows if row.method == "Ba"]
        monkeypatch.setattr(benchmarks, "fit_method", failing)
        result = run_monte_carlo(config)
        assert result.failures == tuple(FailureRow(run, "B", "Bb", "the Gram is not finite") for run in (0, 1))
        assert content(result.rows) == content(kept) and [r.run for r in kept] == [0, 1]

    def test_infeasible_method_rejected_upfront(self):
        spec = SyntheticSystemSpec("B", seed=1, n_train=30, n_valid=30)
        bad = (MethodSpec("Bx", Gaussian(), replace(fast_selection(), target=StabilityTarget.iss())),)
        from stable_sysid import InfeasibleTargetError

        with pytest.raises(InfeasibleTargetError):
            run_monte_carlo(MonteCarloConfig(runs=1, systems=(spec,), methods=bad))

    def test_summary_quartiles(self):
        from stable_sysid.benchmarks import ResultRow

        rows = [
            ResultRow(run=i, system="B", method="Ba", q_pre=float(i), q_sim=2.0 * i,
                      feasible=True, fit_seconds=0.0)
            for i in range(5)
        ]
        summary = summarize(rows)
        pre = next(s for s in summary if s["metric"] == "q_pre")
        assert pre["median"] == 2.0 and pre["min"] == 0.0 and pre["max"] == 4.0
        sim = next(s for s in summary if s["metric"] == "q_sim")
        assert sim["median"] == 4.0


def counting_generation(monkeypatch):
    """Patch the one-dataset generator and the public pair generator to
    record their calls; returns the two call lists."""
    one_calls, pair_calls = [], []
    generate_one, generate_pair = benchmarks._generate_one, benchmarks.generate_dataset

    def one(spec, n, salt):
        one_calls.append((spec.variant, salt))
        return generate_one(spec, n, salt)

    def pair(spec, salt=()):
        pair_calls.append((spec.variant, salt))
        return generate_pair(spec, salt)

    monkeypatch.setattr(benchmarks, "_generate_one", one)
    monkeypatch.setattr(benchmarks, "generate_dataset", pair)
    return one_calls, pair_calls


class TestSharedDataset:
    """Each (run, system) pair is drawn once per harness call and shared by
    that run's methods."""

    def config(self, n_jobs=1):
        systems = (
            SyntheticSystemSpec("B", seed=2, n_train=25, n_valid=25),
            SyntheticSystemSpec("A", seed=3, n_train=25, n_valid=25),
        )
        methods = tuple(
            MethodSpec(name, Gaussian(), replace(fast_selection(), iota=iota))
            for name, iota in (("G1", 1e-10), ("G2", 1e-8))
        )
        return MonteCarloConfig(runs=2, systems=systems, methods=methods, n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_one_pair_per_run_and_system(self, monkeypatch, n_jobs):
        one_calls, pair_calls = counting_generation(monkeypatch)
        result = run_monte_carlo(self.config(n_jobs))
        assert len(result.rows) == 8 and not result.failures
        expected = sorted(
            (variant, (run, part)) for run in range(2) for variant in ("A", "B") for part in (0, 1)
        )
        assert sorted(one_calls) == expected
        # the tracer's contract: one public generation call per cell
        assert sorted(pair_calls) == sorted(
            (variant, (run,)) for run in range(2) for variant in ("A", "B") for _ in range(2)
        )

    def test_threads_share_pairs_under_fast_switching(self, monkeypatch):
        # more workers than cores, switching often: each pair is still
        # drawn once, and every cell sees the serial data
        serial = run_monte_carlo(self.config())
        one_calls, _ = counting_generation(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_monte_carlo(self.config(n_jobs=8))
        finally:
            sys.setswitchinterval(interval)
        assert [r.q_pre for r in threaded.rows] == [r.q_pre for r in serial.rows]
        assert [r.q_sim for r in threaded.rows] == [r.q_sim for r in serial.rows]
        assert len(set(one_calls)) == len(one_calls) == 8

    def test_each_group_runs_on_one_thread(self, monkeypatch):
        # more workers than groups, switching often: every cell of a
        # (run, system) group runs on its group's thread, methods in order
        cells, run_cell = {}, benchmarks._run_cell

        def recording(config, run, system, method):
            cells.setdefault((run, system.variant), []).append((threading.get_ident(), method.name))
            return run_cell(config, run, system, method)

        monkeypatch.setattr(benchmarks, "_run_cell", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_monte_carlo(self.config(n_jobs=8))
        finally:
            sys.setswitchinterval(interval)
        assert len(result.rows) == 8 and not result.failures
        assert sorted(cells) == [(run, variant) for run in range(2) for variant in ("A", "B")]
        for group in cells.values():
            assert len({thread for thread, _ in group}) == 1
            assert [name for _, name in group] == ["G1", "G2"]

    def test_no_pair_crosses_calls(self, monkeypatch):
        config = self.config()
        for spec in config.systems:
            generate_dataset(spec, salt=(0,))  # drawn before the call: not reused
        one_calls, _ = counting_generation(monkeypatch)
        first = run_monte_carlo(config)
        assert len(one_calls) == 8
        second = run_monte_carlo(config)
        assert len(one_calls) == 16
        assert [r.q_pre for r in first.rows] == [r.q_pre for r in second.rows]

    def test_rows_equal_fresh_per_cell_generation(self, monkeypatch):
        config = self.config()
        shared = run_monte_carlo(config)

        def fresh(spec, salt=()):
            benchmarks._generate_pair.cache_clear()
            return benchmarks._generate_pair(spec, tuple(salt))

        monkeypatch.setattr(benchmarks, "generate_dataset", fresh)
        unshared = run_monte_carlo(config)

        def content(result):
            return [(r.run, r.system, r.method, r.q_pre, r.q_sim, r.feasible) for r in result.rows]

        assert content(shared) == content(unshared)

    def test_returned_arrays_are_read_only(self):
        train, valid = generate_dataset(SyntheticSystemSpec("H", seed=1, n_train=10, n_valid=10))
        for data in (train, valid):
            for values in (data.u, data.y):
                with pytest.raises(ValueError):
                    values[0] = 1.0

    def test_pairs_do_not_outlive_the_call(self):
        run_monte_carlo(self.config())
        assert benchmarks._generate_pair.cache_info().currsize == 0
        assert benchmarks._training_data.cache_info().currsize == 0


class TestSharedTrainingData:
    """The methods of a run share one RegressionData, and with it the EB
    search's memo of spectra: H's unconstrained and deltaBIBS searches are
    the same search, so the second factors nothing.  Sharing changes no
    row."""

    def config(self, runs=1, n_jobs=1):
        selection = replace(
            benchmarks.benchmark_selection_config(method="eb"),
            optimizer=OptimizerConfig(restarts=2, max_evals=40),
        )
        spec = SyntheticSystemSpec("H", seed=1, n_train=40, n_valid=60)
        return MonteCarloConfig(
            runs=runs, systems=(spec,), methods=standard_methods("H", selection), n_jobs=n_jobs
        )

    def test_each_factorization_runs_once(self, monkeypatch, eigh_calls):
        from stable_sysid import selection

        keys, results = [], {}
        real_spectrum, real_select = selection._spectrum, benchmarks.select_hyperparameters

        def spectrum(structure, eta, data):
            keys.append((structure, np.asarray(eta, dtype=float).tobytes()))
            return real_spectrum(structure, eta, data)

        def select(config, data, structure):
            results[config.target.label()] = result = real_select(config, data, structure)
            return result

        monkeypatch.setattr(selection, "_spectrum", spectrum)
        monkeypatch.setattr(benchmarks, "select_hyperparameters", select)
        result = run_monte_carlo(self.config())
        assert len(result.rows) == 3 and not result.failures
        # the search's distinct spectra, plus the constrained final solves
        # of Hb and Hc
        assert len(keys) == len(set(keys))
        assert len(eigh_calls) == len(set(keys)) + 2
        unconstrained, dbibs, diss = (results[label] for label in ("none", "dbibs", "diss"))
        assert dbibs.factorizations == 0 and dbibs.evaluations == unconstrained.evaluations
        assert unconstrained.factorizations + diss.factorizations == len(set(keys))

    def test_rows_equal_separate_fits(self, without_memo):
        # each method fitted on its own freshly built data, with a search
        # that factors on every evaluation, gives the harness's rows bit
        # for bit
        config = self.config(runs=2)
        shared = run_monte_carlo(config)
        without_memo()
        separate = []
        for run in range(config.runs):
            train, valid = generate_dataset(config.systems[0], salt=(run,))
            for method in config.methods:
                data = build_regression_data(train.u, train.y, config.model_order)
                model, _, sel = benchmarks.fit_method(data, method)
                scores = run_model(model, valid.u, valid.y)
                separate.append((run, method.name, scores.q_pre.hex(), scores.q_sim.hex(), sel.feasible))
        assert [
            (r.run, r.method, r.q_pre.hex(), r.q_sim.hex(), r.feasible) for r in shared.rows
        ] == separate

    @pytest.mark.parametrize("n_jobs", [2, 8])
    def test_thread_pool_rows_equal_serial(self, n_jobs):
        # each group's methods share the data and its memo on their group's
        # thread, so the pool's rows are the serial rows bit for bit
        def content(result):
            return [(r.run, r.method, r.q_pre.hex(), r.q_sim.hex(), r.feasible) for r in result.rows]

        serial = run_monte_carlo(self.config(runs=2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_monte_carlo(self.config(runs=2, n_jobs=n_jobs))
        finally:
            sys.setswitchinterval(interval)
        assert content(threaded) == content(serial)


@pytest.mark.usefixtures("in_process")
class TestSearchLock:
    """A search holds the package's scipy lock under the fit's thread rule
    (see :mod:`stable_sysid.selection`), and every other scipy caller of the
    package takes it, so a group's final Cholesky never runs inside another
    group's search: at N >= 128 its bits depend on the thread count."""

    def config(self, runs=2, n_jobs=1):
        spec = SyntheticSystemSpec("B", seed=4, n_train=130, n_valid=30)
        selection = replace(fast_selection(), optimizer=OptimizerConfig(restarts=1, max_evals=30))
        return MonteCarloConfig(runs=runs, systems=(spec,), methods=(MethodSpec("Ba", Gaussian(), selection),),
                                n_jobs=n_jobs)

    @staticmethod
    def content(result):
        return [(r.run, r.q_pre.hex(), r.q_sim.hex(), r.feasible) for r in result.rows]

    def test_a_final_solve_due_inside_a_search_waits_for_it(self, monkeypatch):
        from stable_sysid import selection, solver

        serial = run_monte_carlo(self.config())
        entered, solved, order = threading.Event(), threading.Event(), []
        real_gcv, real_ridge = selection._gcv, solver._ridge

        def gcv(*args):
            # the second group to score a point holds still inside its search
            # until the first group's final solve is done; the lock keeps
            # that solve out, so the wait runs out instead
            if threading.get_ident() not in order:
                order.append(threading.get_ident())
                if len(order) == 2:
                    entered.set()
                    solved.wait(timeout=1.0)
            return real_gcv(*args)

        def ridge(*args):
            entered.wait(timeout=1.0)  # until the other group is searching
            c = real_ridge(*args)
            solved.set()
            return c

        monkeypatch.setattr(selection, "_gcv", gcv)
        monkeypatch.setattr(solver, "_ridge", ridge)
        threaded = run_monte_carlo(self.config(n_jobs=2))
        assert len(serial.rows) == 2 and not threaded.failures
        assert self.content(threaded) == self.content(serial)

    def test_more_workers_than_cores_under_fast_switching_give_the_serial_rows(self):
        serial = run_monte_carlo(self.config(runs=4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_monte_carlo(self.config(runs=4, n_jobs=8))
        finally:
            sys.setswitchinterval(interval)
        assert len(serial.rows) == 4 and not threaded.failures
        assert self.content(threaded) == self.content(serial)


def read_results(path) -> list:
    """The rows of a ``results.csv``, read back by the csv module."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == benchmarks.RESULTS_HEADER
        return [ResultRow(int(r["run"]), r["system"], r["method"], float(r["q_pre"]), float(r["q_sim"]),
                          r["feasible"] == "true", float(r["fit_seconds"])) for r in reader]


class TestCsvRoundTrips:
    def test_dataset_round_trip(self, tmp_path):
        train, _ = generate_dataset(SyntheticSystemSpec("A", seed=3, n_train=25, n_valid=10))
        path = tmp_path / "data.csv"
        write_dataset_csv(train, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.u, train.u)
        assert np.array_equal(back.y, train.y)
        assert path.read_text().splitlines()[0] == "t,u,y"

    def test_results_round_trip(self, tmp_path):
        rows = [
            ResultRow(run=0, system="H", method="Hc", q_pre=0.1234567890123,
                      q_sim=1.5e-3, feasible=True, fit_seconds=2.5),
            ResultRow(run=1, system="H", method="Ha", q_pre=3.0, q_sim=40.0,
                      feasible=False, fit_seconds=1.25),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(rows, path, record_timing=True)
        back = read_results(path)
        assert back == rows

    def test_results_timing_zeroed_by_default(self, tmp_path):
        rows = [ResultRow(run=0, system="B", method="Ba", q_pre=0.5, q_sim=0.5,
                          feasible=True, fit_seconds=123.4)]
        path = tmp_path / "results.csv"
        write_results_csv(rows, path)
        assert read_results(path)[0].fit_seconds == 0.0

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("content,message", [(b"t,u,y\n1,0.5\n", "malformed row"), (b"t,u,y\n", "has no rows")],
                             ids=["short-row", "header-only"])
    def test_short_rows_and_header_only_datasets_rejected(self, tmp_path, content, message):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        with pytest.raises(InputError, match=message):
            read_dataset_csv(path)

    def test_header_only_results_read_as_empty(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv([], path)
        assert path.read_bytes() == ",".join(benchmarks.RESULTS_HEADER).encode() + b"\r\n"
        assert read_results(path) == []

    @pytest.mark.parametrize("last_cell", [None, b"abc", b"\xff", b"0.1\x00"], ids=["missing", "cell", "undecodable", "nul"])
    def test_unreadable_files_are_input_errors(self, tmp_path, last_cell):
        # a well-formed header and row whose last cell is bad, or no file
        path = tmp_path / "data.csv"
        if last_cell is not None:
            path.write_bytes(b"t,u,y\n0,0," + last_cell + b"\n")
        with pytest.raises(InputError, match="^cannot read CSV"):
            read_dataset_csv(path)
