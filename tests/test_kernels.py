"""Kernel structures: pointwise values, metric, Gram assembly, Lambert W."""

import math

import numpy as np
import pytest

from stable_sysid import (
    FeatureGaussian,
    Gaussian,
    InputError,
    KernelInstance,
    LinearAffine,
    Matern32,
    NarxFading,
    Polynomial,
    ProductWithStationary,
    SumKernel,
    eval_kernel,
    eval_matrix,
    eval_pairs,
    gram_matrix,
    lambert_w0,
    squared_kernel_metric,
)
from stable_sysid.kernels import (
    PairTerms,
    _RowTerms,
    gram_from_terms,
    metric_pairs,
    structure_from_config,
    structure_to_config,
)

# frozen with mpmath at 30 digits: (1 + sqrt(3)) * exp(-sqrt(3))
MATERN_AT_UNIT_DISTANCE = 0.4833577245965076
# frozen with mpmath: 2 - 2/e
GAUSS_METRIC_AT_UNIT_SQDIST = 1.2642411176571153


def unit_apart(dim=5):
    a = np.zeros(dim)
    b = np.zeros(dim)
    b[0] = 1.0
    return a, b


def all_structures():
    """One representative (structure, eta) per variant, dim 5."""
    return [
        (LinearAffine(), (0.7, 0.3)),
        (Polynomial(degree=3), ()),
        (Gaussian(), (1.2, 0.8, 0.4)),
        (Matern32(), (0.9, 1.1, 0.2)),
        (NarxFading(model_order=2, window=1), (0.6, 0.5, 0.3)),
        (FeatureGaussian(), (0.5, 0.7, 0.2)),
        (
            SumKernel(children=(Gaussian(), LinearAffine())),
            (0.4, 0.3, 1.0, 0.5, 0.1, 0.6, 0.2),
        ),
        (
            ProductWithStationary(left=LinearAffine(), right=Gaussian()),
            (0.8, 0.1, 0.9, 0.4, 0.1),
        ),
    ]


class TestEval:
    def test_gaussian_diagonal_is_tau_plus_sigma(self):
        k = KernelInstance(Gaussian(), (2.0, 1.0, 0.5), 5)
        a = np.array([0.3, -1.2, 4.0, 0.0, 2.2])
        assert eval_kernel(k, a, a) == pytest.approx(2.5, abs=0)

    def test_linear_affine_orthogonal_zero_offset(self):
        k = KernelInstance(LinearAffine(), (1.0, 0.0), 5)
        a = np.array([1.0, 0, 0, 0, 0])
        b = np.array([0.0, 1, 0, 0, 0])
        assert eval_kernel(k, a, b) == 0.0

    def test_matern_value_at_unit_distance(self):
        k = KernelInstance(Matern32(), (1.0, 1.0, 0.0), 5)
        a, b = unit_apart()
        assert eval_kernel(k, a, b) == pytest.approx(MATERN_AT_UNIT_DISTANCE, rel=1e-14)

    def test_narx_fading_matches_hand_expansion(self):
        # m=2, p=1: windows (z1,z3), (z2,z4) of the difference, weights 1, e^-xi
        tau, gamma, xi = 0.6, 0.5, 0.3
        k = KernelInstance(NarxFading(model_order=2, window=1), (tau, gamma, xi), 5)
        a = np.array([0.2, -0.4, 1.0, 0.3, -2.0])
        b = np.array([-0.1, 0.5, 0.2, 0.0, 1.5])
        z = a - b
        expected = tau * (
            math.exp(-gamma * (z[0] ** 2 + z[2] ** 2))
            + math.exp(-xi - gamma * (z[1] ** 2 + z[3] ** 2))
        )
        assert eval_kernel(k, a, b) == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch_rejected(self):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        with pytest.raises(InputError):
            eval_kernel(k, np.zeros(4), np.zeros(4))
        with pytest.raises(InputError):
            eval_kernel(k, np.zeros(5), np.zeros(4))

    @pytest.mark.parametrize("structure,eta", all_structures())
    def test_symmetry_on_random_pairs(self, structure, eta):
        k = KernelInstance(structure, eta, 5)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = rng.normal(scale=3.0, size=5)
            b = rng.normal(scale=3.0, size=5)
            v1 = eval_kernel(k, a, b)
            v2 = eval_kernel(k, b, a)
            assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1))

    @pytest.mark.parametrize("structure,eta", all_structures())
    def test_cauchy_schwarz_bound(self, structure, eta):
        k = KernelInstance(structure, eta, 5)
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = rng.normal(scale=2.0, size=5)
            b = rng.normal(scale=2.0, size=5)
            lhs = abs(eval_kernel(k, a, b))
            rhs = math.sqrt(eval_kernel(k, a, a) * eval_kernel(k, b, b))
            assert lhs <= rhs + 1e-12


def reference_cross(structure, eta, A, B):
    """Each structure's cross matrix as written before pair terms were
    cached: every product and sum in the same order, from raw points."""
    def sq_dist():
        diff = A[:, None, :] - B[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    if isinstance(structure, LinearAffine):
        tau, sigma = eta
        return tau * (A @ B.T) + sigma
    if isinstance(structure, Polynomial):
        return (A @ B.T) ** structure.degree
    if isinstance(structure, Gaussian):
        tau, gamma, sigma = eta
        return tau * np.exp(-gamma * sq_dist()) + sigma
    if isinstance(structure, Matern32):
        tau, gamma, sigma = eta
        r = math.sqrt(3.0) * gamma * np.sqrt(sq_dist())
        return tau * (1.0 + r) * np.exp(-r) + sigma
    if isinstance(structure, NarxFading):
        tau, gamma, xi = eta
        m, p = structure.model_order, structure.window
        coords = [(A[:, c, None] - B[None, :, c]) ** 2 for c in range(A.shape[1])]
        total = None
        for t in range(m - p + 1):
            acc = coords[t].copy()
            for c in range(t + 1, t + p):
                acc += coords[c]
            for c in range(m + t, m + t + p):
                acc += coords[c]
            term = np.exp(-xi * t - gamma * acc)
            total = term if total is None else total + term
        return tau * total
    if isinstance(structure, FeatureGaussian):
        tau, gamma, sigma = eta
        return (A @ B.T) * (tau * np.exp(-gamma * sq_dist()) + sigma)
    if isinstance(structure, SumKernel):
        weights, parts = structure.split_eta(eta)
        total = None
        for w, child, part in zip(weights, structure.children, parts):
            term = w * reference_cross(child, part, A, B)
            total = term if total is None else total + term
        return total
    if isinstance(structure, ProductWithStationary):
        eta_l, eta_r = structure.split_eta(eta)
        return reference_cross(structure.left, eta_l, A, B) * reference_cross(structure.right, eta_r, A, B)
    raise AssertionError(f"no reference for {structure!r}")


def pair_term_cases():
    """Every structure, nested sum/product, and narx_fading at p = 1 and 2."""
    nested = SumKernel(children=(
        ProductWithStationary(left=FeatureGaussian(), right=Matern32()),
        SumKernel(children=(Polynomial(degree=2), NarxFading(model_order=2, window=2))),
    ))
    nested_eta = (0.6, 0.4, 0.5, 0.7, 0.2, 0.9, 1.1, 0.1, 0.3, 1.0, 0.8, 0.5, 0.2)
    return all_structures() + [
        (NarxFading(model_order=2, window=2), (0.6, 0.5, 0.3)),
        (nested, nested_eta),
    ]


class TestPairTerms:
    @pytest.mark.parametrize("structure,eta", pair_term_cases())
    def test_cross_matrix_bit_equal_to_reference_rectangular(self, structure, eta):
        rng = np.random.default_rng(3)
        A = rng.normal(scale=1.5, size=(7, 5))
        B = rng.normal(scale=1.5, size=(4, 5))
        structure.validate_eta(eta)
        assert np.array_equal(structure.cross_matrix(eta, A, B), reference_cross(structure, eta, A, B))

    @pytest.mark.parametrize("structure,eta", pair_term_cases())
    def test_gram_bit_equal_to_reference(self, structure, eta):
        P = np.random.default_rng(4).normal(scale=1.5, size=(9, 5))
        K = reference_cross(structure, eta, P, P)
        expected = 0.5 * (K + K.T)
        kernel = KernelInstance(structure, eta, 5)
        assert np.array_equal(gram_matrix(kernel, P), expected)
        assert np.array_equal(gram_from_terms(kernel, PairTerms(P, P)), expected)

    @pytest.mark.parametrize("structure,eta", pair_term_cases())
    def test_shared_terms_serve_many_eta_unchanged(self, structure, eta):
        P = np.random.default_rng(5).normal(size=(6, 5))
        terms = PairTerms(P, P)
        first = KernelInstance(structure, eta, 5)
        scaled = KernelInstance(structure, tuple(1.5 * v for v in eta), 5)
        for kernel in (first, scaled, first):
            assert np.array_equal(gram_from_terms(kernel, terms), gram_matrix(kernel, P))
        # assembly never writes into the cached terms
        fresh = PairTerms(P, P)
        for name in ("inner", "sq", "dist"):
            if name in terms.__dict__:
                assert np.array_equal(terms.__dict__[name], getattr(fresh, name))
        for (m, p), windows in terms._windows.items():
            for got, want in zip(windows, fresh.window_sq(m, p)):
                assert np.array_equal(got, want)
        # the row-paired terms serve many eta the same way
        Q = np.random.default_rng(6).normal(size=(6, 5))
        rows = _RowTerms(P, Q)
        for kernel in (first, scaled, first):
            assert np.array_equal(structure.from_terms(kernel.eta, rows), eval_pairs(kernel, P, Q))
        fresh = _RowTerms(P, Q)
        for name in ("inner", "sq", "dist"):
            if name in rows.__dict__:
                assert np.array_equal(rows.__dict__[name], getattr(fresh, name))
        for (m, p), windows in rows._windows.items():
            for got, want in zip(windows, fresh.window_sq(m, p)):
                assert np.array_equal(got, want)


def reference_pairs(structure, eta, A, B):
    """Each structure's row pairs k(A[i], B[i]) as written before every
    evaluation went through ``from_terms``: one formula per structure."""
    def sq_dist():
        d = A - B
        return np.einsum("ij,ij->i", d, d)

    def gauss(tau, gamma, sigma, sq):
        return tau * np.exp(-gamma * sq) + sigma

    if isinstance(structure, LinearAffine):
        tau, sigma = eta
        return tau * np.einsum("ij,ij->i", A, B) + sigma
    if isinstance(structure, Polynomial):
        return np.einsum("ij,ij->i", A, B) ** structure.degree
    if isinstance(structure, Gaussian):
        return gauss(*eta, sq_dist())
    if isinstance(structure, Matern32):
        tau, gamma, sigma = eta
        r = math.sqrt(3.0) * gamma * np.sqrt(sq_dist())
        return tau * (1.0 + r) * np.exp(-r) + sigma
    if isinstance(structure, NarxFading):
        tau, gamma, xi = eta
        m, p = structure.model_order, structure.window
        Z = A - B
        coords = [Z[:, c] ** 2 for c in range(Z.shape[1])]
        total = None
        for t in range(m - p + 1):
            acc = coords[t].copy()
            for c in range(t + 1, t + p):
                acc += coords[c]
            for c in range(m + t, m + t + p):
                acc += coords[c]
            term = np.exp(-xi * t - gamma * acc)
            total = term if total is None else total + term
        return tau * total
    if isinstance(structure, FeatureGaussian):
        return np.einsum("ij,ij->i", A, B) * gauss(*eta, sq_dist())
    if isinstance(structure, SumKernel):
        weights, parts = structure.split_eta(eta)
        total = None
        for w, child, part in zip(weights, structure.children, parts):
            term = w * reference_pairs(child, part, A, B)
            total = term if total is None else total + term
        return total
    if isinstance(structure, ProductWithStationary):
        eta_l, eta_r = structure.split_eta(eta)
        return reference_pairs(structure.left, eta_l, A, B) * reference_pairs(structure.right, eta_r, A, B)
    raise AssertionError(f"no reference for {structure!r}")


def reference_diag(structure, eta, A):
    """Each structure's diagonal k(A[i], A[i]) as written in closed form
    before diagonals went through ``from_terms``; narx_fading excluded."""
    zz = np.einsum("ij,ij->i", A, A)
    if isinstance(structure, LinearAffine):
        tau, sigma = eta
        return tau * zz + sigma
    if isinstance(structure, Polynomial):
        return zz ** structure.degree
    if isinstance(structure, (Gaussian, Matern32)):
        tau, _, sigma = eta
        return np.full(A.shape[0], tau + sigma)
    if isinstance(structure, FeatureGaussian):
        tau, _, sigma = eta
        return (tau + sigma) * zz
    if isinstance(structure, SumKernel):
        weights, parts = structure.split_eta(eta)
        total = None
        for w, child, part in zip(weights, structure.children, parts):
            term = w * reference_diag(child, part, A)
            total = term if total is None else total + term
        return total
    if isinstance(structure, ProductWithStationary):
        eta_l, eta_r = structure.split_eta(eta)
        return reference_diag(structure.left, eta_l, A) * reference_diag(structure.right, eta_r, A)
    raise AssertionError(f"no reference for {structure!r}")


def has_narx(structure):
    if isinstance(structure, SumKernel):
        return any(has_narx(c) for c in structure.children)
    if isinstance(structure, ProductWithStationary):
        return has_narx(structure.left) or has_narx(structure.right)
    return isinstance(structure, NarxFading)


class TestOneFormula:
    """Matrices, row pairs and diagonals all come from ``from_terms``."""

    @pytest.mark.parametrize("structure,eta", pair_term_cases())
    def test_rows_bit_equal_to_reference(self, structure, eta):
        rng = np.random.default_rng(8)
        A, B = rng.normal(scale=1.5, size=(2, 300, 5))
        kernel = KernelInstance(structure, eta, 5)
        assert np.array_equal(eval_pairs(kernel, A, B), reference_pairs(structure, eta, A, B))
        assert eval_kernel(kernel, A[0], B[0]) == reference_pairs(structure, eta, A[:1], B[:1])[0]

    @pytest.mark.parametrize("structure,eta", pair_term_cases())
    def test_pairs_match_matrix_diagonal(self, structure, eta):
        rng = np.random.default_rng(9)
        A, B = rng.normal(scale=1.5, size=(2, 50, 5))
        kernel = KernelInstance(structure, eta, 5)
        pairs, diagonal = eval_pairs(kernel, A, B), np.diag(eval_matrix(kernel, A, B))
        if isinstance(structure, (Gaussian, Matern32, NarxFading)):
            # distance-only kernels: the same sums in the same order
            assert np.array_equal(pairs, diagonal)
        else:
            # a row inner product and a matrix product round differently
            assert np.all(np.abs(pairs - diagonal) <= 1e-12 * np.abs(diagonal))

    @pytest.mark.parametrize("structure,eta", [c for c in pair_term_cases() if not has_narx(c[0])])
    def test_diagonal_bit_equal_to_closed_form(self, structure, eta):
        A = np.random.default_rng(10).normal(scale=1.5, size=(40, 5))
        assert np.array_equal(structure.diag_values(eta, A), reference_diag(structure, eta, A))


class TestSquaredKernelMetric:
    @pytest.mark.parametrize("structure,eta", pair_term_cases())
    def test_zero_at_identical_points(self, structure, eta):
        # k(a, a) and k(a, b) come from one formula, so h(a, a) is exactly 0
        k = KernelInstance(structure, eta, 5)
        rng = np.random.default_rng(3)
        a = rng.normal(size=5)
        assert squared_kernel_metric(k, a, a) == 0.0
        A = rng.normal(scale=2.0, size=(500, 5))
        assert np.all(metric_pairs(k, A, A) == 0.0)

    def test_gaussian_metric_at_unit_sqdist(self):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        a, b = unit_apart()
        assert squared_kernel_metric(k, a, b) == pytest.approx(
            GAUSS_METRIC_AT_UNIT_SQDIST, rel=1e-14
        )

    def test_linear_affine_offset_cancels(self):
        k = KernelInstance(LinearAffine(), (1.0, 5.0), 5)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.normal(size=(2, 5))
            assert squared_kernel_metric(k, a, b) == pytest.approx(
                float(np.sum((a - b) ** 2)), rel=1e-12
            )

    def test_batches_rejected(self):
        # as in eval_kernel: a batch goes to metric_pairs, not to its first row
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        A = np.random.default_rng(5).normal(size=(2, 5))
        with pytest.raises(InputError, match="single vectors"):
            squared_kernel_metric(k, A, A[::-1])
        with pytest.raises(InputError, match="single vectors"):
            squared_kernel_metric(k, A[:0], A[:0])

    @pytest.mark.parametrize("structure,eta", all_structures())
    def test_matches_eval_composition_and_nonnegative(self, structure, eta):
        k = KernelInstance(structure, eta, 5)
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.normal(scale=2.0, size=(2, 5))
            h = squared_kernel_metric(k, a, b)
            composed = eval_kernel(k, a, a) - 2 * eval_kernel(k, a, b) + eval_kernel(k, b, b)
            assert h == pytest.approx(composed, abs=1e-13)
            assert h >= -1e-12


class TestGramMatrix:
    def test_far_points_give_identity_for_gaussian(self):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        pts = np.zeros((3, 5))
        pts[1, 0] = 10.0
        pts[2, 1] = 20.0
        K = gram_matrix(k, pts)
        assert np.allclose(np.diag(K), 1.0)
        off = K[~np.eye(3, dtype=bool)]
        assert np.all(off <= math.exp(-100) * (1 + 1e-12))
        assert np.allclose(K, np.eye(3), atol=1e-40)

    def test_single_point(self):
        k = KernelInstance(Gaussian(), (2.0, 3.0, 0.25), 5)
        K = gram_matrix(k, np.ones((1, 5)))
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(2.25)

    def test_sum_kernel_psd_by_eigenvalue_oracle(self):
        structure = SumKernel(children=(Gaussian(), LinearAffine()))
        k = KernelInstance(structure, (0.5, 0.5, 1.0, 0.7, 0.1, 0.8, 0.3), 5)
        rng = np.random.default_rng(5)
        K = gram_matrix(k, rng.normal(size=(8, 5)))
        lam = np.linalg.eigvalsh(K)
        assert lam[0] >= -1e-10 * max(abs(lam[-1]), 1.0)

    @pytest.mark.parametrize("structure,eta", all_structures())
    def test_psd_random_point_sets(self, structure, eta):
        k = KernelInstance(structure, eta, 5)
        rng = np.random.default_rng(17)
        for n in (2, 7, 20):
            K = gram_matrix(k, rng.normal(scale=2.0, size=(n, 5)))
            lam = np.linalg.eigvalsh(K)
            assert lam[0] >= -1e-10 * max(np.max(np.abs(lam)), 1e-12)
            assert np.array_equal(K, K.T)

    def test_pairs_row_mismatch_rejected(self):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        with pytest.raises(InputError):
            eval_pairs(k, np.zeros((3, 5)), np.zeros((2, 5)))


class TestLambertW:
    def test_anchor_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(-1.0 / math.e) == -1.0

    def test_residual_on_log_grid(self):
        xs = np.concatenate(
            [
                -1.0 / math.e + np.logspace(-18, 0, 60) * (1.0 / math.e),
                np.logspace(-12, 6, 120),
                [0.0, -1.0 / math.e],
            ]
        )
        for x in xs:
            w = lambert_w0(float(x))
            assert w >= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_matches_scipy_oracle(self):
        import scipy.special

        for x in [-0.367, -0.2, -1e-8, 0.5, 3.0, 1e4]:
            assert lambert_w0(x) == pytest.approx(
                float(scipy.special.lambertw(x).real), rel=1e-12, abs=1e-12
            )

    def test_domain_error_below_branch_point(self):
        with pytest.raises(InputError):
            lambert_w0(-1.0 / math.e - 1e-6)


class TestValidation:
    def test_polynomial_degree_must_be_at_least_two(self):
        with pytest.raises(InputError):
            Polynomial(degree=1)

    def test_narx_window_range(self):
        with pytest.raises(InputError):
            NarxFading(model_order=2, window=3)
        with pytest.raises(InputError):
            NarxFading(model_order=2, window=0)

    def test_narx_input_dim_must_match_model_order(self):
        with pytest.raises(InputError):
            KernelInstance(NarxFading(model_order=3, window=1), (1.0, 1.0, 0.0), 5)

    def test_negative_hyperparameters_rejected(self):
        with pytest.raises(InputError):
            KernelInstance(Gaussian(), (-0.1, 1.0, 0.0), 5)

    def test_sum_weights_must_be_positive(self):
        structure = SumKernel(children=(Gaussian(),))
        with pytest.raises(InputError):
            KernelInstance(structure, (0.0, 1.0, 1.0, 0.0), 5)

    def test_product_right_factor_must_be_stationary(self):
        with pytest.raises(InputError):
            ProductWithStationary(left=Gaussian(), right=LinearAffine())

    def test_input_dim_must_be_odd(self):
        with pytest.raises(InputError):
            KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 4)

    def test_eta_arity_enforced(self):
        with pytest.raises(InputError):
            KernelInstance(Gaussian(), (1.0, 1.0), 5)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("structure,eta", all_structures())
    def test_structure_round_trip(self, structure, eta):
        cfg = structure_to_config(structure)
        rebuilt = structure_from_config(cfg)
        assert rebuilt == structure

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError):
            structure_from_config({"structure": "gaussian", "bogus": 1})

    def test_unknown_structure_rejected(self):
        with pytest.raises(InputError):
            structure_from_config({"structure": "laplace"})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"structure": "polynomial", "degree": 2.7},
            {"structure": "polynomial", "degree": "x"},
            {"structure": "polynomial", "degree": True},
            {"structure": "narx_fading", "model_order": 2.9, "window": 1},
            {"structure": "narx_fading", "model_order": 2, "window": "1"},
            {"structure": "narx_fading", "model_order": 2},
            {"structure": "sum", "children": []},
            {"structure": "sum", "children": {"structure": "gaussian"}},
            {"structure": "product_stationary", "left": {"structure": "gaussian"}},
            {"structure": ["gaussian"]},
        ],
    )
    def test_malformed_fields_are_input_errors(self, cfg):
        with pytest.raises(InputError):
            structure_from_config(cfg)

    def test_integral_values_accepted(self):
        assert structure_from_config({"structure": "polynomial", "degree": 3.0}) == Polynomial(degree=3)
        assert structure_from_config({"structure": "polynomial", "degree": np.int64(3)}) == Polynomial(degree=3)
        narx = structure_from_config({"structure": "narx_fading", "model_order": 2.0, "window": 1})
        assert narx == NarxFading(model_order=2, window=1)
        assert structure_to_config(narx) == {"structure": "narx_fading", "model_order": 2, "window": 1}

    @pytest.mark.parametrize("eta", ["abc", ["a", 1.0, 0.0], 5, [True, 1.0, 0.0], ["0.5", 1.0, 0.0]])
    def test_eta_of_non_numbers_is_input_error(self, eta):
        with pytest.raises(InputError, match="eta must be a sequence of numbers"):
            KernelInstance(Gaussian(), eta, 5)
