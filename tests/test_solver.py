"""Regression assembly, ridge solve, constraint-gap root, constrained solve."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stable_sysid import (
    FitProblem,
    Gaussian,
    InputError,
    KernelInstance,
    NumericError,
    build_regression_data,
    find_alpha_bar,
    gamma_fn,
    gram_matrix,
    solve_constrained,
)
from stable_sysid import solver
from stable_sysid.solver import _alpha_bar, _effective_alpha, _norm_constrained, _ridge

from oracles import (
    projected_gradient_min,
    quadratic_objective,
    random_psd,
    random_spectrum_problem,
    root_conditioning,
)
from rule_cases import STATS, STRUCTURES, structure_id


class TestBuildRegressionData:
    def test_unrolls_the_window_definition(self):
        data = build_regression_data([10.0, 20.0, 30.0], [1.0, 2.0, 3.0], 1)
        assert data.regressors.tolist() == [[1.0, 10.0, 20.0], [2.0, 20.0, 30.0]]
        assert data.targets.tolist() == [2.0, 3.0]

    def test_minimum_size_single_row(self):
        data = build_regression_data([1.0, 2.0], [5.0, 6.0], 1)
        assert data.size == 1
        assert data.regressors.tolist() == [[5.0, 1.0, 2.0]]
        assert data.targets.tolist() == [6.0]

    def test_row_dimension_five_for_order_two(self):
        rng = np.random.default_rng(0)
        data = build_regression_data(rng.normal(size=50), rng.normal(size=50), 2)
        assert data.regressors.shape == (48, 5)

    def test_too_short_rejected(self):
        with pytest.raises(InputError, match="n > m"):
            build_regression_data([1.0, 2.0], [1.0, 2.0], 2)

    def test_hand_check_order_two(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        data = build_regression_data(u, y, 2)
        assert data.regressors.tolist() == [
            [10.0, 20.0, 1.0, 2.0, 3.0],
            [20.0, 30.0, 2.0, 3.0, 4.0],
        ]
        assert data.targets.tolist() == [30.0, 40.0]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("extra", [1, 2, 37])
    def test_equals_the_row_loop(self, m, extra):
        rng = np.random.default_rng(m * 100 + extra)
        n = m + extra
        u, y = rng.normal(size=n), rng.normal(size=n)
        want = np.empty((n - m, 2 * m + 1))
        for j in range(m, n):
            want[j - m, :m] = y[j - m:j]
            want[j - m, m:] = u[j - m:j + 1]
        got = build_regression_data(u, y, m).regressors
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.writeable


def symmetric_psd(rng, n):
    """A random PSD matrix made exactly symmetric, as the solves take it."""
    K = random_psd(rng, n)
    return 0.5 * (K + K.T)


class TestSolveRidge:
    def test_identity_case(self):
        c = _ridge(np.eye(2), np.array([1.0, 2.0]), 1.0)
        assert c == pytest.approx([0.5, 1.0])

    def test_zero_targets(self):
        c = _ridge(np.eye(3) * 2.0, np.zeros(3), 0.5)
        assert np.all(c == 0.0)

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            K = symmetric_psd(rng, 10)
            y = rng.normal(size=10)
            beta = 10.0 ** rng.uniform(-10, 1)
            c = _ridge(K, y, beta)
            residual = np.linalg.norm((K + beta * np.eye(10)) @ c - y)
            assert residual <= 1e-10 * np.linalg.norm(y)

    def test_refused_factor_solves_through_the_spectrum(self, cholesky_calls, eigh_calls):
        # an eigenvalue of -1e-11 |K| is clamped, but K + 1e-13 I is indefinite
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        K = (Q * np.linspace(-1e-11, 1.0, 8)) @ Q.T
        K = 0.5 * (K + K.T)
        y = rng.normal(size=8)
        c = _ridge(K, y, 1e-13)
        assert cholesky_calls == [8] and eigh_calls == [8]
        lam, V = np.linalg.eigh(K)
        assert np.array_equal(c, V @ (V.T @ y / (np.maximum(lam, 0.0) + 1e-13)))

    def test_beta_must_be_positive(self):
        data = build_regression_data(np.arange(4.0), np.arange(4.0), 1)
        with pytest.raises(InputError):
            FitProblem(data, KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 3), beta=0.0)


class TestGammaFn:
    def test_scalar_example(self):
        value = gamma_fn(np.array([[1.0]]), np.array([2.0]), 2, 0.99, 0.0)
        assert value == pytest.approx(2 * 4 / 1 - 0.99, rel=1e-14)

    def test_zero_targets_give_minus_chi(self):
        K = random_psd(np.random.default_rng(2), 6)
        for alpha in (0.0, 0.3, 10.0):
            assert gamma_fn(K, np.zeros(6), 3, 0.5, alpha) == pytest.approx(-0.5)

    def test_limit_at_huge_alpha(self):
        rng = np.random.default_rng(3)
        K = random_psd(rng, 8)
        y = rng.normal(size=8)
        assert gamma_fn(K, y, 2, 0.99, 1e12) == pytest.approx(-0.99, abs=1e-6)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            K = random_psd(rng, 7)
            y = rng.normal(size=7)
            a1, a2 = np.sort(10.0 ** rng.uniform(-6, 4, size=2))
            g1 = gamma_fn(K, y, 2, 0.99, float(a1))
            g2 = gamma_fn(K, y, 2, 0.99, float(a2))
            assert g2 <= g1 + 1e-12


class TestEigPsd:
    def test_a_failed_eigendecomposition_raises_numeric_error(self, monkeypatch):
        monkeypatch.setattr(solver, "dsyevd", lambda a, **options: (np.ones(2), np.eye(2), 1))
        with pytest.raises(NumericError, match="eigendecomposition failed: LAPACK dsyevd info 1"):
            gamma_fn(np.eye(2), np.ones(2), 1, 0.5, 0.0)

    def test_the_eigenvectors_are_c_ordered_and_k_is_kept(self):
        K = random_psd(np.random.default_rng(2), 12)
        before = K.copy()
        lam, Q, yt = solver._eig_psd(K, np.ones(12))
        assert Q.flags.c_contiguous and np.array_equal(K, before)
        assert np.allclose(Q @ (lam[:, None] * Q.T), K, atol=1e-12 * np.max(lam))


class TestFindAlphaBar:
    def test_a_squared_projection_that_overflows_raises_numeric_error(self):
        # the spectrum is finite, but (Q'y)^2 is not: the gap never turns negative
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="failed to bracket the constraint-gap root"):
            find_alpha_bar(np.eye(2), np.array([1e200, 0.0]), 1, 0.5)

    def test_closed_form_scalar_root(self):
        # 2 * 4 / (1 + a)^2 = 0.99  =>  a = 2 sqrt(2 / 0.99) - 1
        alpha = find_alpha_bar(np.array([[1.0]]), np.array([2.0]), 2, 0.99)
        assert alpha == pytest.approx(2 * math.sqrt(2 / 0.99) - 1, rel=1e-12)

    def test_zero_targets_return_zero(self):
        assert find_alpha_bar(np.eye(4), np.zeros(4), 2, 0.99) == 0.0

    def test_slack_constraint_returns_zero(self):
        # tiny targets: gamma(0) = m y^2 / lambda - chi < 0
        assert find_alpha_bar(np.array([[1.0]]), np.array([0.01]), 2, 0.99) == 0.0

    def test_root_residual_small(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            K = random_psd(rng, 12)
            y = rng.normal(size=12) * 3
            alpha = find_alpha_bar(K, y, 2, 0.99)
            if alpha > 0:
                assert abs(gamma_fn(K, y, 2, 0.99, alpha)) <= 1e-10
            else:
                assert gamma_fn(K, y, 2, 0.99, 0.0) <= 0.0


class TestRootArguments:
    """The public root functions reject an invalid model order, budget or
    regularizer before they factor anything."""

    K, y = np.array([[1.0]]), np.array([2.0])

    def test_gamma_rejects_nan_alpha(self):
        with pytest.raises(InputError, match="alpha must be >= 0"):
            gamma_fn(self.K, self.y, 2, 0.99, math.nan)

    def test_gamma_rejects_negative_alpha(self):
        with pytest.raises(InputError, match="alpha must be >= 0"):
            gamma_fn(self.K, self.y, 2, 0.99, -1e-300)

    def test_gamma_accepts_infinite_alpha(self):
        assert gamma_fn(self.K, self.y, 2, 0.99, math.inf) == -0.99

    @pytest.mark.parametrize("chi", [0.0, -1.0])
    def test_find_alpha_bar_rejects_nonpositive_chi(self, chi):
        with pytest.raises(InputError, match="chi must be > 0"):
            find_alpha_bar(self.K, self.y, 2, chi)

    def test_find_alpha_bar_rejects_nan_chi(self):
        with pytest.raises(InputError, match="chi must be a number with a finite value"):
            find_alpha_bar(self.K, self.y, 2, math.nan)

    @pytest.mark.parametrize("m", [0, -1, 2.5])
    def test_find_alpha_bar_rejects_bad_model_order(self, m):
        with pytest.raises(InputError, match="model order m"):
            find_alpha_bar(self.K, self.y, m, 0.99)

    @pytest.mark.parametrize("m, chi", [(0, 0.99), (2.5, 0.99), (2, 0.0), (2, math.inf)])
    def test_gamma_rejects_bad_model_order_or_chi(self, m, chi):
        with pytest.raises(InputError):
            gamma_fn(self.K, self.y, m, chi, 0.0)

    def test_integral_float_model_order_gives_the_same_root(self):
        assert find_alpha_bar(self.K, self.y, 2.0, 0.99) == find_alpha_bar(self.K, self.y, 2, 0.99)


def reference_alpha_bar(lam, yt2, m, chi):
    """The root with the gap written out in full at every evaluation."""
    def g(a):
        if a == 0.0:
            mask = lam > 0.0
            with np.errstate(divide="ignore", over="ignore"):
                return m * float(np.sum(yt2[mask] / lam[mask])) - chi
        return m * float(np.sum(lam * yt2 / (lam + a) ** 2)) - chi

    if g(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while g(hi) >= 0.0:
        hi *= 4.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    for _ in range(4):
        val = g(alpha)
        slope = -2.0 * m * float(np.sum(lam * yt2 / (lam + alpha) ** 3))
        if slope == 0.0:
            break
        step = val / slope
        nxt = alpha - step
        if not (lo <= nxt <= hi):
            break
        alpha = nxt
        if abs(step) <= 1e-17 * (1.0 + alpha):
            break
    return alpha


class TestAlphaBar:
    def test_bit_equal_to_unhoisted_reference(self):
        rng = np.random.default_rng(8)
        roots = 0
        for _ in range(40):
            lam = np.sort(10.0 ** rng.uniform(-8, 2, size=25))
            lam[:3] = 0.0
            yt2 = (3.0 * rng.normal(size=25)) ** 2
            for chi in (0.5, 0.99):
                got = _alpha_bar(lam, yt2, 2, chi)
                assert got == reference_alpha_bar(lam, yt2, 2, chi)
                roots += got > 0.0
        assert roots > 0


class TestEffectiveAlpha:
    """max(beta, alpha_bar) from one tridiagonal reduction and a secular
    Newton agrees with the spectral root, and says None where it cannot."""

    CHI = 0.1

    @staticmethod
    def problem(structure, n=60):
        rng = np.random.default_rng(3)
        data = build_regression_data(rng.normal(size=n), rng.normal(size=n), 2)
        kernel = KernelInstance(structure, structure.suggest_eta(STATS), 5)
        return structure.from_terms(kernel.eta, data.terms), data.targets

    @pytest.mark.parametrize("structure", STRUCTURES, ids=structure_id)
    def test_agrees_with_the_spectral_root(self, structure):
        K, y = self.problem(structure)
        before = K.copy()
        alpha_bar = find_alpha_bar(K, y, 2, self.CHI)
        assert alpha_bar > 0
        for ratio in (1e-3, 0.5):
            value = _effective_alpha(K, y, 2, self.CHI, ratio * alpha_bar)[0]
            assert value == pytest.approx(alpha_bar, rel=1e-12)
        # where the cap does not bind the result is beta itself
        assert _effective_alpha(K, y, 2, self.CHI, 2.0 * alpha_bar)[0] == 2.0 * alpha_bar
        assert np.array_equal(K, before)

    @pytest.mark.parametrize("structure", STRUCTURES, ids=structure_id)
    def test_binding_root_does_not_depend_on_beta(self, structure):
        # as the spectral root does not, so a search sees the cap-aware cost
        # flat in beta wherever the cap binds
        K, y = self.problem(structure)
        alpha_bar = find_alpha_bar(K, y, 2, self.CHI)
        first, *rest = (_effective_alpha(K, y, 2, self.CHI, r * alpha_bar) for r in (1e-6, 1e-3, 0.5))
        assert first[0] > 0.5 * alpha_bar
        assert all(other == first for other in rest)

    def test_zero_targets_return_beta(self):
        # trace(I - H) = 4 * 0.3 / 1.3 on the identity, and no residual
        alpha, residual_sq, trace = _effective_alpha(np.eye(4), np.zeros(4), 2, 0.99, 0.3)
        assert (alpha, residual_sq) == (0.3, 0.0)
        assert trace == pytest.approx(1.2 / 1.3, rel=1e-15)

    def test_failed_tridiagonal_solve_returns_none(self, monkeypatch):
        from stable_sysid import solver

        K, y = self.problem(Gaussian())
        monkeypatch.setattr(solver, "dptsv", lambda d, e, b: (d, e, b, 1))
        assert _effective_alpha(K, y, 2, self.CHI, 1e-3) is None

    def test_overflowing_start_returns_none(self):
        # the descent starts at m|y|^2 / (4 chi), which overflows here
        K, y = self.problem(Gaussian())
        assert _effective_alpha(K, y, 2, 5e-324, 1e-3) is None

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cell", [(3, 3), (5, 3)])
    def test_non_finite_gram_returns_none(self, value, cell):
        K, y = self.problem(Gaussian())
        K[cell] = K[cell[::-1]] = value
        assert _effective_alpha(K, y, 2, self.CHI, 1e-3) is None

    @given(
        n=st.integers(2, 40),
        m=st.integers(1, 3),
        chi=st.floats(0.05, 0.95),
        log_beta=st.floats(-12.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_spectra(self, n, m, chi, log_beta, seed):
        # the reference is the root of the exact spectrum; the tolerance adds
        # the root's first-order error under an eps |K| eigenvalue error, the
        # floor of any method working on the rounded K (the spectral root
        # misses it by up to 7e-8 where tiny eigenvalues set the gap)
        lam, Q, K, y = random_spectrum_problem(seed, n)
        beta = 10.0 ** log_beta
        z2 = (Q.T @ y) ** 2
        alpha = max(beta, _alpha_bar(lam, z2, m, chi))
        value = _effective_alpha(K, y, m, chi, beta)[0]
        if alpha == beta:
            assert value == beta
            return
        cond = root_conditioning(lam, z2, alpha)
        assert value == pytest.approx(alpha, rel=1e-9 + n * cond * np.finfo(float).eps)


class TestKnownDefects:
    """Strict expected failures: each fails today, and a fix turns it into an
    unexpected pass, which fails the suite until the marker goes."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D12: on a rank-deficient Gram the cap-aware alpha_bar is set by roundoff eigenvalues",
    )
    def test_rank_deficient_root_is_not_set_by_rounding(self):
        # a LinearAffine Gram of rank 6 (N = 58): its other 52 eigenvalues are
        # roundoff of either sign, and y has weight outside the range
        from stable_sysid import LinearAffine

        structure = LinearAffine()
        K, y = TestEffectiveAlpha.problem(structure)
        lam, Q = np.linalg.eigh(K)
        assert K.shape == (58, 58) and np.sum(lam > 1e-10 * lam[-1]) == 6
        # the exact cap is slack: the gap of the rank-6 part is negative at 0
        top = slice(-6, None)
        assert 2.0 * np.sum((Q[:, top].T @ y) ** 2 / lam[top]) - 0.5 < 0
        spectral = find_alpha_bar(K, y, 2, 0.5)
        beta = 1e-3 * spectral
        assert _effective_alpha(K, y, 2, 0.5, beta)[0] == pytest.approx(max(beta, spectral), rel=1e-6)


class TestSolveConstrained:
    def _problem(self, rng, n=30, constrained=True, beta=1e-10, chi=0.99):
        u = rng.normal(size=n)
        y = rng.normal(size=n) * 0.5
        data = build_regression_data(u, y, 2)
        kernel = KernelInstance(Gaussian(), (1.0, 0.5, 0.1), 5)
        return FitProblem(data=data, kernel=kernel, beta=beta, chi=chi, constrained=constrained)

    def test_matches_ridge_when_beta_dominates(self):
        rng = np.random.default_rng(6)
        problem = self._problem(rng, beta=50.0)
        report = solve_constrained(problem)
        K = gram_matrix(problem.kernel, problem.data.regressors)
        ridge = _ridge(K, problem.data.targets, 50.0)
        assert report.coefficients == pytest.approx(ridge, rel=1e-12, abs=1e-14)
        assert report.effective_alpha == 50.0
        assert not report.constraint_active

    def test_scalar_example_hits_the_budget(self):
        c, alpha_bar = _norm_constrained(np.array([[1.0]]), np.array([2.0]), 2, 0.99, 1e-10)
        assert alpha_bar == pytest.approx(2 * math.sqrt(2 / 0.99) - 1, rel=1e-12)
        assert 2 * c[0] ** 2 == pytest.approx(0.99, rel=1e-10)

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(7)
        problem = self._problem(rng)
        report = solve_constrained(problem)
        assert report.effective_alpha >= report.beta
        assert report.effective_alpha == max(report.alpha_bar, report.beta)
        K = gram_matrix(problem.kernel, problem.data.regressors)
        c = report.coefficients
        assert report.mu == pytest.approx(2 * float(c @ K @ c))
        assert report.mu <= 0.99 + 1e-8

    def test_unconstrained_mode_is_plain_ridge(self):
        rng = np.random.default_rng(8)
        problem = self._problem(rng, constrained=False, beta=1e-3)
        report = solve_constrained(problem)
        assert report.alpha_bar == 0.0
        assert not report.constraint_active
        K = gram_matrix(problem.kernel, problem.data.regressors)
        assert report.coefficients == pytest.approx(
            _ridge(K, problem.data.targets, 1e-3), rel=1e-10
        )

    def test_huge_chi_equals_ridge(self):
        rng = np.random.default_rng(9)
        data = build_regression_data(rng.normal(size=40), rng.normal(size=40), 2)
        K = gram_matrix(KernelInstance(Gaussian(), (1.0, 0.5, 0.1), 5), data.regressors)
        c_con, alpha_bar = _norm_constrained(K, data.targets, 2, 1e12, 1e-3)
        c_ridge = _ridge(K, data.targets, 1e-3)
        assert alpha_bar == 0.0
        assert c_con == pytest.approx(c_ridge, rel=1e-12, abs=1e-14)

    def test_against_projected_gradient_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            K = symmetric_psd(rng, n)
            y = rng.normal(size=n)
            m, chi, beta = 2, 0.99, 1e-10
            c, _ = _norm_constrained(K, y, m, chi, beta)
            assert m * float(c @ K @ c) <= chi + 1e-8
            c_pg = projected_gradient_min(K, y, m, chi, beta)
            val = quadratic_objective(K, y, beta, c)
            val_pg = quadratic_objective(K, y, beta, c_pg)
            assert val <= val_pg + 1e-6 * max(1.0, abs(val_pg))

    def test_kkt_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            K = symmetric_psd(rng, n)
            y = rng.normal(size=n)
            m, chi, beta = 2, 0.99, 1e-10
            c, alpha_bar = _norm_constrained(K, y, m, chi, beta)
            lam = (max(alpha_bar, beta) - beta) / m
            assert lam >= 0
            stationarity = np.linalg.norm((K + beta * np.eye(n)) @ (K @ c) - K @ y + lam * m * (K @ c))
            assert stationarity <= 1e-8 * max(np.linalg.norm(K @ y), 1e-12)
            slack = abs(lam * (m * float(c @ K @ c) - chi))
            assert slack <= 1e-8
