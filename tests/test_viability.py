"""Viability sets: closed forms, falsifier, feasible parameterizations."""

import math
import zlib

import numpy as np
import pytest

from stable_sysid import (
    FeatureGaussian,
    Gaussian,
    InfeasibleTargetError,
    InputError,
    KernelInstance,
    LinearAffine,
    Matern32,
    NarxFading,
    Polynomial,
    ProductWithStationary,
    StabilityTarget,
    SumKernel,
    UnsupportedTargetError,
    feasible_parameterization,
    gaussian_delta_boundary,
    membership,
    numeric_falsifier,
)

INF = math.inf
viable, dviable = StabilityTarget.viable, StabilityTarget.delta_viable


def gaussian_delta_gap(tau, gamma, zeta):
    """Incremental condition gap 2 tau (1 - exp(-gamma z)) - z, positive = violated."""
    return 2 * tau * (1 - math.exp(-gamma * zeta)) - zeta


def boundary_by_bisection(tau, gamma):
    """Positive root of the incremental gap by a plain bisection on its sign."""
    assert 2 * tau * gamma > 1
    lo = math.log(2 * tau * gamma) / gamma  # gap maximizer, gap > 0 here
    hi = 2 * tau  # gap(2 tau) = -2 tau exp(-2 gamma tau) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_delta_gap(tau, gamma, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestThetaMembership:
    def test_gaussian_sum_below_rho(self):
        assert membership(Gaussian(), (0.3, 2.0, 0.1), viable(0.5)) is True
        assert membership(Gaussian(), (0.3, 2.0, 0.3), viable(0.5)) is False

    def test_polynomial_never_viable(self):
        for rho in (0.0, 1.0, INF):
            assert membership(Polynomial(degree=3), (), viable(rho)) is False

    def test_linear_affine_zero_rho(self):
        assert membership(LinearAffine(), (1.0, 0.0), viable(0.0)) is True
        assert membership(LinearAffine(), (1.0, 0.1), viable(INF)) is False
        assert membership(LinearAffine(), (0.5, 0.2), viable(1.0)) is True  # 0.2 <= 0.5
        assert membership(LinearAffine(), (0.5, 0.6), viable(1.0)) is False
        assert membership(LinearAffine(), (1.5, 0.0), viable(INF)) is False

    def test_narx_supported_rhos_only(self):
        narx = NarxFading(model_order=2, window=1)
        assert membership(narx, (0.0, 1.0, 0.5), viable(0.0)) is True
        assert membership(narx, (0.2, 1.0, 0.5), viable(0.0)) is False
        assert membership(narx, (5.0, 1.0, 0.5), viable(INF)) is True
        with pytest.raises(UnsupportedTargetError):
            membership(narx, (0.2, 1.0, 0.5), viable(1.0))

    def test_feature_gaussian_unit_budget(self):
        assert membership(FeatureGaussian(), (0.6, 1.0, 0.4), viable(0.0)) is True
        assert membership(FeatureGaussian(), (0.8, 1.0, 0.4), viable(0.0)) is False

    def test_sum_needs_children_and_weight_budget(self):
        s = SumKernel(children=(Gaussian(), Gaussian()))
        eta_ok = (0.5, 0.4, 0.2, 1.0, 0.1, 0.3, 1.0, 0.1)  # both children tau+sigma<=1
        assert membership(s, eta_ok, viable(1.0)) is True
        eta_heavy = (0.8, 0.4, 0.2, 1.0, 0.1, 0.3, 1.0, 0.1)  # weights sum 1.2
        assert membership(s, eta_heavy, viable(1.0)) is False

    def test_product_requires_unit_peak_right(self):
        p = ProductWithStationary(left=LinearAffine(), right=Gaussian())
        assert membership(p, (0.9, 0.0, 0.5, 1.0, 0.4), viable(0.0)) is True
        assert membership(p, (0.9, 0.0, 0.8, 1.0, 0.4), viable(0.0)) is False  # peak 1.2


class TestDeltaMembership:
    def test_gaussian_zero_rho(self):
        assert membership(Gaussian(), (0.5, 1.0, 7.0), dviable(0.0)) is True
        assert membership(Gaussian(), (1.0, 1.0, 0.0), dviable(0.0)) is False

    def test_narx_example(self):
        narx = NarxFading(model_order=2, window=1)
        # pi(0, 1) = 2; 2 * 1 * 0.1 * 2 = 0.4 <= 1
        assert membership(narx, (0.1, 1.0, 0.0), dviable(0.0)) is True
        assert membership(narx, (0.45, 1.0, 0.0), dviable(0.0)) is False  # 0.9 * pi(0,1) = 1.8
        # large forgetting rate shrinks the lag weight sum toward 1
        assert membership(narx, (0.45, 1.0, 10.0), dviable(0.0)) is True

    def test_matern_zero_rho(self):
        assert membership(Matern32(), (1.0, 0.5, 3.0), dviable(0.0)) is True  # 3*1*0.25
        assert membership(Matern32(), (1.0, 1.0, 0.0), dviable(0.0)) is False

    def test_linear_affine_rho_independent(self):
        for rho in (0.0, 2.0, INF):
            assert membership(LinearAffine(), (1.0, 100.0), dviable(rho)) is True
            assert membership(LinearAffine(), (1.1, 0.0), dviable(rho)) is False

    def test_gaussian_finite_rho_boundary(self):
        tau, gamma = 2.0, 1.0  # 2 tau gamma = 4 > 1
        v = gaussian_delta_boundary(tau, gamma)
        assert membership(Gaussian(), (tau, gamma, 0.0), dviable(v * (1 + 1e-9))) is True
        assert membership(Gaussian(), (tau, gamma, 0.0), dviable(v * (1 - 1e-9))) is False

    def test_gaussian_boundary_matches_bisection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tau = float(10 ** rng.uniform(-1, 2))
            gamma = float(10 ** rng.uniform(-1, 2))
            if 2 * tau * gamma <= 1:
                assert gaussian_delta_boundary(tau, gamma) == 0.0
            else:
                v = gaussian_delta_boundary(tau, gamma)
                ref = boundary_by_bisection(tau, gamma)
                assert v == pytest.approx(ref, abs=1e-9, rel=1e-9)

    @pytest.mark.parametrize("tau,gamma", [(math.nan, 1.0), (1.0, math.nan), (INF, 1.0), (1.0, INF)])
    def test_gaussian_boundary_rejects_non_finite(self, tau, gamma):
        with pytest.raises(InputError, match="tau and gamma must be finite"):
            gaussian_delta_boundary(tau, gamma)

    def test_gaussian_boundary_overflowing_product(self):
        # 2 tau gamma overflows; the root lies just below 2 tau
        v = gaussian_delta_boundary(1e300, 1e10)
        assert math.isfinite(v)
        assert v == pytest.approx(2e300, rel=1e-15)

    def test_gaussian_finite_rho_underflowing_gamma_rho(self):
        # gamma rho underflows to 0: the cap is 1 / (2 gamma) = 5e299 < tau
        assert membership(Gaussian(), (1e301, 1e-300, 0.0), dviable(1e-100)) is False

    def test_unsupported_structures(self):
        with pytest.raises(UnsupportedTargetError):
            membership(FeatureGaussian(), (0.5, 1.0, 0.1), dviable(0.0))
        with pytest.raises(UnsupportedTargetError):
            membership(
                ProductWithStationary(left=LinearAffine(), right=Gaussian()),
                (1.0, 0.0, 0.5, 1.0, 0.1),
                dviable(0.0),
            )

    def test_matern_finite_rho_uses_sufficient_bound(self):
        # 3 tau gamma^2 = 3 > 1, but 4 (tau + sigma) = 4.4 <= 5
        assert membership(Matern32(), (1.0, 1.0, 0.1), dviable(5.0)) is True
        assert membership(Matern32(), (1.0, 1.0, 0.1), dviable(4.0)) is False


MONOTONE_CASES = [
    (LinearAffine(), (0.7, 0.2)),
    (Gaussian(), (0.6, 0.9, 0.2)),
    (Matern32(), (0.6, 0.9, 0.2)),
    (NarxFading(model_order=2, window=1), (0.4, 0.7, 0.2)),
    (FeatureGaussian(), (0.5, 0.7, 0.2)),
    (Polynomial(degree=2), ()),
]


class TestInvariants:
    @pytest.mark.parametrize("structure,eta", MONOTONE_CASES)
    def test_membership_monotone_in_rho(self, structure, eta):
        grid = [0.0, 0.5, 1.0, 4.0, INF]
        for target in (viable, dviable):
            values = []
            for rho in grid:
                try:
                    values.append(membership(structure, eta, target(rho)))
                except UnsupportedTargetError:
                    values.append(None)
            known = [(r, v) for r, v in zip(grid, values) if v is not None]
            for (r1, v1), (r2, v2) in zip(known, known[1:]):
                assert not (v1 and not v2), (
                    f"{target.__name__} membership not monotone for {structure.name}: "
                    f"member at rho={r1} but not at rho={r2}"
                )

    def test_stationary_infinite_rho_always_member(self):
        cases = [
            (Gaussian(), (3.0, 2.0, 5.0)),
            (Matern32(), (4.0, 0.3, 1.0)),
            (NarxFading(model_order=2, window=2), (9.0, 2.0, 0.0)),
        ]
        for structure, eta in cases:
            assert membership(structure, eta, viable(INF)) is True
            assert membership(structure, eta, dviable(INF)) is True

    def test_rho_validation(self):
        with pytest.raises(InputError):
            membership(Gaussian(), (1.0, 1.0, 0.0), viable(-1.0))


class TestStabilityTarget:
    def test_constructor_validation(self):
        with pytest.raises(InputError):
            StabilityTarget("viable")
        with pytest.raises(InputError):
            StabilityTarget("unconstrained", 1.0)
        with pytest.raises(InputError):
            StabilityTarget("delta_viable", -0.5)

    @pytest.mark.parametrize("rho", ["a", True, None, math.nan])
    def test_rho_must_be_a_number(self, rho):
        with pytest.raises(InputError, match="needs rho in"):
            StabilityTarget("viable", rho)

    def test_rho_is_kept_as_a_float(self):
        assert StabilityTarget("viable", 2).rho == 2.0
        assert type(StabilityTarget("viable", np.int64(2)).rho) is float
        assert StabilityTarget("delta_viable", INF).rho == INF

    def test_config_round_trip(self):
        targets = [
            StabilityTarget.unconstrained(),
            StabilityTarget.iss(),
            StabilityTarget.bibs(),
            StabilityTarget.diss(),
            StabilityTarget.dbibs(),
            StabilityTarget.viable(1.5),
            StabilityTarget.delta_viable(0.25),
        ]
        for target in targets:
            assert StabilityTarget.from_config(target.to_config()) == target

    def test_labels(self):
        labels = {
            StabilityTarget.unconstrained(): "none",
            StabilityTarget.iss(): "iss",
            StabilityTarget.bibs(): "bibs",
            StabilityTarget.diss(): "diss",
            StabilityTarget.dbibs(): "dbibs",
            StabilityTarget.viable(1.5): "viable(rho=1.5)",
            StabilityTarget.delta_viable(0.25): "dviable(rho=0.25)",
        }
        for target, label in labels.items():
            assert target.label() == label

    def test_config_rejects_unknown(self):
        with pytest.raises(InputError):
            StabilityTarget.from_config({"kind": "stable"})
        with pytest.raises(InputError):
            StabilityTarget.from_config({"kind": "iss", "rho": 1.0})

    @pytest.mark.parametrize("rho", ["abc", None, [1]])
    def test_malformed_rho_is_input_error(self, rho):
        with pytest.raises(InputError, match="'rho' must be a number"):
            StabilityTarget.from_config({"kind": "dviable", "rho": rho})


class TestFalsifier:
    def test_stationary_kernel_rejected_at_zero_rho_has_witness(self):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        witness = numeric_falsifier(k, StabilityTarget.iss(), sample_count=2000, seed=1)
        assert witness is not None
        assert witness.violated_condition == "theta_contractive"
        a = witness.points[0]
        assert float(a @ a) < 1.0  # violation lives where |a|^2 < k(a,a) = 1

    def test_contractive_linear_kernel_has_no_witness(self):
        k = KernelInstance(LinearAffine(), (0.5, 0.0), 5)
        assert numeric_falsifier(k, StabilityTarget.iss(), sample_count=20000, seed=2) is None

    def test_gaussian_delta_zero_accept_verified_by_scan_and_falsifier(self):
        tau, gamma = 0.4, 1.0  # 2 tau gamma = 0.8 <= 1
        zetas = np.linspace(0.0, 100.0, 100001)
        gaps = 2 * tau * (1 - np.exp(-gamma * zetas)) - zetas
        assert np.all(gaps <= 1e-12)  # independent 1-D reduction oracle
        k = KernelInstance(Gaussian(), (tau, gamma, 0.0), 5)
        assert numeric_falsifier(k, StabilityTarget.diss(), sample_count=100000, seed=3) is None

    def test_gaussian_delta_zero_reject_found_by_falsifier(self):
        k = KernelInstance(Gaussian(), (3.0, 1.0, 0.0), 5)  # 2 tau gamma = 6
        witness = numeric_falsifier(k, StabilityTarget.diss(), sample_count=100000, seed=4)
        assert witness is not None
        assert witness.violated_condition == "delta_contractive"
        assert witness.margin > 0

    def test_unconstrained_target_rejected(self):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        with pytest.raises(InputError):
            numeric_falsifier(k, StabilityTarget.unconstrained(), sample_count=10)

    def test_deterministic_given_seed(self):
        k = KernelInstance(Gaussian(), (2.0, 1.0, 0.0), 5)
        w1 = numeric_falsifier(k, StabilityTarget.diss(), sample_count=5000, seed=9)
        w2 = numeric_falsifier(k, StabilityTarget.diss(), sample_count=5000, seed=9)
        assert w1 is not None and w2 is not None
        assert np.array_equal(w1.points[0], w2.points[0])
        assert w1.margin == w2.margin

    @pytest.mark.parametrize(
        "kwargs,field",
        [({"sample_count": 2.5}, "sample_count"), ({"sample_count": True}, "sample_count"),
         ({"radius": "5"}, "radius"), ({"seed": 1.5}, "seed"),
         ({"radius": math.inf}, "radius"), ({"radius": math.nan}, "radius")],
    )
    def test_malformed_arguments_are_input_errors(self, kwargs, field):
        k = KernelInstance(Gaussian(), (1.0, 1.0, 0.0), 5)
        with pytest.raises(InputError, match=f"^{field} must be an? (integer|number)"):
            numeric_falsifier(k, StabilityTarget.iss(), **{"sample_count": 10, **kwargs})

    @pytest.mark.parametrize(
        "rule,target,eta,claim",
        [("theta_claim", viable(1.0), (0.5, 1.0, 0.0), (0.5, 0.25)),
         ("delta_claim", dviable(10.0), (3.0, 1.0, 0.0), (12.0, 1.0))],
    )
    def test_understated_claim_yields_a_bounded_witness(self, monkeypatch, rule, target, eta, claim):
        # below nu the kernel side must stay below s; a claimed s the kernel
        # exceeds there is reported as a bounded witness
        k = KernelInstance(Gaussian(), eta, 5)
        assert membership(Gaussian(), eta, target)
        monkeypatch.setattr(Gaussian, rule, lambda self, eta: claim)
        witness = numeric_falsifier(k, target, sample_count=2000, seed=5)
        kind = rule.split("_")[0]
        assert witness is not None and witness.violated_condition == f"{kind}_bounded"
        gap = witness.points[0] - (witness.points[1] if kind == "delta" else 0.0)
        assert float(gap @ gap) < claim[0]

    def test_a_batch_with_no_pair_inside_the_ball_is_skipped(self, monkeypatch):
        # one sample is one perturbation pair, and at seed 148 its second
        # point lies outside the ball, so no pair is checked, even for a
        # kernel that is not a member
        from stable_sysid import viability

        def unreached(*args):
            raise AssertionError("a pair outside the ball was checked")

        monkeypatch.setattr(viability, "metric_pairs", unreached)
        k = KernelInstance(Gaussian(), (3.0, 1.0, 0.0), 5)
        assert numeric_falsifier(k, StabilityTarget.diss(), sample_count=1, seed=148) is None

    def test_integral_and_numpy_arguments_accepted(self):
        k = KernelInstance(Gaussian(), (2.0, 1.0, 0.0), 5)
        w1 = numeric_falsifier(k, StabilityTarget.diss(), sample_count=5000.0, radius=np.float32(50), seed=np.int64(9))
        w2 = numeric_falsifier(k, StabilityTarget.diss(), sample_count=5000, seed=9)
        assert np.array_equal(w1.points[0], w2.points[0]) and w1.margin == w2.margin


PARAM_CASES = [
    (Gaussian(), StabilityTarget.diss()),
    (Gaussian(), StabilityTarget.dbibs()),
    (Gaussian(), StabilityTarget.delta_viable(0.7)),
    (Gaussian(), StabilityTarget.viable(2.0)),
    (Gaussian(), StabilityTarget.bibs()),
    (Matern32(), StabilityTarget.diss()),
    (Matern32(), StabilityTarget.viable(1.0)),
    (NarxFading(model_order=2, window=1), StabilityTarget.diss()),
    (NarxFading(model_order=2, window=1), StabilityTarget.dbibs()),
    (LinearAffine(), StabilityTarget.iss()),
    (LinearAffine(), StabilityTarget.viable(1.0)),
    (LinearAffine(), StabilityTarget.diss()),
    (FeatureGaussian(), StabilityTarget.iss()),
    (FeatureGaussian(), StabilityTarget.viable(3.0)),
    (SumKernel(children=(Gaussian(), Matern32())), StabilityTarget.diss()),
    (
        ProductWithStationary(left=LinearAffine(), right=Gaussian()),
        StabilityTarget.iss(),
    ),
]


class TestFeasibleParameterization:
    @pytest.mark.parametrize("structure,target", PARAM_CASES)
    def test_image_lies_in_the_viability_set(self, structure, target):
        param = feasible_parameterization(structure, target)
        rng = np.random.default_rng(zlib.crc32(f"{structure.name}|{target.label()}".encode()))
        for _ in range(100):
            eta = param.to_eta(rng.uniform(-6, 6, size=param.dim))
            structure.validate_eta(tuple(eta))
            assert membership(structure, tuple(eta), target) is True

    def test_gaussian_iss_infeasible(self):
        with pytest.raises(InfeasibleTargetError, match="stationary"):
            feasible_parameterization(Gaussian(), StabilityTarget.iss())

    def test_narx_iss_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            feasible_parameterization(
                NarxFading(model_order=2, window=1), StabilityTarget.iss()
            )

    def test_polynomial_always_infeasible(self):
        with pytest.raises(InfeasibleTargetError, match="polynomial"):
            feasible_parameterization(Polynomial(degree=2), StabilityTarget.bibs())

    def test_feature_gaussian_iss_satisfies_unit_budget(self):
        param = feasible_parameterization(FeatureGaussian(), StabilityTarget.iss())
        rng = np.random.default_rng(0)
        for _ in range(200):
            tau, _, sigma = param.to_eta(rng.uniform(-8, 8, size=param.dim))
            assert tau + sigma <= 1.0

    def test_gaussian_delta_zero_respects_budget(self):
        param = feasible_parameterization(Gaussian(), StabilityTarget.diss())
        rng = np.random.default_rng(1)
        for _ in range(200):
            tau, gamma, _ = param.to_eta(rng.uniform(-8, 8, size=param.dim))
            assert 2 * tau * gamma <= 1.0 + 1e-12

    def test_unsupported_delta_product(self):
        with pytest.raises(UnsupportedTargetError):
            feasible_parameterization(FeatureGaussian(), StabilityTarget.diss())


class TestStationarySumAsRightFactor:
    """The one nested composite the rules admit: a product whose stationary
    right factor is itself a sum, which reads the sum's zero-lag value."""

    RIGHT = SumKernel((Gaussian(), Matern32()))
    PRODUCT = ProductWithStationary(LinearAffine(), RIGHT)

    @staticmethod
    def eta(weight):
        return (0.5, 0.0, weight, weight, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0)

    def test_layout_nests(self):
        assert self.RIGHT.is_stationary and self.PRODUCT.arity == 10
        weights, parts = self.PRODUCT.split_eta(self.eta(0.3))
        assert weights == () and parts == [(0.5, 0.0), self.eta(0.3)[2:]]
        assert self.RIGHT.split_eta(self.eta(0.3)[2:]) == ((0.3, 0.3), [(1.0, 1.0, 0.0)] * 2)
        assert feasible_parameterization(self.PRODUCT, StabilityTarget.unconstrained()).to_eta(np.zeros(10)) \
            == (1.0,) * 10
        with pytest.raises(InputError, match="^product_stationary expects 10 hyperparameters, got 9$"):
            self.PRODUCT.validate_eta(self.eta(0.3)[:9])
        with pytest.raises(InputError, match="^sum expects 8 hyperparameters, got 9$"):
            self.RIGHT.validate_eta(self.eta(0.3)[1:])

    def test_growth_membership_reads_the_sum_peak(self):
        assert self.RIGHT.stationary_peak(self.eta(0.3)[2:]) == pytest.approx(0.6)
        assert membership(self.PRODUCT, self.eta(0.3), StabilityTarget.iss())
        assert not membership(self.PRODUCT, self.eta(0.6), StabilityTarget.iss())

    def test_no_unit_peak_map_for_a_sum(self):
        with pytest.raises(UnsupportedTargetError, match="no unit-peak parameterization for stationary factor 'sum'"):
            feasible_parameterization(self.PRODUCT, StabilityTarget.iss())

    def test_sum_with_a_linear_child_is_no_right_factor(self):
        mixed = SumKernel((Gaussian(), LinearAffine()))
        assert not mixed.is_stationary
        with pytest.raises(InputError, match="right factor must be stationary, got 'sum'"):
            ProductWithStationary(LinearAffine(), mixed)
        with pytest.raises(InputError, match="stationary only if all children are"):
            mixed.stationary_peak((0.5, 0.5, 1.0, 1.0, 0.0, 1.0, 0.0))


class TestSoundnessAgainstFalsifier:
    """Accepted hyperparameters never produce a falsifier witness."""

    @pytest.mark.parametrize("structure,target", PARAM_CASES)
    def test_sampled_members_are_sound(self, structure, target):
        param = feasible_parameterization(structure, target)
        rng = np.random.default_rng(123)
        dim = 5 if not isinstance(structure, NarxFading) else 2 * structure.model_order + 1
        for _ in range(10):
            eta = tuple(param.to_eta(rng.uniform(-5, 5, size=param.dim)))
            kernel = KernelInstance(structure, eta, dim)
            witness = numeric_falsifier(kernel, target, sample_count=20000, radius=50.0, seed=7)
            assert witness is None, (eta, witness)
