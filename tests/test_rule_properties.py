"""Properties of the per-structure stability rules over the whole grid.

For every (structure, target) pair of ``rule_cases`` either the feasible
parameterization's image passes ``validate_eta`` and the closed-form
membership test, or the pair is refused (``InfeasibleTargetError`` /
``UnsupportedTargetError``) and no nonzero kernel of the structure is ever
accepted.  Raw coordinates range over the box [-6, 6] used by the image
tests of ``test_viability``; ``TestKnownDefects`` pins, as strict expected
failures, the ways the maps leave their sets further out.

``TestGaussianFiniteRho`` checks the Gaussian incremental rule at a finite
``rho``, ``2 tau (1 - exp(-gamma rho)) <= rho``, which the feasible map,
the membership test and ``gaussian_delta_boundary`` all read: every image
of the map over [-40, 40] is a member, and the boundary is never below an
mpmath root of the rule.  ``test_gaussian_finite_rho_delta_near_the_boundary``
was a strict expected failure while the boundary came from a special-function
form that lost its accuracy as ``2 tau gamma -> 1+``; it now passes.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rule_cases import PAIRS, pair_id
from stable_sysid import (
    Gaussian,
    InfeasibleTargetError,
    InputError,
    LinearAffine,
    Matern32,
    StabilityTarget,
    SumKernel,
    UnsupportedTargetError,
    feasible_parameterization,
    gaussian_delta_boundary,
    membership,
)

RAW_BOX = 6.0


def raw(dim):
    return st.lists(st.floats(-RAW_BOX, RAW_BOX), min_size=dim, max_size=dim).map(np.array)


@pytest.mark.parametrize("structure,target", PAIRS, ids=[pair_id(s, t) for s, t in PAIRS])
@given(data=st.data())
def test_image_is_member_or_pair_is_refused(structure, target, data):
    try:
        param = feasible_parameterization(structure, target)
    except (InfeasibleTargetError, UnsupportedTargetError):
        # exp(u) coordinates give every entry > 0: a nonzero kernel
        free = structure.unconstrained_parameterization()
        eta = tuple(free.to_eta(data.draw(raw(free.dim))))
        try:
            assert membership(structure, eta, target) is not True, eta
        except UnsupportedTargetError:
            pass
        return
    eta = tuple(param.to_eta(data.draw(raw(param.dim))))
    structure.validate_eta(eta)
    assert membership(structure, eta, target) is True, eta


class TestKnownDefects:
    """Raw coordinates outside the box whose images leave the viability set.

    Each marked case is a strict expected failure: it fails today, and a fix
    turns it into an unexpected pass, which fails the suite until the marker
    goes.
    """

    @pytest.mark.xfail(strict=True, reason="_unit rounds to 1.0 for u > ~37, so tau = 1 with sigma > 0")
    def test_linear_affine_bibs_saturated_tau(self):
        eta = feasible_parameterization(LinearAffine(), StabilityTarget.bibs()).to_eta([40.0, 0.0])
        assert membership(LinearAffine(), eta, StabilityTarget.bibs()) is True

    def test_gaussian_finite_rho_delta_near_the_boundary(self):
        # no longer a defect: kept as the case that showed it
        target = StabilityTarget.delta_viable(0.7)
        eta = feasible_parameterization(Gaussian(), target).to_eta([-17.2, 18.8, 0.0])
        assert membership(Gaussian(), eta, target) is True

    @pytest.mark.xfail(strict=True, raises=ZeroDivisionError, reason="_pos underflows to 0")
    def test_gaussian_diss_underflowed_gamma(self):
        feasible_parameterization(Gaussian(), StabilityTarget.diss()).to_eta([-800.0, 0.0, 0.0])

    @pytest.mark.xfail(strict=True, raises=InputError, reason="_pos underflows a sum weight to 0")
    def test_sum_underflowed_weight(self):
        structure = SumKernel(children=(Gaussian(), Matern32()))
        eta = feasible_parameterization(structure, StabilityTarget.unconstrained()).to_eta(
            [-800.0] + [0.0] * 7
        )
        structure.validate_eta(tuple(eta))


def mp_boundary(tau, gamma):
    """The positive root ``z`` of ``2 tau (1 - exp(-gamma z)) = z`` at 60
    digits, by bisection on ``s = gamma z`` between the gap's maximizer
    ``log u`` and ``u = 2 tau gamma``."""
    with mpmath.workdps(60):
        u = 2 * mpmath.mpf(tau) * mpmath.mpf(gamma)
        lo, hi = mpmath.log(u), u
        for _ in range(200):
            mid = (lo + hi) / 2
            if u * -mpmath.expm1(-mid) > mid:
                lo = mid
            else:
                hi = mid
        return hi / mpmath.mpf(gamma), u - 1


class TestGaussianFiniteRho:
    @pytest.mark.parametrize("rho", [1e-6, 0.7, 3.0, 1e6])
    @settings(max_examples=100)
    @given(u=st.lists(st.floats(-40.0, 40.0), min_size=3, max_size=3))
    def test_map_images_are_members(self, rho, u):
        target = StabilityTarget.delta_viable(rho)
        eta = tuple(feasible_parameterization(Gaussian(), target).to_eta(np.array(u)))
        assert membership(Gaussian(), eta, target) is True, eta

    @settings(max_examples=150)
    @given(log_tau=st.floats(-3.0, 3.0), log_excess=st.floats(-12.0, math.log10(30.0)))
    def test_boundary_is_never_below_the_root(self, log_tau, log_excess):
        tau = 10.0 ** log_tau
        gamma = (1.0 + 10.0 ** log_excess) / (2.0 * tau)
        root, excess = mp_boundary(tau, gamma)
        z = gaussian_delta_boundary(tau, gamma)
        with mpmath.workdps(60):
            assert z >= root
            assert (z - root) / root <= 1e-14 * max(1, 1 / excess)
