"""Properties of the per-structure stability rules over the whole grid.

For every (structure, target) pair of ``rule_cases`` either the feasible
parameterization's image passes ``validate_eta`` and the closed-form
membership test, or the pair is refused (``InfeasibleTargetError`` /
``UnsupportedTargetError``) and no nonzero kernel of the structure is ever
accepted.  Raw coordinates range over the box [-6, 6] used by the image
tests of ``test_viability``; ``TestKnownDefects`` pins, as strict expected
failures, the ways the maps leave their sets further out.
"""

import numpy as np
import pytest
from hypothesis import given
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

    Each case is a strict expected failure: it fails today, and a fix turns
    it into an unexpected pass, which fails the suite until the marker goes.
    """

    @pytest.mark.xfail(strict=True, reason="_unit rounds to 1.0 for u > ~37, so tau = 1 with sigma > 0")
    def test_linear_affine_bibs_saturated_tau(self):
        eta = feasible_parameterization(LinearAffine(), StabilityTarget.bibs()).to_eta([40.0, 0.0])
        assert membership(LinearAffine(), eta, StabilityTarget.bibs()) is True

    @pytest.mark.xfail(
        strict=True, reason="gaussian_delta_boundary loses its accuracy as 2 tau gamma -> 1+"
    )
    def test_gaussian_finite_rho_delta_near_the_boundary(self):
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
