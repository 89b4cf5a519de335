"""Golden table of the per-structure stability rules, pinned as ``float.hex``.

``golden_rules.json`` holds, for every (structure, target) pair of
``rule_cases``: the parameterization's ``dim`` and its ``to_eta`` images of
fixed raw vectors, their closed-form membership and the falsifier's claimed
``(nu, s)``, the error a pair without a parameterization raises, and each
structure's suggested search start with its membership and claim.  The
table was captured from the implementation in which these rules were
``isinstance`` chains in ``viability`` and ``selection``; every value must
stay bit-identical.

Three claims were regenerated on purpose when ``gaussian_delta_boundary``
became a bisection on the finite-rho rule in place of a special-function
form.  Each ``nu`` moved up, to the safe side, by 6 to 15 ulps:
``gaussian|dviable(rho=0.7)`` image 2, ``gaussian|dbibs`` image 0 and
``sum(linear_affine,sum(gaussian,matern32))|dviable(rho=0.7)`` image 1.
Every image, membership, ``dim`` and suggested start kept its bits.
"""

import json
from pathlib import Path

import pytest

from rule_cases import PAIRS, STATS, STRUCTURES, pair_id, raw_vectors, structure_id
from stable_sysid import UnsupportedTargetError, feasible_parameterization, membership
from stable_sysid.errors import StableSysidError

GOLDEN = json.loads((Path(__file__).parent / "golden_rules.json").read_text())


def hexes(values):
    return [float.hex(float(v)) for v in values]


def member(structure, eta, target):
    try:
        return membership(structure, eta, target)
    except UnsupportedTargetError as exc:
        return type(exc).__name__


def claim(structure, eta, target):
    if not target.constrained or member(structure, eta, target) is not True:
        return None
    rule = structure.delta_claim if target.kind == "delta_viable" else structure.theta_claim
    return hexes(rule(tuple(eta)))


def test_table_covers_the_grid():
    assert set(GOLDEN["pairs"]) == {pair_id(s, t) for s, t in PAIRS}
    assert set(GOLDEN["structures"]) == {structure_id(s) for s in STRUCTURES}


@pytest.mark.parametrize("structure", STRUCTURES, ids=structure_id)
def test_suggested_start(structure):
    expected = GOLDEN["structures"][structure_id(structure)]["suggest"]
    assert hexes(structure.suggest_eta(STATS)) == expected


@pytest.mark.parametrize("structure,target", PAIRS, ids=[pair_id(s, t) for s, t in PAIRS])
def test_pair_rules(structure, target):
    row = GOLDEN["pairs"][pair_id(structure, target)]
    suggest = tuple(structure.suggest_eta(STATS))
    assert member(structure, suggest, target) == row["suggest_member"]
    assert claim(structure, suggest, target) == row["suggest_claim"]
    if "raises" in row:
        with pytest.raises(StableSysidError) as info:
            feasible_parameterization(structure, target)
        assert type(info.value).__name__ == row["raises"]
        return
    param = feasible_parameterization(structure, target)
    assert param.dim == row["dim"]
    images = [tuple(param.to_eta(u)) for u in raw_vectors(param.dim)]
    assert [hexes(eta) for eta in images] == row["images"]
    assert [member(structure, eta, target) for eta in images] == row["member"]
    assert [claim(structure, eta, target) for eta in images] == row["claims"]
