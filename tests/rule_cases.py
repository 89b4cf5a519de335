"""The (structure, target) grid shared by the rule property and golden tests.

Every structure family appears once, plus a nested sum and a product whose
stationary right factor is ``narx_fading``; every target kind appears at
``rho`` in {0, 0.7, inf}.  :func:`all_structures` gives the evaluation
tests one (structure, eta) per variant.  All structures accept
``input_dim = 5``.
"""

import math

import numpy as np

from stable_sysid import (
    FeatureGaussian,
    Gaussian,
    LinearAffine,
    Matern32,
    NarxFading,
    Polynomial,
    ProductWithStationary,
    StabilityTarget,
    SumKernel,
)

STRUCTURES = [
    LinearAffine(),
    Polynomial(degree=2),
    Gaussian(),
    Matern32(),
    NarxFading(model_order=2, window=1),
    FeatureGaussian(),
    SumKernel(children=(Gaussian(), Matern32())),
    ProductWithStationary(left=LinearAffine(), right=Gaussian()),
    SumKernel(children=(LinearAffine(), SumKernel(children=(Gaussian(), Matern32())))),
    ProductWithStationary(left=FeatureGaussian(), right=NarxFading(model_order=2, window=1)),
]

TARGETS = [StabilityTarget.unconstrained()] + [
    make(rho)
    for make in (StabilityTarget.viable, StabilityTarget.delta_viable)
    for rho in (0.0, 0.7, math.inf)
]

PAIRS = [(structure, target) for structure in STRUCTURES for target in TARGETS]

# data statistics for the suggested starts (the keys of selection._data_stats)
STATS = {"var_y": 0.3712, "med_sq": 2.913, "mean_zz": 1.847}


def pair_id(structure, target) -> str:
    return f"{structure_id(structure)}|{target.label()}"


def structure_id(structure) -> str:
    """Compact name: ``sum(gaussian,matern32)``, ``narx_fading[2,1]``."""
    parts = getattr(structure, "children", None)
    if parts is None and hasattr(structure, "left"):
        parts = (structure.left, structure.right)
    if parts is not None:
        return f"{structure.name}({','.join(structure_id(p) for p in parts)})"
    if hasattr(structure, "model_order"):
        return f"{structure.name}[{structure.model_order},{structure.window}]"
    return structure.name


def raw_vectors(dim: int) -> list:
    """Fixed unconstrained coordinates, spread over signs and scales."""
    k = np.arange(dim, dtype=float)
    return [np.zeros(dim), np.linspace(-2.5, 3.1, dim), 4.0 * np.sin(1.3 * k + 0.4)]


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
