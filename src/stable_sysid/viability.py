"""Stability targets and hyperparameter viability tests.

A predictor built from a kernel inherits a stability guarantee when the
kernel's hyperparameters lie in the matching *viability set*:

* growth sets (``kind="viable"``): for some threshold ``nu <= rho``,
  ``k(a, a) <= |a|^2`` whenever ``|a|^2 >= nu`` and ``k(a, a)`` is bounded
  below the threshold.  ``rho = 0`` yields input-to-state stability (ISS),
  ``rho = inf`` bounded-input-bounded-state (BIBS) stability, finite
  ``rho`` an intermediate guarantee.
* incremental sets (``kind="delta_viable"``): the same conditions on the
  squared kernel metric ``h(a, b)`` against ``|a - b|^2``, yielding the
  incremental notions deltaISS (``rho = 0``) and deltaBIBS (``rho = inf``).

Membership is decided by closed forms per structure.  They live on the
structure classes in :mod:`stable_sysid.kernels`, together with the
condition parameters the falsifier checks and the feasible
parameterizations (see ``KernelStructure`` for the rule methods); this
module validates its inputs and dispatches to them.  For composite kernels
(sum, product-with-stationary) and for stationary kernels at finite
``rho`` in the incremental family where only a sufficient inclusion is
known, a ``True`` answer means *provably viable* and ``False`` means *not
provably viable by the implemented inclusion*; ``membership`` notes which
answers are one-sided.

``numeric_falsifier`` samples the defining conditions directly: a returned
witness disproves membership, while absence of a witness is evidence only.
It samples ``k(a, a)`` and ``h(a, b)`` from the kernel's own formula (the
structure's ``from_terms``), so ``h(a, a) = 0`` exactly.

``feasible_parameterization`` exposes each nonempty set through a smooth
map from unconstrained coordinates, which is how the hyperparameter search
optimizes over a viability set without constraint handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    _config_array,
    _config_eta,
    _config_instance,
    _config_int,
    _config_real,
    _config_rho,
    _reject_unknown,
)
from .errors import InputError
from .kernels import INF, FeasibleParameterization, KernelInstance, KernelStructure, metric_pairs

__all__ = [
    "StabilityTarget",
    "ViabilityWitness",
    "membership",
    "numeric_falsifier",
    "FeasibleParameterization",
    "feasible_parameterization",
]


# ---------------------------------------------------------------------------
# targets and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityTarget:
    """Selects the feasibility set for hyperparameter selection.

    ``kind`` is one of ``"unconstrained"``, ``"viable"``, ``"delta_viable"``;
    ``rho`` is a nonnegative extended real (``math.inf`` allowed), must be
    present exactly when the target is constrained, and is kept as a float.
    """

    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("unconstrained", "viable", "delta_viable"):
            raise InputError(f"unknown stability target kind {self.kind!r}")
        if self.kind == "unconstrained":
            if self.rho is not None:
                raise InputError("unconstrained target takes no rho")
        else:
            object.__setattr__(self, "rho", _config_rho(self.rho, f"target {self.kind!r}"))

    # canonical constructors -------------------------------------------------
    @classmethod
    def unconstrained(cls) -> "StabilityTarget":
        return cls("unconstrained")

    @classmethod
    def viable(cls, rho: float) -> "StabilityTarget":
        return cls("viable", rho)

    @classmethod
    def delta_viable(cls, rho: float) -> "StabilityTarget":
        return cls("delta_viable", rho)

    @classmethod
    def iss(cls) -> "StabilityTarget":
        return cls.viable(0.0)

    @classmethod
    def bibs(cls) -> "StabilityTarget":
        return cls.viable(INF)

    @classmethod
    def diss(cls) -> "StabilityTarget":
        return cls.delta_viable(0.0)

    @classmethod
    def dbibs(cls) -> "StabilityTarget":
        return cls.delta_viable(INF)

    @property
    def constrained(self) -> bool:
        return self.kind != "unconstrained"

    def label(self) -> str:
        cfg = self.to_config()
        return f"{cfg['kind']}(rho={cfg['rho']})" if "rho" in cfg else cfg["kind"]

    def to_config(self) -> dict:
        if (self.kind, self.rho) in _CONFIG_NAMES:
            return {"kind": _CONFIG_NAMES[self.kind, self.rho]}
        return {"kind": _CONFIG_NAMES[self.kind, "rho"], "rho": self.rho}

    @classmethod
    def from_config(cls, cfg: dict) -> "StabilityTarget":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise InputError(f"stability target config must be a dict with 'kind', got {cfg!r}")
        kind = cfg["kind"]
        if not isinstance(kind, str) or kind not in _CONFIG_KINDS:
            raise InputError(f"unknown stability target kind {kind!r}")
        target_kind, rho = _CONFIG_KINDS[kind]
        if rho != "rho":
            _reject_unknown(cfg, {"kind"}, f"target kind {kind!r}")
            return cls(target_kind, rho)
        _reject_unknown(cfg, {"kind", "rho"}, f"target kind {kind!r}")
        if "rho" not in cfg:
            raise InputError(f"target kind {kind!r} needs a 'rho' value")
        try:
            rho = _config_real(cfg["rho"], "'rho'")
        except InputError as exc:
            raise InputError(f"{exc} (use bibs/dbibs for rho=inf)") from None
        return cls(target_kind, rho)


# each config kind of a target: the target's kind and its rho, or "rho"
# where the config gives rho; a target with a kind's fixed rho is written
# with that kind's name
_CONFIG_KINDS = {
    "none": ("unconstrained", None),
    "iss": ("viable", 0.0),
    "bibs": ("viable", INF),
    "viable": ("viable", "rho"),
    "diss": ("delta_viable", 0.0),
    "dbibs": ("delta_viable", INF),
    "dviable": ("delta_viable", "rho"),
}
_CONFIG_NAMES = {target: name for name, target in _CONFIG_KINDS.items()}


@dataclass(frozen=True)
class ViabilityWitness:
    """A sampled violation of a viability condition.

    ``points`` holds one vector for growth conditions and two for
    incremental ones; ``margin`` is the (positive) amount by which the
    condition fails at those points.
    """

    points: tuple
    violated_condition: str  # theta_contractive | theta_bounded | delta_contractive | delta_bounded
    margin: float

    def __post_init__(self):
        if self.margin <= 0:
            raise InputError("a witness must have a strictly positive margin")


# ---------------------------------------------------------------------------
# closed-form membership
# ---------------------------------------------------------------------------

def membership(structure: KernelStructure, eta: tuple, target: StabilityTarget) -> bool:
    """Closed-form membership of ``eta`` in ``target``'s viability set;
    every valid ``eta`` is a member of the unconstrained target.

    One-sided answers, where ``False`` means only not provably viable: the
    growth sets of sum, product-with-stationary and feature_gaussian
    structures are known sufficient inclusions; the incremental sets of
    matern32 and narx_fading at finite rho > 0 combine the exact rho = 0
    set with the general stationary bound (four times the zero-lag value
    below rho).  The incremental sets of linear_affine, polynomial and
    gaussian are exact at any rho.
    """
    _config_instance(structure, KernelStructure, "structure")
    _config_instance(target, StabilityTarget, "target")
    eta = structure.validate_eta(_config_eta(eta))
    if target.kind == "unconstrained":
        return True
    rule = structure.theta_member if target.kind == "viable" else structure.delta_member
    return rule(eta, target.rho)


# ---------------------------------------------------------------------------
# numeric falsifier
# ---------------------------------------------------------------------------

def numeric_falsifier(
    kernel: KernelInstance,
    target: StabilityTarget,
    sample_count: int = 100_000,
    radius: float = 50.0,
    seed: int = 0,
) -> ViabilityWitness | None:
    """Search for a sampled violation of the viability conditions.

    Points (pairs, for incremental targets) are drawn in the ball of the
    given radius with log-uniform magnitudes so that both tiny and large
    scales are probed.  When the closed form accepts the hyperparameters,
    the conditions are checked at the (nu, s) the closed form guarantees;
    when it rejects them, the check uses nu = rho, so that any witness
    found is a genuine disproof of membership.  Returning ``None`` is
    evidence, not proof.  ``sample_count`` must be an integer >= 1, ``seed``
    one >= 0 and ``radius`` a finite number > 0; anything else raises
    :class:`InputError`.
    """
    _config_instance(kernel, KernelInstance, "kernel")
    _config_instance(target, StabilityTarget, "target")
    if target.kind == "unconstrained":
        raise InputError("numeric_falsifier needs a constrained stability target")
    sample_count = _config_int(sample_count, "sample_count", 1)
    radius = _config_real(radius, "radius")
    seed = _config_int(seed, "seed", 0)
    if radius <= 0:
        raise InputError(f"radius must be > 0, got {radius}")

    structure, eta, dim = kernel.structure, kernel.eta, kernel.input_dim
    is_delta = target.kind == "delta_viable"

    accepted = membership(structure, eta, target)
    if accepted:
        nu, s = structure.delta_claim(eta) if is_delta else structure.theta_claim(eta)
    else:
        nu, s = target.rho, INF

    rng = np.random.default_rng(seed)

    def sample_points(n):
        direction = rng.standard_normal((n, dim))
        norms = np.linalg.norm(direction, axis=1)
        norms[norms == 0] = 1.0
        mags = radius * 10.0 ** rng.uniform(-8.0, 0.0, size=n)
        return direction / norms[:, None] * mags[:, None]

    chunk = 20_000
    remaining = sample_count
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        A = sample_points(n)
        # the kernel-side value vals is tested against the squared size size2
        # of a point (growth) or of a separation (incremental)
        if not is_delta:
            arrays = (A,)
            vals = kernel.structure.diag_values(kernel.eta, A)
            size2 = np.einsum("ij,ij->i", A, A)
        else:
            # half perturbation pairs (log-uniform separations), half independent
            offsets = sample_points(n)
            B = A + offsets
            half = n // 2
            B[:half] = sample_points(half)
            inside = np.einsum("ij,ij->i", B, B) <= radius ** 2
            A, B = A[inside], B[inside]
            if A.shape[0] == 0:
                continue
            arrays = (A, B)
            vals = metric_pairs(kernel, A, B)
            size2 = np.einsum("ij,ij->i", A - B, A - B)
        # (condition, where it fails, the bound its margin is taken from), in check order
        checks = [("contractive", (size2 >= nu) & (vals > size2 + 1e-9 * np.maximum(1.0, size2)), size2)]
        if math.isfinite(s):
            checks.append(("bounded", (size2 < nu) & (vals > s + 1e-9 * max(1.0, s)), np.full_like(vals, s)))
        for condition, violated, bound in checks:
            if violated.any():
                i = int(np.argmax(violated))
                return ViabilityWitness(
                    points=tuple(X[i].copy() for X in arrays),
                    violated_condition=f"{'delta' if is_delta else 'theta'}_{condition}",
                    margin=float(vals[i] - bound[i]),
                )
    return None


# ---------------------------------------------------------------------------
# feasible parameterizations
# ---------------------------------------------------------------------------

def feasible_parameterization(
    structure: KernelStructure, target: StabilityTarget
) -> FeasibleParameterization:
    """Build the unconstrained-coordinate map for ``(structure, target)``.

    Raises
    ------
    InfeasibleTargetError
        When the viability set is empty or contains only the zero kernel,
        with the responsible closed-form rule in the message.
    UnsupportedTargetError
        When no closed-form set is implemented for the combination.

    The returned ``to_eta`` takes a 1-D array of ``dim`` numbers, nan and
    ±inf too (search iterates), else raises :class:`InputError`.
    """
    _config_instance(structure, KernelStructure, "structure")
    _config_instance(target, StabilityTarget, "target")
    if target.kind == "unconstrained":
        param = structure.unconstrained_parameterization()
    elif target.kind == "viable":
        param = structure.theta_parameterization(target.rho)
    else:
        param = structure.delta_parameterization(target.rho)

    def to_eta(u):
        u = _config_array(u, "raw coordinates", 1, finite=False)
        if u.shape[0] != param.dim:
            raise InputError(f"raw coordinates must have length {param.dim}, got {u.shape[0]}")
        return param.to_eta(u)

    return FeasibleParameterization(param.dim, to_eta)
