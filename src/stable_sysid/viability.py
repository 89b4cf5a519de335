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
provably viable by the implemented inclusion*; this one-sidedness is noted
per membership function below.

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

from .config import _config_array, _config_eta, _config_int, _config_real, _config_rho, _reject_unknown
from .errors import InputError
from .kernels import INF, FeasibleParameterization, KernelInstance, KernelStructure, metric_pairs

__all__ = [
    "StabilityTarget",
    "ViabilityWitness",
    "theta_membership",
    "delta_membership",
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
        if self.kind == "unconstrained":
            return {"kind": "none"}
        if self.kind == "viable":
            if self.rho == 0:
                return {"kind": "iss"}
            if self.rho == INF:
                return {"kind": "bibs"}
            return {"kind": "viable", "rho": self.rho}
        if self.rho == 0:
            return {"kind": "diss"}
        if self.rho == INF:
            return {"kind": "dbibs"}
        return {"kind": "dviable", "rho": self.rho}

    @classmethod
    def from_config(cls, cfg: dict) -> "StabilityTarget":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise InputError(f"stability target config must be a dict with 'kind', got {cfg!r}")
        kind = cfg["kind"]
        simple = {
            "none": cls.unconstrained,
            "bibs": cls.bibs,
            "iss": cls.iss,
            "dbibs": cls.dbibs,
            "diss": cls.diss,
        }
        if kind in simple:
            _reject_unknown(cfg, {"kind"}, f"target kind {kind!r}")
            return simple[kind]()
        if kind in ("viable", "dviable"):
            _reject_unknown(cfg, {"kind", "rho"}, f"target kind {kind!r}")
            if "rho" not in cfg:
                raise InputError(f"target kind {kind!r} needs a 'rho' value")
            try:
                rho = _config_real(cfg["rho"], "'rho'")
            except InputError as exc:
                raise InputError(f"{exc} (use bibs/dbibs for rho=inf)") from None
            return cls.viable(rho) if kind == "viable" else cls.delta_viable(rho)
        raise InputError(f"unknown stability target kind {kind!r}")


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

def _closed_form(rule, structure: KernelStructure, eta: tuple, rho) -> bool:
    """``rule`` (a structure's member method) at a checked rho and validated eta."""
    rho = _config_rho(rho, "membership")
    return rule(structure.validate_eta(_config_eta(eta)), rho)


def theta_membership(structure: KernelStructure, eta: tuple, rho) -> bool:
    """Closed-form membership of ``eta`` in the growth viability set at ``rho``.

    For sum and product-with-stationary structures, and for the
    feature-times-Gaussian kernel, the implemented set is the known
    sufficient inclusion: ``True`` is a guarantee, ``False`` means not
    provably viable this way.
    """
    return _closed_form(structure.theta_member, structure, eta, rho)


def delta_membership(structure: KernelStructure, eta: tuple, rho) -> bool:
    """Closed-form membership of ``eta`` in the incremental viability set.

    Exact for linear_affine, polynomial, and gaussian (any rho).  For
    matern32 and narx_fading at finite rho > 0 membership combines the
    exact rho = 0 set with the general stationary bound (four times the
    zero-lag value below rho); both branches are sufficient only.
    """
    return _closed_form(structure.delta_member, structure, eta, rho)


def membership(structure: KernelStructure, eta: tuple, target: StabilityTarget) -> bool:
    """Dispatch to the closed form matching ``target``; unconstrained is always True."""
    if target.kind == "unconstrained":
        structure.validate_eta(_config_eta(eta))
        return True
    if target.kind == "viable":
        return theta_membership(structure, eta, target.rho)
    return delta_membership(structure, eta, target.rho)


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
        kind = "delta" if is_delta else "theta"
        tol = 1e-9 * np.maximum(1.0, size2)
        contract = (size2 >= nu) & (vals > size2 + tol)
        if contract.any():
            i = int(np.argmax(contract))
            return ViabilityWitness(
                points=tuple(X[i].copy() for X in arrays),
                violated_condition=f"{kind}_contractive",
                margin=float(vals[i] - size2[i]),
            )
        if math.isfinite(s):
            bounded = (size2 < nu) & (vals > s + 1e-9 * max(1.0, s))
            if bounded.any():
                i = int(np.argmax(bounded))
                return ViabilityWitness(
                    points=tuple(X[i].copy() for X in arrays),
                    violated_condition=f"{kind}_bounded",
                    margin=float(vals[i] - s),
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
