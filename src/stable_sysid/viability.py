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

Membership is decided by closed forms per structure.  For composite kernels
(sum, product-with-stationary) and for stationary kernels at finite
``rho`` in the incremental family where only a sufficient inclusion is
known, a ``True`` answer means *provably viable* and ``False`` means *not
provably viable by the implemented inclusion*; this one-sidedness is noted
per branch below.

``numeric_falsifier`` samples the defining conditions directly: a returned
witness disproves membership, while absence of a witness is evidence only.

``feasible_parameterization`` exposes each nonempty set through a smooth
map from unconstrained coordinates, which is how the hyperparameter search
optimizes over a viability set without constraint handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleTargetError, InputError, UnsupportedTargetError
from .kernels import (
    FeatureGaussian,
    Gaussian,
    KernelInstance,
    KernelStructure,
    LinearAffine,
    Matern32,
    NarxFading,
    Polynomial,
    ProductWithStationary,
    SumKernel,
    diag_values,
    lag_weight_sum,
    lambert_w0,
    metric_pairs,
)

__all__ = [
    "StabilityTarget",
    "ViabilityWitness",
    "theta_membership",
    "delta_membership",
    "membership",
    "gaussian_delta_boundary",
    "numeric_falsifier",
    "FeasibleParameterization",
    "feasible_parameterization",
]

INF = math.inf

_NO_STATIONARY_ISS = (
    "stationary-kernel rule: k(a, a) is the constant zero-lag value, so the "
    "zero-threshold growth condition k(a, a) <= |a|^2 fails near the origin "
    "for every nontrivial hyperparameter choice"
)


# ---------------------------------------------------------------------------
# targets and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityTarget:
    """Selects the feasibility set for hyperparameter selection.

    ``kind`` is one of ``"unconstrained"``, ``"viable"``, ``"delta_viable"``;
    ``rho`` is a nonnegative extended real (``math.inf`` allowed) and must be
    present exactly when the target is constrained.
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
            if self.rho is None or (isinstance(self.rho, float) and math.isnan(self.rho)) or self.rho < 0:
                raise InputError(f"target {self.kind!r} needs rho in [0, inf], got {self.rho!r}")

    # canonical constructors -------------------------------------------------
    @classmethod
    def unconstrained(cls) -> "StabilityTarget":
        return cls("unconstrained")

    @classmethod
    def viable(cls, rho: float) -> "StabilityTarget":
        return cls("viable", float(rho))

    @classmethod
    def delta_viable(cls, rho: float) -> "StabilityTarget":
        return cls("delta_viable", float(rho))

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
            extra = set(cfg) - {"kind"}
            if extra:
                raise InputError(f"target kind {kind!r} takes no extra keys, got {sorted(extra)}")
            return simple[kind]()
        if kind in ("viable", "dviable"):
            extra = set(cfg) - {"kind", "rho"}
            if extra:
                raise InputError(f"unknown target config keys {sorted(extra)}")
            if "rho" not in cfg:
                raise InputError(f"target kind {kind!r} needs a 'rho' value")
            rho = float(cfg["rho"])
            if not (0 <= rho < INF):
                raise InputError(f"'rho' must be a finite value >= 0 here (use bibs/dbibs for rho=inf), got {rho}")
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

def _check_rho(rho) -> float:
    rho = float(rho)
    if math.isnan(rho) or rho < 0:
        raise InputError(f"rho must lie in [0, inf], got {rho!r}")
    return rho


def theta_membership(structure: KernelStructure, eta: tuple, rho) -> bool:
    """Closed-form membership of ``eta`` in the growth viability set at ``rho``.

    For sum and product-with-stationary structures, and for the
    feature-times-Gaussian kernel, the implemented set is the known
    sufficient inclusion: ``True`` is a guarantee, ``False`` means not
    provably viable this way.
    """
    rho = _check_rho(rho)
    structure.validate_eta(tuple(eta))
    eta = tuple(float(v) for v in eta)

    if isinstance(structure, LinearAffine):
        tau, sigma = eta
        if tau > 1.0:
            return False
        if tau == 1.0:
            return sigma == 0.0
        if rho == INF:
            return True
        return sigma <= rho * (1.0 - tau)
    if isinstance(structure, Polynomial):
        return False
    if isinstance(structure, (Gaussian, Matern32)):
        tau, _, sigma = eta
        return tau + sigma <= rho
    if isinstance(structure, NarxFading):
        if rho == 0.0:
            return eta[0] == 0.0
        if rho == INF:
            return True
        raise UnsupportedTargetError(
            "narx_fading growth viability is implemented for rho in {0, inf} only"
        )
    if isinstance(structure, FeatureGaussian):
        tau, _, sigma = eta
        return tau + sigma <= 1.0
    if isinstance(structure, SumKernel):
        weights, parts = structure.split_eta(eta)
        if sum(weights) > 1.0:
            return False
        return all(theta_membership(c, p, rho) for c, p in zip(structure.children, parts))
    if isinstance(structure, ProductWithStationary):
        eta_l, eta_r = structure.split_eta(eta)
        if structure.right.stationary_peak(eta_r) > 1.0:
            return False
        return theta_membership(structure.left, eta_l, rho)
    raise UnsupportedTargetError(f"no growth viability rule for structure {structure.name!r}")


def delta_membership(structure: KernelStructure, eta: tuple, rho) -> bool:
    """Closed-form membership of ``eta`` in the incremental viability set.

    Exact for linear_affine, polynomial, and gaussian (any rho).  For
    matern32 and narx_fading at finite rho > 0 membership combines the
    exact rho = 0 set with the general stationary bound (four times the
    zero-lag value below rho); both branches are sufficient only.
    """
    rho = _check_rho(rho)
    structure.validate_eta(tuple(eta))
    eta = tuple(float(v) for v in eta)

    if isinstance(structure, LinearAffine):
        return eta[0] <= 1.0
    if isinstance(structure, Polynomial):
        return False
    if isinstance(structure, Gaussian):
        tau, gamma, _ = eta
        if rho == INF:
            return True
        if 2.0 * tau * gamma <= 1.0:
            return True
        if rho == 0.0:
            return False
        return gaussian_delta_boundary(tau, gamma) <= rho
    if isinstance(structure, Matern32):
        tau, gamma, sigma = eta
        if rho == INF:
            return True
        exact_zero = 3.0 * tau * gamma ** 2 <= 1.0
        if rho == 0.0:
            return exact_zero
        return exact_zero or 4.0 * (tau + sigma) <= rho
    if isinstance(structure, NarxFading):
        tau, gamma, xi = eta
        pi = lag_weight_sum(xi, structure.window, structure.model_order)
        if rho == INF:
            return True
        exact_zero = 2.0 * gamma * tau * pi <= 1.0
        if rho == 0.0:
            return exact_zero
        return exact_zero or 4.0 * tau * pi <= rho
    if isinstance(structure, SumKernel):
        weights, parts = structure.split_eta(eta)
        if sum(weights) > 1.0:
            return False
        return all(delta_membership(c, p, rho) for c, p in zip(structure.children, parts))
    if isinstance(structure, (FeatureGaussian, ProductWithStationary)):
        raise UnsupportedTargetError(
            f"no incremental viability rule is available for {structure.name!r}; "
            "its squared kernel metric grows without bound along fixed separations"
        )
    raise UnsupportedTargetError(f"no incremental viability rule for structure {structure.name!r}")


def membership(structure: KernelStructure, eta: tuple, target: StabilityTarget) -> bool:
    """Dispatch to the closed form matching ``target``; unconstrained is always True."""
    if target.kind == "unconstrained":
        structure.validate_eta(tuple(eta))
        return True
    if target.kind == "viable":
        return theta_membership(structure, eta, target.rho)
    return delta_membership(structure, eta, target.rho)


def gaussian_delta_boundary(tau: float, gamma: float) -> float:
    """Smallest rho for which a Gaussian (tau, gamma, .) is incrementally viable.

    Returns 0 when ``2 tau gamma <= 1``; otherwise the unique positive root
    of ``2 tau (1 - exp(-gamma z)) = z``, expressed through the principal
    Lambert W branch as ``2 tau + W(-2 gamma tau e^{-2 gamma tau}) / gamma``.
    """
    if tau < 0 or gamma < 0:
        raise InputError("tau and gamma must be >= 0")
    u = 2.0 * tau * gamma
    if u <= 1.0:
        return 0.0
    w = lambert_w0(-u * math.exp(-u))
    return 2.0 * tau + w / gamma


# ---------------------------------------------------------------------------
# claimed condition parameters (threshold nu, local bound s)
# ---------------------------------------------------------------------------
# When the closed form accepts eta, the proofs exhibit concrete (nu, s) for
# which the defining conditions hold.  The falsifier verifies exactly those.

def _theta_nu_s(structure, eta, rho):
    if isinstance(structure, LinearAffine):
        tau, sigma = eta
        if tau == 1.0:
            return 0.0, sigma
        nu = sigma / (1.0 - tau)
        return nu, tau * nu + sigma
    if isinstance(structure, (Gaussian, Matern32, NarxFading)):
        peak = structure.stationary_peak(eta)
        return peak, peak
    if isinstance(structure, FeatureGaussian):
        return 0.0, 0.0
    if isinstance(structure, SumKernel):
        _, parts = structure.split_eta(eta)
        pairs = [_theta_nu_s(c, p, rho) for c, p in zip(structure.children, parts)]
        nu = max(n for n, _ in pairs)
        s = max(max(n, s) for n, s in pairs)
        return nu, s
    if isinstance(structure, ProductWithStationary):
        eta_l, eta_r = structure.split_eta(eta)
        nu_l, s_l = _theta_nu_s(structure.left, eta_l, rho)
        return nu_l, s_l * structure.right.stationary_peak(eta_r)
    raise UnsupportedTargetError(f"no claimed growth condition parameters for {structure.name!r}")


def _delta_nu_s(structure, eta, rho):
    if isinstance(structure, LinearAffine):
        return 0.0, 0.0
    if isinstance(structure, Gaussian):
        tau, gamma, _ = eta
        return gaussian_delta_boundary(tau, gamma), 4.0 * structure.stationary_peak(eta)
    if isinstance(structure, (Matern32, NarxFading)):
        peak = structure.stationary_peak(eta)
        nu = 0.0 if delta_membership(structure, eta, 0.0) else 4.0 * peak
        return nu, 4.0 * peak
    if isinstance(structure, SumKernel):
        _, parts = structure.split_eta(eta)
        pairs = [_delta_nu_s(c, p, rho) for c, p in zip(structure.children, parts)]
        nu = max(n for n, _ in pairs)
        s = max(max(n, s) for n, s in pairs)
        return nu, s
    raise UnsupportedTargetError(f"no claimed incremental condition parameters for {structure.name!r}")


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
    evidence, not proof.
    """
    if target.kind == "unconstrained":
        raise InputError("numeric_falsifier needs a constrained stability target")
    if sample_count < 1:
        raise InputError(f"sample_count must be >= 1, got {sample_count}")
    if not (radius > 0):
        raise InputError(f"radius must be > 0, got {radius}")

    rho = float(target.rho)
    structure, eta, dim = kernel.structure, kernel.eta, kernel.input_dim
    is_delta = target.kind == "delta_viable"

    accepted = membership(structure, eta, target)
    if accepted:
        nu, s = (_delta_nu_s if is_delta else _theta_nu_s)(structure, eta, rho)
    else:
        nu, s = rho, INF

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
        if not is_delta:
            vals = diag_values(kernel, A)
            norms2 = np.einsum("ij,ij->i", A, A)
            tol = 1e-9 * np.maximum(1.0, norms2)
            contract = (norms2 >= nu) & (vals > norms2 + tol)
            if contract.any():
                i = int(np.argmax(contract))
                return ViabilityWitness(
                    points=(A[i].copy(),),
                    violated_condition="theta_contractive",
                    margin=float(vals[i] - norms2[i]),
                )
            if math.isfinite(s):
                bounded = (norms2 < nu) & (vals > s + 1e-9 * max(1.0, s))
                if bounded.any():
                    i = int(np.argmax(bounded))
                    return ViabilityWitness(
                        points=(A[i].copy(),),
                        violated_condition="theta_bounded",
                        margin=float(vals[i] - s),
                    )
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
            h = metric_pairs(kernel, A, B)
            sep2 = np.einsum("ij,ij->i", A - B, A - B)
            tol = 1e-9 * np.maximum(1.0, sep2)
            contract = (sep2 >= nu) & (h > sep2 + tol)
            if contract.any():
                i = int(np.argmax(contract))
                return ViabilityWitness(
                    points=(A[i].copy(), B[i].copy()),
                    violated_condition="delta_contractive",
                    margin=float(h[i] - sep2[i]),
                )
            if math.isfinite(s):
                bounded = (sep2 < nu) & (h > s + 1e-9 * max(1.0, s))
                if bounded.any():
                    i = int(np.argmax(bounded))
                    return ViabilityWitness(
                        points=(A[i].copy(), B[i].copy()),
                        violated_condition="delta_bounded",
                        margin=float(h[i] - s),
                    )
    return None


# ---------------------------------------------------------------------------
# feasible parameterizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibleParameterization:
    """A map from unconstrained search coordinates onto a viability set.

    ``to_eta`` sends any vector in R^dim into the set (its image covers the
    set's interior up to floating-point range limits); the hyperparameter
    search runs over these coordinates so every iterate is feasible.
    """

    dim: int
    to_eta: Callable[[np.ndarray], tuple]
    description: str


def _pos(u: float) -> float:
    return math.exp(min(float(u), 690.0))


def _unit(u: float) -> float:
    u = float(u)
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-min(u, 690.0)))
    z = math.exp(max(u, -690.0))
    return z / (1.0 + z)


def _softmax(raw: np.ndarray) -> np.ndarray:
    raw = np.minimum(np.asarray(raw, dtype=float), 690.0)
    e = np.exp(raw - raw.max())
    return e / e.sum()


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
    """
    if target.kind == "unconstrained":
        return _unconstrained_parameterization(structure)
    rho = float(target.rho)
    if target.kind == "viable":
        return _theta_parameterization(structure, rho)
    return _delta_parameterization(structure, rho)


def _unconstrained_parameterization(structure) -> FeasibleParameterization:
    if isinstance(structure, LinearAffine):
        return FeasibleParameterization(
            2, lambda u: (_pos(u[0]), _pos(u[1])), "tau, sigma = exp(u)"
        )
    if isinstance(structure, Polynomial):
        return FeasibleParameterization(0, lambda u: (), "degree fixed on the structure")
    if isinstance(structure, (Gaussian, Matern32, FeatureGaussian)):
        return FeasibleParameterization(
            3, lambda u: (_pos(u[0]), _pos(u[1]), _pos(u[2])), "tau, gamma, sigma = exp(u)"
        )
    if isinstance(structure, NarxFading):
        return FeasibleParameterization(
            3, lambda u: (_pos(u[0]), _pos(u[1]), _pos(u[2])), "tau, gamma, xi = exp(u)"
        )
    if isinstance(structure, SumKernel):
        children = [_unconstrained_parameterization(c) for c in structure.children]
        q = len(structure.children)

        def to_eta(u, children=children, q=q):
            u = np.asarray(u, dtype=float)
            weights = tuple(_pos(v) for v in u[:q])
            parts, offset = [], q
            for cp in children:
                parts.extend(cp.to_eta(u[offset:offset + cp.dim]))
                offset += cp.dim
            return weights + tuple(parts)

        dim = q + sum(cp.dim for cp in children)
        return FeasibleParameterization(dim, to_eta, "weights = exp(u); children unconstrained")
    if isinstance(structure, ProductWithStationary):
        left = _unconstrained_parameterization(structure.left)
        right = _unconstrained_parameterization(structure.right)

        def to_eta(u, left=left, right=right):
            u = np.asarray(u, dtype=float)
            return tuple(left.to_eta(u[:left.dim])) + tuple(right.to_eta(u[left.dim:]))

        return FeasibleParameterization(left.dim + right.dim, to_eta, "factors unconstrained")
    raise UnsupportedTargetError(f"no parameterization for structure {structure.name!r}")


def _split_mass(total: float, frac: float) -> tuple:
    return total * frac, total * (1.0 - frac)


def _peak_le_one_parameterization(structure) -> FeasibleParameterization:
    """Stationary hyperparameters with zero-lag value at most 1."""
    if isinstance(structure, (Gaussian, Matern32)):
        def to_eta(u):
            tau, sigma = _split_mass(_unit(u[0]), _unit(u[2]))
            return (tau, _pos(u[1]), sigma)

        return FeasibleParameterization(3, to_eta, "tau + sigma in (0, 1), gamma free")
    if isinstance(structure, NarxFading):
        def to_eta(u, s=structure):
            gamma, xi = _pos(u[0]), _pos(u[1])
            pi = lag_weight_sum(xi, s.window, s.model_order)
            return (_unit(u[2]) / pi, gamma, xi)

        return FeasibleParameterization(3, to_eta, "tau * lag weight sum in (0, 1)")
    raise UnsupportedTargetError(
        f"no unit-peak parameterization for stationary factor {structure.name!r}"
    )


def _theta_parameterization(structure, rho: float) -> FeasibleParameterization:
    if isinstance(structure, Polynomial):
        raise InfeasibleTargetError(
            "polynomial rule: a degree >= 2 kernel grows faster than |a|^2, so its "
            "viability sets are empty for every rho"
        )
    if isinstance(structure, LinearAffine):
        if rho == 0.0:
            return FeasibleParameterization(
                1, lambda u: (_unit(u[0]), 0.0), "tau in (0, 1), sigma = 0"
            )
        if rho == INF:
            return FeasibleParameterization(
                2, lambda u: (_unit(u[0]), _pos(u[1])), "tau in (0, 1), sigma free"
            )

        def to_eta(u, rho=rho):
            tau = _unit(u[0])
            return (tau, _unit(u[1]) * rho * (1.0 - tau))

        return FeasibleParameterization(2, to_eta, "tau in (0, 1), sigma < rho (1 - tau)")
    if isinstance(structure, (Gaussian, Matern32)):
        if rho == 0.0:
            raise InfeasibleTargetError(_NO_STATIONARY_ISS)
        if rho == INF:
            return _unconstrained_parameterization(structure)

        def to_eta(u, rho=rho):
            tau, sigma = _split_mass(rho * _unit(u[0]), _unit(u[2]))
            return (tau, _pos(u[1]), sigma)

        return FeasibleParameterization(3, to_eta, "tau + sigma in (0, rho), gamma free")
    if isinstance(structure, NarxFading):
        if rho == 0.0:
            raise InfeasibleTargetError(_NO_STATIONARY_ISS)
        if rho == INF:
            return _unconstrained_parameterization(structure)
        raise UnsupportedTargetError(
            "narx_fading growth viability is implemented for rho in {0, inf} only"
        )
    if isinstance(structure, FeatureGaussian):
        def to_eta(u):
            tau, sigma = _split_mass(_unit(u[0]), _unit(u[2]))
            return (tau, _pos(u[1]), sigma)

        return FeasibleParameterization(3, to_eta, "tau + sigma in (0, 1), gamma free")
    if isinstance(structure, SumKernel):
        return _sum_parameterization(structure, StabilityTarget.viable(rho))
    if isinstance(structure, ProductWithStationary):
        left = _theta_parameterization(structure.left, rho)
        right = _peak_le_one_parameterization(structure.right)

        def to_eta(u, left=left, right=right):
            u = np.asarray(u, dtype=float)
            return tuple(left.to_eta(u[:left.dim])) + tuple(right.to_eta(u[left.dim:]))

        return FeasibleParameterization(
            left.dim + right.dim, to_eta, "left viable at rho; right peak <= 1"
        )
    raise UnsupportedTargetError(f"no growth parameterization for structure {structure.name!r}")


def _delta_parameterization(structure, rho: float) -> FeasibleParameterization:
    if isinstance(structure, Polynomial):
        raise InfeasibleTargetError(
            "polynomial rule: a degree >= 2 kernel grows faster than |a|^2, so its "
            "viability sets are empty for every rho"
        )
    if isinstance(structure, LinearAffine):
        return FeasibleParameterization(
            2, lambda u: (_unit(u[0]), _pos(u[1])), "tau in (0, 1), sigma free"
        )
    if isinstance(structure, Gaussian):
        if rho == INF:
            return _unconstrained_parameterization(structure)
        if rho == 0.0:
            def to_eta(u):
                gamma = _pos(u[0])
                return (_unit(u[1]) / (2.0 * gamma), gamma, _pos(u[2]))

            return FeasibleParameterization(3, to_eta, "2 tau gamma in (0, 1), sigma free")

        def to_eta(u, rho=rho):
            gamma = _pos(u[0])
            tau_max = rho / (2.0 * -math.expm1(-min(gamma * rho, 690.0)))
            return (_unit(u[1]) * tau_max, gamma, _pos(u[2]))

        return FeasibleParameterization(
            3, to_eta, "tau below the finite-rho incremental boundary, sigma free"
        )
    if isinstance(structure, Matern32):
        if rho == INF:
            return _unconstrained_parameterization(structure)

        def to_eta(u):
            gamma = _pos(u[0])
            return (_unit(u[1]) / (3.0 * gamma ** 2), gamma, _pos(u[2]))

        return FeasibleParameterization(3, to_eta, "3 tau gamma^2 in (0, 1), sigma free")
    if isinstance(structure, NarxFading):
        if rho == INF:
            return _unconstrained_parameterization(structure)

        def to_eta(u, s=structure):
            gamma, xi = _pos(u[0]), _pos(u[1])
            pi = lag_weight_sum(xi, s.window, s.model_order)
            return (_unit(u[2]) / (2.0 * gamma * pi), gamma, xi)

        return FeasibleParameterization(
            3, to_eta, "2 tau gamma * lag weight sum in (0, 1)"
        )
    if isinstance(structure, SumKernel):
        return _sum_parameterization(structure, StabilityTarget.delta_viable(rho))
    raise UnsupportedTargetError(
        f"no incremental viability rule is available for {structure.name!r}"
    )


def _sum_parameterization(structure: SumKernel, target: StabilityTarget) -> FeasibleParameterization:
    child_params = [feasible_parameterization(c, target) for c in structure.children]
    q = len(structure.children)

    def to_eta(u, child_params=child_params, q=q):
        u = np.asarray(u, dtype=float)
        mass = _unit(u[0])
        weights = tuple(mass * _softmax(u[1:1 + q]))
        parts, offset = [], 1 + q
        for cp in child_params:
            parts.extend(cp.to_eta(u[offset:offset + cp.dim]))
            offset += cp.dim
        return weights + tuple(parts)

    dim = 1 + q + sum(cp.dim for cp in child_params)
    return FeasibleParameterization(
        dim, to_eta, "weights sum below 1; children in their own viability sets"
    )
