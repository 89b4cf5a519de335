"""Kernel structures, hyperparameter domains, and Gram-matrix assembly.

A *kernel structure* is a parametric family ``k``; pairing it with a
validated hyperparameter vector ``eta`` gives a concrete positive
semidefinite kernel function ``k_eta`` on ``R^d`` with ``d = 2m + 1``
(``m`` past outputs, ``m`` past inputs, one current input).

Supported structures
--------------------
====================  ===========================  =========================
name                  k_eta(a, b)                  eta
====================  ===========================  =========================
linear_affine         tau a.b + sigma              (tau, sigma)
polynomial            (a.b)^degree                 ()        degree >= 2
gaussian              tau exp(-gamma |a-b|^2)      (tau, gamma, sigma)
                      + sigma
matern32              tau (1 + sqrt(3) gamma r)    (tau, gamma, sigma)
                      exp(-sqrt(3) gamma r)
                      + sigma,  r = |a-b|
narx_fading           tau sum_t exp(-xi t          (tau, gamma, xi)
                      - gamma |w_t(a-b)|^2)
feature_gaussian      a.b (tau exp(-gamma          (tau, gamma, sigma)
                      |a-b|^2) + sigma)
sum                   sum_i w_i k_i(a, b)          (w_1..w_q, eta_1.., eta_q)
product_stationary    k_left(a, b) k_right(a, b)   (eta_left.., eta_right..)
====================  ===========================  =========================

For ``narx_fading`` the difference ``z = a - b`` is split into its output
part ``z[0:m]`` and input part ``z[m:2m+1]``; window ``w_t(z)`` stacks
``z[t:t+p]`` with ``z[m+t:m+t+p]`` for ``t = 0..m-p``, so older samples are
down-weighted by the forgetting rate ``xi``.

``feature_gaussian`` ships with the identity feature map only; any
replacement feature map must be norm non-expanding (``|G(a)| <= |a|``),
which the identity satisfies with equality.

Each structure writes its value once, in ``from_terms``, over
:class:`PairTerms`, the ``eta``-independent pair geometry of two point sets
(inner products, squared distances, distances, ``narx_fading`` window
sums), each computed on first use and then kept.  Over the terms of all
pairs ``(A[i], B[j])`` it yields Gram and cross matrices; over the
row-paired terms of ``(A[i], B[i])`` it yields row pairs, and with
``B = A`` diagonals, so ``k(a, a)`` and the squared kernel metric come from
the same formula as the matrices.  A caller that evaluates many ``eta`` on
one point set keeps one ``PairTerms`` and pays for the geometry once; only
the ``eta``-dependent ``exp``/``sqrt`` work is redone per evaluation.

Each structure class is also the one place that knows its stability rules:
the closed-form membership of ``eta`` in its growth and incremental
viability sets, the condition parameters ``(nu, s)`` its proofs exhibit, the
feasible parameterizations of those sets, a data-driven search start, and
its config fields (see :class:`KernelStructure` for the rule methods).
:mod:`stable_sysid.viability` and :mod:`stable_sysid.selection` validate
inputs and dispatch to these methods; a new structure is one new class.

All evaluation routines are pure functions of immutable inputs and safe to
share across workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InfeasibleTargetError, InputError, UnsupportedTargetError

__all__ = [
    "KernelStructure",
    "LinearAffine",
    "Polynomial",
    "Gaussian",
    "Matern32",
    "NarxFading",
    "FeatureGaussian",
    "SumKernel",
    "ProductWithStationary",
    "KernelInstance",
    "PairTerms",
    "FeasibleParameterization",
    "gaussian_delta_boundary",
    "eval_kernel",
    "eval_pairs",
    "eval_matrix",
    "squared_kernel_metric",
    "metric_pairs",
    "gram_matrix",
    "gram_from_terms",
    "lambert_w0",
    "structure_to_config",
    "structure_from_config",
    "kernel_to_config",
    "kernel_from_config",
]

_INV_E = math.exp(-1.0)
INF = math.inf
# undershoot below -1/e that lambert_w0 still reads as -1/e, not a domain error
LAMBERT_DOMAIN_TOL = 1e-12


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Solves ``w * exp(w) = x`` for ``w >= -1``, defined for ``x >= -1/e``.
    Halley iteration from ``log(1 + x)`` for ``x >= 0``, from a branch-point
    series for ``x`` near ``-1/e``, and from a small-argument start
    otherwise.

    Parameters
    ----------
    x : float
        Argument, must satisfy ``x >= -1/e`` up to ``LAMBERT_DOMAIN_TOL``.

    Returns
    -------
    float
        ``w`` with residual ``|w exp(w) - x| <= 1e-12 * max(1, |x|)``.
    """
    if not math.isfinite(x):
        raise InputError(f"lambert_w0 requires a finite argument, got {x!r}")
    if x < -_INV_E - LAMBERT_DOMAIN_TOL:
        raise InputError(
            f"lambert_w0 domain is [-1/e, inf); got x = {x!r} < {-_INV_E!r}"
        )
    x = max(x, -_INV_E)
    if x == -_INV_E:
        return -1.0
    if x == 0.0:
        return 0.0

    if x < -_INV_E + 1e-2:
        # series around the branch point, p = sqrt(2 (e x + 1))
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif x < 0.0:
        w = x * (1.0 - x)  # two-term Taylor start, exact enough to converge
    else:
        w = math.log1p(x)

    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        # Halley step: f' = e^w (w + 1), f'' = e^w (w + 2)
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        if denom == 0.0:
            break
        step = f / denom
        w -= step
        if w < -1.0:
            w = -1.0 + 1e-16
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return max(w, -1.0)


# ---------------------------------------------------------------------------
# pairwise distance helpers
# ---------------------------------------------------------------------------

def _sq_dist_pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = A - B
    return np.einsum("ij,ij->i", d, d)


def _sq_dist_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (a - b)^2 expanded per coordinate keeps exact symmetry when A is B
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _window_sums(sq_by_coord: list, m: int, p: int) -> list:
    """Sum of per-coordinate squared differences over each lag window."""
    out = []
    for t in range(m - p + 1):
        acc = sq_by_coord[t].copy()
        for c in range(t + 1, t + p):
            acc += sq_by_coord[c]
        for c in range(m + t, m + t + p):
            acc += sq_by_coord[c]
        out.append(acc)
    return out


class PairTerms:
    """The ``eta``-independent pair geometry of the rows of ``A`` and ``B``.

    Every term is computed on first use and kept, so one instance serves
    any number of hyperparameter vectors.  The arrays are shared: kernel
    assembly reads them and never writes to them.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self._windows = {}

    @cached_property
    def inner(self) -> np.ndarray:
        """``A[i] . B[j]``."""
        return self.A @ self.B.T

    @cached_property
    def sq(self) -> np.ndarray:
        """``|A[i] - B[j]|^2``."""
        return _sq_dist_matrix(self.A, self.B)

    @cached_property
    def dist(self) -> np.ndarray:
        """``|A[i] - B[j]|``."""
        return np.sqrt(self.sq)

    def window_sq(self, m: int, p: int) -> list:
        """``narx_fading`` window sums ``|w_t(A[i] - B[j])|^2``, t = 0..m-p."""
        key = (m, p)
        if key not in self._windows:
            self._windows[key] = _window_sums(self._coord_sq(), m, p)
        return self._windows[key]

    def _coord_sq(self) -> list:
        A, B = self.A, self.B
        return [(A[:, c, None] - B[None, :, c]) ** 2 for c in range(A.shape[1])]


class _RowTerms(PairTerms):
    """The pair geometry of ``A[i]`` against ``B[i]`` only: every term is a
    length-n vector, so a structure's ``from_terms`` yields the row pairs
    ``k_eta(A[i], B[i])`` by the same formula that builds its matrices."""

    @cached_property
    def inner(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.A, self.B)

    @cached_property
    def sq(self) -> np.ndarray:
        return _sq_dist_pairs(self.A, self.B)

    def _coord_sq(self) -> list:
        A, B = self.A, self.B
        return [(A[:, c] - B[:, c]) ** 2 for c in range(A.shape[1])]


def _gauss(tau, gamma, sigma, sq: np.ndarray) -> np.ndarray:
    """``tau exp(-gamma sq) + sigma``, assembled in one fresh array."""
    K = np.multiply(-gamma, sq, dtype=float)
    np.exp(K, out=K)
    K *= tau
    K += sigma
    return K


# ---------------------------------------------------------------------------
# feasible parameterizations: building blocks
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


def _split_mass(total: float, frac: float) -> tuple:
    return total * frac, total * (1.0 - frac)


def _stacked(params: list, u: np.ndarray) -> tuple:
    """Concatenated images of consecutive slices of ``u``, one per map."""
    parts, offset = [], 0
    for param in params:
        parts.extend(param.to_eta(u[offset:offset + param.dim]))
        offset += param.dim
    return tuple(parts)


def _stacked_parameterization(params: list, description: str) -> FeasibleParameterization:
    def to_eta(u):
        return _stacked(params, np.asarray(u, dtype=float))

    return FeasibleParameterization(sum(p.dim for p in params), to_eta, description)


def _unit_mass_parameterization() -> FeasibleParameterization:
    """``(tau, gamma, sigma)`` with ``tau + sigma`` in (0, 1), gamma free."""
    def to_eta(u):
        tau, sigma = _split_mass(_unit(u[0]), _unit(u[2]))
        return (tau, _pos(u[1]), sigma)

    return FeasibleParameterization(3, to_eta, "tau + sigma in (0, 1), gamma free")


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


_NO_STATIONARY_ISS = (
    "stationary-kernel rule: k(a, a) is the constant zero-lag value, so the "
    "zero-threshold growth condition k(a, a) <= |a|^2 fails near the origin "
    "for every nontrivial hyperparameter choice"
)
_NARX_GROWTH_RHO = "narx_fading growth viability is implemented for rho in {0, inf} only"


def _unbounded_metric(structure, eta, rho) -> bool:
    """The incremental rule of structures whose kernel metric is unbounded."""
    raise UnsupportedTargetError(
        f"no incremental viability rule is available for {structure.name!r}; "
        "its squared kernel metric grows without bound along fixed separations"
    )


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

class KernelStructure:
    """Base class for kernel structures.

    A structure declares ``name`` and ``eta_names``, from which ``arity``,
    ``validate_eta`` (every entry finite and ``>= 0``) and the ``exp(u)``
    unconstrained map derive, and implements one evaluation path,
    ``from_terms``; the generic ``diag_values`` and the module's row-pair
    functions evaluate it on row-paired terms.  It is also the one
    place that knows its stability rules.  A structure implements the rules
    it supports; the base defaults raise :class:`UnsupportedTargetError`
    naming the structure, except where a default is given:

    * ``theta_member(eta, rho)``, ``delta_member(eta, rho)``: closed-form
      membership of a validated float ``eta`` in the growth / incremental
      viability set at a checked ``rho`` ("no growth / incremental
      viability rule").
    * ``theta_claim(eta)``, ``delta_claim(eta)``: the ``(nu, s)`` the proofs
      exhibit for an accepted ``eta``, which the falsifier checks ("no
      claimed growth / incremental condition parameters").
    * ``unconstrained_parameterization()`` (default: ``exp(u)`` per entry),
      ``theta_parameterization(rho)`` ("no growth parameterization"),
      ``delta_parameterization(rho)`` ("no incremental viability rule is
      available") and, for the stationary right factor of a product,
      ``peak_le_one_parameterization()`` ("no unit-peak parameterization").
    * ``suggest_eta(stats)`` (default ``()``) and, as a right factor,
      ``factor_suggest_eta(stats)`` (default ``suggest_eta``): the search
      start from the data statistics of :mod:`stable_sysid.selection`.

    The public functions of :mod:`stable_sysid.viability` validate their
    inputs and dispatch to these rules.
    """

    name: str = ""
    is_stationary: bool = False
    eta_names: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.eta_names)

    def validate_eta(self, eta: tuple) -> None:
        if len(eta) != self.arity:
            raise InputError(f"{self.name} expects eta = ({', '.join(self.eta_names)}), got {eta!r}")
        for value, name in zip(eta, self.eta_names):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise InputError(f"hyperparameter {name} must be finite, got {value!r}")
            if value < 0:
                raise InputError(f"hyperparameter {name} must be >= 0, got {value!r}")

    def from_terms(self, eta: tuple, terms: PairTerms) -> np.ndarray:
        """Matrix with entries k_eta(terms.A[i], terms.B[j]), or the vector
        k_eta(terms.A[i], terms.B[i]) for row terms: the one place the
        structure's value is written.

        The result is a fresh array that the caller may modify; the
        cached terms themselves are never returned or written.
        """
        raise NotImplementedError

    def cross_matrix(self, eta: tuple, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix with entries k_eta(A[i], B[j])."""
        return self.from_terms(eta, PairTerms(A, B))

    def diag_values(self, eta: tuple, A: np.ndarray) -> np.ndarray:
        """k_eta(A[i], A[i]) for each row i."""
        return self.from_terms(eta, _RowTerms(A, A))

    def stationary_peak(self, eta: tuple) -> float:
        """Closed-form value of the stationary profile at zero lag
        (stationary kernels), the ``k(a, a)`` the rules reason with."""
        raise InputError(f"kernel structure {self.name!r} is not stationary")

    def check_dim(self, input_dim: int) -> None:
        """Hook for structures that constrain the ambient dimension."""

    # stability rules ---------------------------------------------------------
    def theta_member(self, eta: tuple, rho: float) -> bool:
        raise UnsupportedTargetError(f"no growth viability rule for structure {self.name!r}")

    def delta_member(self, eta: tuple, rho: float) -> bool:
        raise UnsupportedTargetError(f"no incremental viability rule for structure {self.name!r}")

    def theta_claim(self, eta: tuple) -> tuple:
        raise UnsupportedTargetError(f"no claimed growth condition parameters for {self.name!r}")

    def delta_claim(self, eta: tuple) -> tuple:
        raise UnsupportedTargetError(f"no claimed incremental condition parameters for {self.name!r}")

    def unconstrained_parameterization(self) -> FeasibleParameterization:
        n = self.arity
        return FeasibleParameterization(
            n, lambda u: tuple(_pos(u[i]) for i in range(n)), f"{', '.join(self.eta_names)} = exp(u)"
        )

    def theta_parameterization(self, rho: float) -> FeasibleParameterization:
        raise UnsupportedTargetError(f"no growth parameterization for structure {self.name!r}")

    def delta_parameterization(self, rho: float) -> FeasibleParameterization:
        raise UnsupportedTargetError(f"no incremental viability rule is available for {self.name!r}")

    def peak_le_one_parameterization(self) -> FeasibleParameterization:
        """Stationary hyperparameters with zero-lag value at most 1."""
        raise UnsupportedTargetError(
            f"no unit-peak parameterization for stationary factor {self.name!r}"
        )

    def suggest_eta(self, stats: dict) -> tuple:
        """Rule-of-thumb start: amplitude tracks the target variance
        ``var_y``, inverse squared lengthscale the median pairwise squared
        distance ``med_sq``, inner-product kernels scale by ``mean_zz``."""
        return ()

    def factor_suggest_eta(self, stats: dict) -> tuple:
        return self.suggest_eta(stats)


@dataclass(frozen=True)
class LinearAffine(KernelStructure):
    name = "linear_affine"
    eta_names = ("tau", "sigma")

    def from_terms(self, eta, terms):
        tau, sigma = eta
        return tau * terms.inner + sigma

    def theta_member(self, eta, rho):
        tau, sigma = eta
        if tau > 1.0:
            return False
        if tau == 1.0:
            return sigma == 0.0
        if rho == INF:
            return True
        return sigma <= rho * (1.0 - tau)

    def delta_member(self, eta, rho):
        return eta[0] <= 1.0

    def theta_claim(self, eta):
        tau, sigma = eta
        if tau == 1.0:
            return 0.0, sigma
        nu = sigma / (1.0 - tau)
        return nu, tau * nu + sigma

    def delta_claim(self, eta):
        return 0.0, 0.0

    def theta_parameterization(self, rho):
        if rho == 0.0:
            return FeasibleParameterization(
                1, lambda u: (_unit(u[0]), 0.0), "tau in (0, 1), sigma = 0"
            )
        if rho == INF:
            return self.delta_parameterization(rho)

        def to_eta(u):
            tau = _unit(u[0])
            return (tau, _unit(u[1]) * rho * (1.0 - tau))

        return FeasibleParameterization(2, to_eta, "tau in (0, 1), sigma < rho (1 - tau)")

    def delta_parameterization(self, rho):
        return FeasibleParameterization(
            2, lambda u: (_unit(u[0]), _pos(u[1])), "tau in (0, 1), sigma free"
        )

    def suggest_eta(self, stats):
        vy = stats["var_y"]
        return (vy / stats["mean_zz"], vy / 10.0)


@dataclass(frozen=True)
class Polynomial(KernelStructure):
    """Homogeneous polynomial kernel (a.b)^degree with integer degree >= 2.

    The degree is the single hyperparameter of the family; it is carried on
    the structure, so eta is empty.
    """

    degree: int = 2
    name = "polynomial"

    def __post_init__(self):
        _config_fields(self, ints={"degree": 2})

    def validate_eta(self, eta):
        if len(eta) != 0:
            raise InputError(f"polynomial carries its degree on the structure; eta must be empty, got {eta!r}")

    def from_terms(self, eta, terms):
        return terms.inner ** self.degree

    def theta_member(self, eta, rho):
        return False

    delta_member = theta_member

    def unconstrained_parameterization(self):
        return FeasibleParameterization(0, lambda u: (), "degree fixed on the structure")

    def theta_parameterization(self, rho):
        raise InfeasibleTargetError(
            "polynomial rule: a degree >= 2 kernel grows faster than |a|^2, so its "
            "viability sets are empty for every rho"
        )

    delta_parameterization = theta_parameterization


def _peak_claim(structure, eta) -> tuple:
    """``nu = s`` = the zero-lag value, which a stationary ``k(a, a)`` equals."""
    peak = structure.stationary_peak(eta)
    return peak, peak


def _stationary_delta_claim(structure, eta) -> tuple:
    """``nu = 0`` on the exact rho = 0 set, else four times the zero-lag value."""
    peak = structure.stationary_peak(eta)
    nu = 0.0 if structure.delta_member(eta, 0.0) else 4.0 * peak
    return nu, 4.0 * peak


class _StationaryProfile(KernelStructure):
    """Shared base of ``tau profile(gamma, |a - b|) + sigma`` kernels with a
    unit profile at zero lag (gaussian, matern32): ``eta = (tau, gamma,
    sigma)``, zero-lag value ``tau + sigma``, and the growth rule
    ``tau + sigma <= rho``."""

    is_stationary = True
    eta_names = ("tau", "gamma", "sigma")

    def stationary_peak(self, eta):
        tau, _, sigma = eta
        return tau + sigma

    def theta_member(self, eta, rho):
        tau, _, sigma = eta
        return tau + sigma <= rho

    theta_claim = _peak_claim

    def theta_parameterization(self, rho):
        if rho == 0.0:
            raise InfeasibleTargetError(_NO_STATIONARY_ISS)
        if rho == INF:
            return self.unconstrained_parameterization()

        def to_eta(u):
            tau, sigma = _split_mass(rho * _unit(u[0]), _unit(u[2]))
            return (tau, _pos(u[1]), sigma)

        return FeasibleParameterization(3, to_eta, "tau + sigma in (0, rho), gamma free")

    def peak_le_one_parameterization(self):
        return _unit_mass_parameterization()

    def suggest_eta(self, stats):
        vy = stats["var_y"]
        return (vy, 1.0 / stats["med_sq"], vy / 10.0)

    def factor_suggest_eta(self, stats):
        return (0.5, 1.0 / stats["med_sq"], 0.25)


@dataclass(frozen=True)
class Gaussian(_StationaryProfile):
    name = "gaussian"

    def from_terms(self, eta, terms):
        return _gauss(*eta, terms.sq)

    def delta_member(self, eta, rho):
        tau, gamma, _ = eta
        if rho == INF:
            return True
        if 2.0 * tau * gamma <= 1.0:
            return True
        if rho == 0.0:
            return False
        return gaussian_delta_boundary(tau, gamma) <= rho

    def delta_claim(self, eta):
        tau, gamma, _ = eta
        return gaussian_delta_boundary(tau, gamma), 4.0 * self.stationary_peak(eta)

    def delta_parameterization(self, rho):
        if rho == INF:
            return self.unconstrained_parameterization()
        if rho == 0.0:
            def to_eta(u):
                gamma = _pos(u[0])
                return (_unit(u[1]) / (2.0 * gamma), gamma, _pos(u[2]))

            return FeasibleParameterization(3, to_eta, "2 tau gamma in (0, 1), sigma free")

        def to_eta(u):
            gamma = _pos(u[0])
            tau_max = rho / (2.0 * -math.expm1(-min(gamma * rho, 690.0)))
            return (_unit(u[1]) * tau_max, gamma, _pos(u[2]))

        return FeasibleParameterization(
            3, to_eta, "tau below the finite-rho incremental boundary, sigma free"
        )


@dataclass(frozen=True)
class Matern32(_StationaryProfile):
    name = "matern32"

    @staticmethod
    def _profile(tau, gamma, sigma, dist):
        r = math.sqrt(3.0) * gamma * dist
        return tau * (1.0 + r) * np.exp(-r) + sigma

    def from_terms(self, eta, terms):
        return self._profile(*eta, terms.dist)

    def delta_member(self, eta, rho):
        tau, gamma, sigma = eta
        if rho == INF:
            return True
        exact_zero = 3.0 * tau * gamma ** 2 <= 1.0
        if rho == 0.0:
            return exact_zero
        return exact_zero or 4.0 * (tau + sigma) <= rho

    delta_claim = _stationary_delta_claim

    def delta_parameterization(self, rho):
        if rho == INF:
            return self.unconstrained_parameterization()

        def to_eta(u):
            gamma = _pos(u[0])
            return (_unit(u[1]) / (3.0 * gamma ** 2), gamma, _pos(u[2]))

        return FeasibleParameterization(3, to_eta, "3 tau gamma^2 in (0, 1), sigma free")


@dataclass(frozen=True)
class NarxFading(KernelStructure):
    """Fading-memory kernel on lag windows of the regressor difference.

    ``model_order`` is the number of past outputs in the regressor and
    ``window`` the sliding-window width ``p`` in ``{1, ..., model_order}``.
    """

    model_order: int
    window: int
    name = "narx_fading"
    is_stationary = True
    eta_names = ("tau", "gamma", "xi")

    def __post_init__(self):
        _config_fields(self, ints={"model_order": 1, "window": None})
        m, p = self.model_order, self.window
        if not 1 <= p <= m:
            raise InputError(f"narx_fading window must lie in [1, {m}], got {p}")

    def check_dim(self, input_dim):
        if input_dim != 2 * self.model_order + 1:
            raise InputError(
                f"narx_fading with model_order {self.model_order} needs input_dim "
                f"{2 * self.model_order + 1}, got {input_dim}"
            )

    @staticmethod
    def _accumulate(eta, windows):
        tau, gamma, xi = eta
        total = None
        for t, sq in enumerate(windows):
            term = np.exp(-xi * t - gamma * sq)
            total = term if total is None else total + term
        return tau * total

    def from_terms(self, eta, terms):
        return self._accumulate(eta, terms.window_sq(self.model_order, self.window))

    def stationary_peak(self, eta):
        tau, _, xi = eta
        return tau * lag_weight_sum(xi, self.window, self.model_order)

    def theta_member(self, eta, rho):
        if rho == 0.0:
            return eta[0] == 0.0
        if rho == INF:
            return True
        raise UnsupportedTargetError(_NARX_GROWTH_RHO)

    def delta_member(self, eta, rho):
        tau, gamma, xi = eta
        pi = lag_weight_sum(xi, self.window, self.model_order)
        if rho == INF:
            return True
        exact_zero = 2.0 * gamma * tau * pi <= 1.0
        if rho == 0.0:
            return exact_zero
        return exact_zero or 4.0 * tau * pi <= rho

    theta_claim = _peak_claim
    delta_claim = _stationary_delta_claim

    def theta_parameterization(self, rho):
        if rho == 0.0:
            raise InfeasibleTargetError(_NO_STATIONARY_ISS)
        if rho == INF:
            return self.unconstrained_parameterization()
        raise UnsupportedTargetError(_NARX_GROWTH_RHO)

    def delta_parameterization(self, rho):
        if rho == INF:
            return self.unconstrained_parameterization()

        def to_eta(u):
            gamma, xi = _pos(u[0]), _pos(u[1])
            pi = lag_weight_sum(xi, self.window, self.model_order)
            return (_unit(u[2]) / (2.0 * gamma * pi), gamma, xi)

        return FeasibleParameterization(
            3, to_eta, "2 tau gamma * lag weight sum in (0, 1)"
        )

    def peak_le_one_parameterization(self):
        def to_eta(u):
            gamma, xi = _pos(u[0]), _pos(u[1])
            pi = lag_weight_sum(xi, self.window, self.model_order)
            return (_unit(u[2]) / pi, gamma, xi)

        return FeasibleParameterization(3, to_eta, "tau * lag weight sum in (0, 1)")

    def suggest_eta(self, stats):
        return (stats["var_y"], 1.0 / stats["med_sq"], 1.0)


def lag_weight_sum(xi: float, p: int, m: int) -> float:
    """sum_{t=0}^{m-p} exp(-xi t): number of windows at xi = 0, and the
    geometric partial sum (1 - e^{-(m-p+1) xi}) / (1 - e^{-xi}) for xi > 0."""
    if xi < 0:
        raise InputError(f"forgetting rate must be >= 0, got {xi!r}")
    n_windows = m - p + 1
    if xi == 0.0:
        return float(n_windows)
    return math.expm1(-n_windows * xi) / math.expm1(-xi)


@dataclass(frozen=True)
class FeatureGaussian(KernelStructure):
    """Inner product of the (identity) feature map times a Gaussian factor:
    ``a.b (tau exp(-gamma |a-b|^2) + sigma)``.  Unlike the plain Gaussian
    this kernel vanishes at the origin, which is what makes it usable for
    targets that pin the predictor to zero at zero."""

    name = "feature_gaussian"
    eta_names = ("tau", "gamma", "sigma")

    def from_terms(self, eta, terms):
        K = _gauss(*eta, terms.sq)
        K *= terms.inner
        return K

    def theta_member(self, eta, rho):
        tau, _, sigma = eta
        return tau + sigma <= 1.0

    delta_member = _unbounded_metric

    def theta_claim(self, eta):
        return 0.0, 0.0

    def theta_parameterization(self, rho):
        return _unit_mass_parameterization()

    def suggest_eta(self, stats):
        vy, mzz = stats["var_y"], stats["mean_zz"]
        return (vy / mzz, 1.0 / stats["med_sq"], vy / (10.0 * mzz))


@dataclass(frozen=True)
class SumKernel(KernelStructure):
    """Weighted sum of child kernels.  eta is the concatenation of the
    strictly positive weights (one per child) and the children's etas."""

    children: tuple
    name = "sum"

    def __post_init__(self):
        if len(self.children) < 1:
            raise InputError("sum kernel needs at least one child structure")
        for child in self.children:
            if not isinstance(child, KernelStructure):
                raise InputError(f"sum child is not a kernel structure: {child!r}")

    @property
    def is_stationary(self) -> bool:  # type: ignore[override]
        return all(c.is_stationary for c in self.children)

    @property
    def arity(self) -> int:
        return len(self.children) + sum(c.arity for c in self.children)

    def split_eta(self, eta):
        q = len(self.children)
        weights = tuple(eta[:q])
        parts = []
        offset = q
        for child in self.children:
            parts.append(tuple(eta[offset:offset + child.arity]))
            offset += child.arity
        return weights, parts

    def validate_eta(self, eta):
        if len(eta) != self.arity:
            raise InputError(
                f"sum kernel expects {self.arity} hyperparameters "
                f"({len(self.children)} weights + children), got {len(eta)}"
            )
        weights, parts = self.split_eta(eta)
        for w in weights:
            if not (isinstance(w, (int, float)) and math.isfinite(w)) or w <= 0:
                raise InputError(f"sum kernel weights must be finite and > 0, got {w!r}")
        for child, part in zip(self.children, parts):
            child.validate_eta(part)

    def from_terms(self, eta, terms):
        weights, parts = self.split_eta(eta)
        total = None
        for w, child, part in zip(weights, self.children, parts):
            term = w * child.from_terms(part, terms)
            total = term if total is None else total + term
        return total

    def stationary_peak(self, eta):
        if not self.is_stationary:
            raise InputError("sum kernel is stationary only if all children are")
        weights, parts = self.split_eta(eta)
        return sum(w * c.stationary_peak(p) for w, c, p in zip(weights, self.children, parts))

    def check_dim(self, input_dim):
        for child in self.children:
            child.check_dim(input_dim)

    # a sum is viable when its weights sum to at most 1 and every child is
    def _children_member(self, eta, rule, rho):
        weights, parts = self.split_eta(eta)
        if sum(weights) > 1.0:
            return False
        return all(getattr(c, rule)(p, rho) for c, p in zip(self.children, parts))

    def theta_member(self, eta, rho):
        return self._children_member(eta, "theta_member", rho)

    def delta_member(self, eta, rho):
        return self._children_member(eta, "delta_member", rho)

    def _children_claim(self, eta, rule):
        _, parts = self.split_eta(eta)
        pairs = [getattr(c, rule)(p) for c, p in zip(self.children, parts)]
        nu = max(n for n, _ in pairs)
        s = max(max(n, s) for n, s in pairs)
        return nu, s

    def theta_claim(self, eta):
        return self._children_claim(eta, "theta_claim")

    def delta_claim(self, eta):
        return self._children_claim(eta, "delta_claim")

    def unconstrained_parameterization(self):
        children = [c.unconstrained_parameterization() for c in self.children]
        q = len(self.children)

        def to_eta(u):
            u = np.asarray(u, dtype=float)
            weights = tuple(_pos(v) for v in u[:q])
            return weights + _stacked(children, u[q:])

        dim = q + sum(cp.dim for cp in children)
        return FeasibleParameterization(dim, to_eta, "weights = exp(u); children unconstrained")

    def _weighted_parameterization(self, children):
        q = len(self.children)

        def to_eta(u):
            u = np.asarray(u, dtype=float)
            mass = _unit(u[0])
            weights = tuple(mass * _softmax(u[1:1 + q]))
            return weights + _stacked(children, u[1 + q:])

        dim = 1 + q + sum(cp.dim for cp in children)
        return FeasibleParameterization(
            dim, to_eta, "weights sum below 1; children in their own viability sets"
        )

    def theta_parameterization(self, rho):
        return self._weighted_parameterization([c.theta_parameterization(rho) for c in self.children])

    def delta_parameterization(self, rho):
        return self._weighted_parameterization([c.delta_parameterization(rho) for c in self.children])

    def suggest_eta(self, stats):
        q = len(self.children)
        weights = (1.0 / (2.0 * q),) * q
        parts = []
        for child in self.children:
            parts.extend(child.suggest_eta(stats))
        return weights + tuple(parts)


@dataclass(frozen=True)
class ProductWithStationary(KernelStructure):
    """Pointwise product of an arbitrary left kernel with a stationary right
    kernel.  eta is the concatenation (eta_left, eta_right)."""

    left: KernelStructure
    right: KernelStructure
    name = "product_stationary"

    def __post_init__(self):
        if not isinstance(self.left, KernelStructure) or not isinstance(self.right, KernelStructure):
            raise InputError("product_stationary needs two kernel structures")
        if not self.right.is_stationary:
            raise InputError(
                f"product_stationary right factor must be stationary, got {self.right.name!r}"
            )

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def split_eta(self, eta):
        na = self.left.arity
        return tuple(eta[:na]), tuple(eta[na:])

    def validate_eta(self, eta):
        if len(eta) != self.arity:
            raise InputError(
                f"product_stationary expects {self.arity} hyperparameters, got {len(eta)}"
            )
        eta_l, eta_r = self.split_eta(eta)
        self.left.validate_eta(eta_l)
        self.right.validate_eta(eta_r)

    def from_terms(self, eta, terms):
        eta_l, eta_r = self.split_eta(eta)
        return self.left.from_terms(eta_l, terms) * self.right.from_terms(eta_r, terms)

    def check_dim(self, input_dim):
        self.left.check_dim(input_dim)
        self.right.check_dim(input_dim)

    def theta_member(self, eta, rho):
        eta_l, eta_r = self.split_eta(eta)
        if self.right.stationary_peak(eta_r) > 1.0:
            return False
        return self.left.theta_member(eta_l, rho)

    delta_member = _unbounded_metric

    def theta_claim(self, eta):
        eta_l, eta_r = self.split_eta(eta)
        nu_l, s_l = self.left.theta_claim(eta_l)
        return nu_l, s_l * self.right.stationary_peak(eta_r)

    def unconstrained_parameterization(self):
        return _stacked_parameterization(
            [self.left.unconstrained_parameterization(), self.right.unconstrained_parameterization()],
            "factors unconstrained",
        )

    def theta_parameterization(self, rho):
        return _stacked_parameterization(
            [self.left.theta_parameterization(rho), self.right.peak_le_one_parameterization()],
            "left viable at rho; right peak <= 1",
        )

    def suggest_eta(self, stats):
        return tuple(self.left.suggest_eta(stats)) + tuple(self.right.factor_suggest_eta(stats))


# ---------------------------------------------------------------------------
# kernel instances and evaluation entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelInstance:
    """A kernel structure paired with a validated hyperparameter vector.

    ``input_dim`` is the ambient dimension ``2m + 1``; it must be odd and at
    least 3.  Instances are immutable and hashable.
    """

    structure: KernelStructure
    eta: tuple
    input_dim: int

    def __post_init__(self):
        if not isinstance(self.structure, KernelStructure):
            raise InputError(f"not a kernel structure: {self.structure!r}")
        _config_fields(self, ints={"input_dim": None})
        if self.input_dim < 3 or self.input_dim % 2 == 0:
            raise InputError(
                f"input_dim must be odd and >= 3 (2m + 1 with m >= 1), got {self.input_dim}"
            )
        try:
            eta = tuple(_config_real(v, "eta entry") for v in self.eta)
        except (TypeError, InputError) as exc:
            raise InputError(f"eta must be a sequence of numbers with finite values, got {self.eta!r}") from exc
        object.__setattr__(self, "eta", eta)
        self.structure.validate_eta(self.eta)
        self.structure.check_dim(self.input_dim)


def _as_rows(x, input_dim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise InputError(
            f"{what} must have dimension {input_dim}, got shape {np.asarray(x).shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} contains non-finite entries")
    return arr


def eval_kernel(kernel: KernelInstance, a, b) -> float:
    """Evaluate ``k_eta(a, b)`` for two vectors of dimension ``input_dim``."""
    A = _as_rows(a, kernel.input_dim, "a")
    B = _as_rows(b, kernel.input_dim, "b")
    if A.shape[0] != 1 or B.shape[0] != 1:
        raise InputError("eval_kernel takes single vectors; use eval_pairs/eval_matrix for batches")
    return float(kernel.structure.from_terms(kernel.eta, _RowTerms(A, B))[0])


def eval_pairs(kernel: KernelInstance, A, B) -> np.ndarray:
    """Rowwise evaluation ``k_eta(A[i], B[i])``: the structure's
    ``from_terms`` on row-paired terms, the formula that also builds
    :func:`eval_matrix`, whose diagonal it matches up to summation
    rounding."""
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    if A.shape[0] != B.shape[0]:
        raise InputError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    return kernel.structure.from_terms(kernel.eta, _RowTerms(A, B))


def eval_matrix(kernel: KernelInstance, A, B) -> np.ndarray:
    """Cross-kernel matrix with entries ``k_eta(A[i], B[j])``."""
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    return kernel.structure.cross_matrix(kernel.eta, A, B)


def squared_kernel_metric(kernel: KernelInstance, a, b) -> float:
    """Squared kernel metric ``h(a, b) = k(a, a) - 2 k(a, b) + k(b, b)``,
    the squared distance between the canonical feature images of a and b."""
    h = metric_pairs(kernel, a, b)
    if h.shape != (1,):
        raise InputError("squared_kernel_metric takes single vectors; use metric_pairs for batches")
    return float(h[0])


def metric_pairs(kernel: KernelInstance, A, B) -> np.ndarray:
    """Rowwise squared kernel metric ``h(A[i], B[i])``.

    All three terms come from the structure's ``from_terms`` on row-paired
    terms, so ``h(a, a)`` is exactly 0 for every structure."""
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    if A.shape[0] != B.shape[0]:
        raise InputError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    s = kernel.structure
    return s.diag_values(kernel.eta, A) - 2.0 * s.from_terms(kernel.eta, _RowTerms(A, B)) \
        + s.diag_values(kernel.eta, B)


def gram_matrix(kernel: KernelInstance, points) -> np.ndarray:
    """Symmetric Gram matrix over a nonempty list of points.

    The result is symmetrized exactly; positive semidefiniteness (up to a
    1e-10 relative spectral tolerance) is enforced where the matrix is
    factorized, in the solver and cost routines.
    """
    P = _as_rows(points, kernel.input_dim, "points")
    if P.shape[0] < 1:
        raise InputError("gram_matrix needs at least one point")
    return gram_from_terms(kernel, PairTerms(P, P))


def gram_from_terms(kernel: KernelInstance, terms: PairTerms) -> np.ndarray:
    """Symmetric Gram matrix from the pair terms of a point set with itself.

    The same arithmetic as :func:`gram_matrix`; a caller that keeps
    ``terms`` across hyperparameters pays for the pair geometry once.
    """
    K = kernel.structure.from_terms(kernel.eta, terms)
    K += K.T
    K *= 0.5
    return K


# ---------------------------------------------------------------------------
# config round-trip
# ---------------------------------------------------------------------------

_STRUCTURES = {
    cls.name: cls
    for cls in (
        LinearAffine, Polynomial, Gaussian, Matern32, NarxFading, FeatureGaussian,
        SumKernel, ProductWithStationary,
    )
}


def structure_to_config(structure: KernelStructure) -> dict:
    """Serialize a structure to a plain dict (JSON-compatible): its name and
    its fields, with child structures serialized in turn."""
    if _STRUCTURES.get(getattr(structure, "name", None)) is not type(structure):
        raise InputError(f"cannot serialize kernel structure {structure!r}")
    cfg = {"structure": structure.name}
    for f in fields(structure):
        value = getattr(structure, f.name)
        if isinstance(value, KernelStructure):
            value = structure_to_config(value)
        elif isinstance(value, tuple):
            value = [structure_to_config(c) for c in value]
        cfg[f.name] = value
    return cfg


def structure_from_config(cfg: dict) -> KernelStructure:
    """Parse a structure config produced by :func:`structure_to_config`.

    Unknown keys are rejected so that typos fail loudly; a field without a
    default on the structure is required.  The structure validates its own
    counts: 2 and 2.0 pass, 2.7, ``"2"`` and ``true`` raise.
    """
    if not isinstance(cfg, dict) or "structure" not in cfg:
        raise InputError(f"kernel structure config must be a dict with a 'structure' key, got {cfg!r}")
    name = cfg["structure"]
    cls = _STRUCTURES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise InputError(f"unknown kernel structure {name!r}")
    cls_fields = fields(cls)
    _reject_unknown(cfg, {"structure"} | {f.name for f in cls_fields}, f"{name} config")
    missing = [f.name for f in cls_fields if f.default is MISSING and f.name not in cfg]
    if missing:
        raise InputError(f"{name} config needs {' and '.join(map(repr, missing))}")
    # child structures, keyed by the field annotation (a string under
    # postponed evaluation); the structure checks its other fields itself
    parse = {
        "KernelStructure": lambda value, what: structure_from_config(value),
        "tuple": _config_children,
    }
    return cls(**{
        f.name: parse[f.type](cfg[f.name], f"{name} {f.name}") if f.type in parse else cfg[f.name]
        for f in cls_fields if f.name in cfg
    })


def kernel_to_config(kernel: KernelInstance) -> dict:
    """Serialize a kernel to its block: the structure's config plus ``eta``
    and ``input_dim``."""
    return {**structure_to_config(kernel.structure), "eta": list(kernel.eta), "input_dim": kernel.input_dim}


def kernel_from_config(cfg: dict) -> KernelInstance:
    """Parse a kernel block produced by :func:`kernel_to_config`.

    ``eta`` and ``input_dim`` are required; :class:`KernelInstance` checks
    them, the eta entries as real values and ``input_dim`` as a count.
    """
    structure = structure_from_config(_structure_block(cfg))
    if "eta" not in cfg or "input_dim" not in cfg:
        raise InputError("kernel block needs 'eta' and 'input_dim'")
    return KernelInstance(structure, cfg["eta"], cfg["input_dim"])


def _structure_block(cfg: dict) -> dict:
    """A kernel block without its instance keys ``eta`` and ``input_dim``."""
    if not isinstance(cfg, dict):
        raise InputError(f"kernel block must be a JSON object, got {cfg!r}")
    return {key: value for key, value in cfg.items() if key not in ("eta", "input_dim")}


def _config_int(value, what: str, minimum: int | None = None) -> int:
    """A config count: integers (numpy ones too) and integral floats pass;
    2.7, ``"2"`` and ``True`` raise, and so does a count below ``minimum``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def _config_real(value, what: str) -> float:
    """A real config value as a float: finite numbers (numpy ones too) pass;
    ``"0.5"``, ``True``, nan and ±inf raise."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise InputError(f"{what} must be a number with a finite value, got {value!r}")


def _config_fields(config, ints=None, reals=()) -> None:
    """Replace the named count and real fields of a frozen config by their
    values as checked by :func:`_config_int` and :func:`_config_real`;
    ``ints`` maps each count field to its lower bound, or None."""
    for name, minimum in (ints or {}).items():
        object.__setattr__(config, name, _config_int(getattr(config, name), name, minimum))
    for name in reals:
        object.__setattr__(config, name, _config_real(getattr(config, name), name))


def _config_children(value, what: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise InputError(f"{what} must be a nonempty list of structure configs, got {value!r}")
    return tuple(structure_from_config(c) for c in value)


def _reject_unknown(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")
