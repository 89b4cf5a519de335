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
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .config import (
    _as_float,
    _config_array,
    _config_eta,
    _config_fields,
    _config_instance,
    _config_real,
    _reject_unknown,
)
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
    "metric_pairs",
    "gram_matrix",
    "structure_to_config",
    "structure_from_config",
    "kernel_to_config",
    "kernel_from_config",
]

INF = math.inf
# relative margin by which the Gaussian incremental boundary errs to the safe side
_BOUNDARY_MARGIN = 4.0 * np.finfo(float).eps
# rows per block wherever a row count is unbounded: the rows of A in
# _sq_dist_matrix and the windows of the predictor's one-step evaluation; a
# 198-row training Gram or validation set is one block
ROW_BLOCK = 256


# ---------------------------------------------------------------------------
# pairwise distance helpers
# ---------------------------------------------------------------------------

def _sq_dist_pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = A - B
    return np.einsum("ij,ij->i", d, d)


def _sq_dist_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (a - b)^2 expanded per coordinate keeps exact symmetry when A is B; row
    # blocks keep the (rows, N, d) difference a few MB, whatever the rows
    out = np.empty((A.shape[0], B.shape[0]))
    for start in range(0, A.shape[0], ROW_BLOCK):
        diff = A[start:start + ROW_BLOCK, None, :] - B[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:start + ROW_BLOCK])
    return out


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

    ``A`` and ``B`` are float64 arrays of rows, checked where they entered
    the package.  Every term is computed on first use and kept, so one
    instance serves any number of hyperparameter vectors.  The arrays are
    shared: kernel assembly reads them and never writes to them.
    With ``B`` the array ``A``, every term is exactly symmetric (numpy runs
    ``A @ A.T`` as one ``syrk`` and mirrors it, and ``(a - b)^2`` is
    ``(b - a)^2``), and so is every structure's Gram: none is re-symmetrized.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.A = A
        self.B = B
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


def _stacked_parameterization(params: list) -> FeasibleParameterization:
    """Concatenated images of consecutive slices of ``u``, one per map."""
    def to_eta(u):
        parts, offset = [], 0
        for param in params:
            parts.extend(param.to_eta(u[offset:offset + param.dim]))
            offset += param.dim
        return tuple(parts)

    return FeasibleParameterization(sum(p.dim for p in params), to_eta)


def _mass_parameterization(rho: float) -> FeasibleParameterization:
    """``(tau, gamma, sigma)`` with ``tau + sigma`` in (0, rho), gamma free."""
    def to_eta(u):
        tau, sigma = _split_mass(rho * _unit(u[0]), _unit(u[2]))
        return (tau, _pos(u[1]), sigma)

    return FeasibleParameterization(3, to_eta)


def _gaussian_tau_max(gamma: float, rho: float) -> float:
    """Largest ``tau`` with ``2 tau (1 - exp(-gamma rho)) <= rho``: the
    Gaussian incremental rule at a finite ``rho > 0``."""
    return rho / (2.0 * -math.expm1(-min(gamma * rho, 690.0)))


def gaussian_delta_boundary(tau: float, gamma: float) -> float:
    """Smallest rho for which a Gaussian (tau, gamma, .) is incrementally viable.

    That is 0 when ``2 tau gamma <= 1``, else the positive root of the
    finite-rho rule ``2 tau (1 - exp(-gamma z)) = z``, which lies in
    ``(0, 2 tau)``.  Bisection over ``(0, 2 tau]`` on that inequality, its
    right side shrunk by ``4 eps`` to cover the rounding of both sides,
    returns the upper end, so the result is never below the root.  Its
    relative error is about ``eps / (2 tau gamma - 1)``, the root's
    conditioning.
    """
    parsed = (_as_float(tau), _as_float(gamma))
    if not all(x is not None and 0.0 <= x < math.inf for x in parsed):
        raise InputError(f"tau and gamma must be finite and >= 0, got tau={tau!r}, gamma={gamma!r}")
    tau, gamma = parsed
    if 2.0 * tau * gamma <= 1.0 - _BOUNDARY_MARGIN:
        return 0.0
    lo, hi = 0.0, 2.0 * tau
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if 2.0 * tau * -math.expm1(-gamma * mid) <= mid * (1.0 - _BOUNDARY_MARGIN):
            hi = mid
        else:
            lo = mid


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
    ``validate_eta`` (every entry a real ``>= 0``, returned as floats) and
    the ``exp(u)`` unconstrained map derive (the composite structures take
    these from ``_Composite``'s layout), and implements one evaluation
    path, ``from_terms(eta, terms)``: the matrix ``k_eta(terms.A[i],
    terms.B[j])``, or the vector ``k_eta(terms.A[i], terms.B[i])`` for row
    terms, as a fresh array that the caller may modify; the cached terms
    themselves are never returned or written.  The generic ``diag_values``
    and the module's row-pair functions evaluate it on row-paired terms.
    It is also the one place that knows its stability rules.

    The structures are the classes of ``_STRUCTURES``; only serialization
    (:func:`structure_to_config`) rejects a class outside them.  Each
    implements ``from_terms`` and the rules marked "no default" below, and
    a subclass must define them too: the base class has none.  The other
    base rules raise :class:`UnsupportedTargetError` naming the structure,
    except where a default value is given:

    * ``theta_member(eta, rho)``, ``delta_member(eta, rho)``: closed-form
      membership of a validated float ``eta`` in the growth / incremental
      viability set at a checked ``rho`` ("no default").
    * ``theta_claim(eta)``, ``delta_claim(eta)``: the ``(nu, s)`` the proofs
      exhibit for an accepted ``eta``, which the falsifier checks ("no
      claimed growth / incremental condition parameters").
    * ``unconstrained_parameterization()`` (default: ``exp(u)`` per entry),
      ``theta_parameterization(rho)`` ("no default"),
      ``delta_parameterization(rho)`` ("no incremental viability rule is
      available") and, for the stationary right factor of a product,
      ``peak_le_one_parameterization()`` ("no unit-peak parameterization").
    * ``suggest_eta(stats)`` (default ``()``) and, as a right factor,
      ``factor_suggest_eta(stats)`` (default ``suggest_eta``): the search
      start from the data statistics of :mod:`stable_sysid.selection`.

    The stationary structures (gaussian, matern32, narx_fading) derive from
    ``_Stationary``, which states the rules they share once: both
    memberships, both claims and both parameterizations, over the zero-lag
    value ``stationary_peak(eta)``.  Such a subclass supplies that peak, its
    exact rho = 0 incremental rule ``_exact_zero(eta)`` and its finite-rho
    maps ``_theta_map(rho)`` and ``_delta_map(rho)``; gaussian also states
    its own exact incremental membership and claim at every rho.

    The public functions of :mod:`stable_sysid.viability` validate their
    inputs and dispatch to these rules.
    """

    name: str = ""
    is_stationary: bool = False
    eta_names: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.eta_names)

    def validate_eta(self, eta: tuple) -> tuple:
        if len(eta) != self.arity:
            raise InputError(f"{self.name} expects eta = ({', '.join(self.eta_names)}), got {eta!r}")
        parsed = tuple(_config_real(v, f"hyperparameter {n}") for v, n in zip(eta, self.eta_names))
        for value, name in zip(parsed, self.eta_names):
            if value < 0:
                raise InputError(f"hyperparameter {name} must be >= 0, got {value!r}")
        return parsed

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
    def theta_claim(self, eta: tuple) -> tuple:
        raise UnsupportedTargetError(f"no claimed growth condition parameters for {self.name!r}")

    def delta_claim(self, eta: tuple) -> tuple:
        raise UnsupportedTargetError(f"no claimed incremental condition parameters for {self.name!r}")

    def unconstrained_parameterization(self) -> FeasibleParameterization:
        n = self.arity
        return FeasibleParameterization(n, lambda u: tuple(_pos(u[i]) for i in range(n)))

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
            return FeasibleParameterization(1, lambda u: (_unit(u[0]), 0.0))
        if rho == INF:
            return self.delta_parameterization(rho)

        def to_eta(u):
            tau = _unit(u[0])
            return (tau, _unit(u[1]) * rho * (1.0 - tau))

        return FeasibleParameterization(2, to_eta)

    def delta_parameterization(self, rho):
        return FeasibleParameterization(2, lambda u: (_unit(u[0]), _pos(u[1])))

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

    def from_terms(self, eta, terms):
        return terms.inner ** self.degree

    def theta_member(self, eta, rho):
        return False

    delta_member = theta_member

    def unconstrained_parameterization(self):
        return FeasibleParameterization(0, lambda u: ())

    def theta_parameterization(self, rho):
        raise InfeasibleTargetError(
            "polynomial rule: a degree >= 2 kernel grows faster than |a|^2, so its "
            "viability sets are empty for every rho"
        )

    delta_parameterization = theta_parameterization


class _Stationary(KernelStructure):
    """The rules every stationary structure shares, over its zero-lag value
    ``peak``, which ``k(a, a)`` equals (what a subclass supplies is in
    :class:`KernelStructure`): no growth set at rho = 0, the growth set
    ``peak <= rho`` with ``nu = s = peak``, and the incremental set
    "``_exact_zero(eta)`` or ``4 peak <= rho``", which every ``eta`` meets
    at rho = inf, with ``s = 4 peak`` and ``nu = 0`` on the exact set, else
    ``4 peak``."""

    is_stationary = True

    def theta_member(self, eta, rho):
        return self.stationary_peak(eta) <= rho

    def theta_claim(self, eta):
        peak = self.stationary_peak(eta)
        return peak, peak

    def theta_parameterization(self, rho):
        if rho == 0.0:
            raise InfeasibleTargetError(_NO_STATIONARY_ISS)
        if rho == INF:
            return self.unconstrained_parameterization()
        return self._theta_map(rho)

    def delta_member(self, eta, rho):
        return self._exact_zero(eta) or 4.0 * self.stationary_peak(eta) <= rho

    def delta_claim(self, eta):
        peak = self.stationary_peak(eta)
        return (0.0 if self._exact_zero(eta) else 4.0 * peak), 4.0 * peak

    def delta_parameterization(self, rho):
        if rho == INF:
            return self.unconstrained_parameterization()
        return self._delta_map(rho)


class _StationaryProfile(_Stationary):
    """Shared base of ``tau profile(gamma, |a - b|) + sigma`` kernels with a
    unit profile at zero lag (gaussian, matern32): ``eta = (tau, gamma,
    sigma)``, zero-lag value ``tau + sigma``, and growth maps that share
    ``tau + sigma`` out below rho."""

    eta_names = ("tau", "gamma", "sigma")

    def stationary_peak(self, eta):
        tau, _, sigma = eta
        return tau + sigma

    def _theta_map(self, rho):
        return _mass_parameterization(rho)

    def peak_le_one_parameterization(self):
        return _mass_parameterization(1.0)

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
        if rho == INF or 2.0 * tau * gamma <= 1.0:
            return True
        if gamma * rho == 0.0:
            # rho = 0, or gamma rho underflowed so the cap rounds to 1 / (2 gamma)
            return False
        return tau <= _gaussian_tau_max(gamma, rho)

    def delta_claim(self, eta):
        tau, gamma, _ = eta
        return gaussian_delta_boundary(tau, gamma), 4.0 * self.stationary_peak(eta)

    def _delta_map(self, rho):
        if rho == 0.0:
            def to_eta(u):
                gamma = _pos(u[0])
                return (_unit(u[1]) / (2.0 * gamma), gamma, _pos(u[2]))

            return FeasibleParameterization(3, to_eta)

        def to_eta(u):
            gamma = _pos(u[0])
            return (_unit(u[1]) * _gaussian_tau_max(gamma, rho), gamma, _pos(u[2]))

        return FeasibleParameterization(3, to_eta)


@dataclass(frozen=True)
class Matern32(_StationaryProfile):
    name = "matern32"

    @staticmethod
    def _profile(tau, gamma, sigma, dist):
        r = math.sqrt(3.0) * gamma * dist
        return tau * (1.0 + r) * np.exp(-r) + sigma

    def from_terms(self, eta, terms):
        return self._profile(*eta, terms.dist)

    def _exact_zero(self, eta):
        tau, gamma, _ = eta
        return 3.0 * tau * gamma * gamma <= 1.0

    def _delta_map(self, rho):
        def to_eta(u):
            gamma = _pos(u[0])
            return (_unit(u[1]) / (3.0 * gamma ** 2), gamma, _pos(u[2]))

        return FeasibleParameterization(3, to_eta)


@dataclass(frozen=True)
class NarxFading(_Stationary):
    """Fading-memory kernel on lag windows of the regressor difference.

    ``model_order`` is the number of past outputs in the regressor and
    ``window`` the sliding-window width ``p`` in ``{1, ..., model_order}``.
    """

    model_order: int
    window: int
    name = "narx_fading"
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
        if 0.0 < rho < INF:
            raise UnsupportedTargetError(_NARX_GROWTH_RHO)
        return super().theta_member(eta, rho)

    def _theta_map(self, rho):
        raise UnsupportedTargetError(_NARX_GROWTH_RHO)

    def _exact_zero(self, eta):
        tau, gamma, xi = eta
        return 2.0 * gamma * tau * lag_weight_sum(xi, self.window, self.model_order) <= 1.0

    def _delta_map(self, rho):
        def to_eta(u):
            gamma, xi = _pos(u[0]), _pos(u[1])
            pi = lag_weight_sum(xi, self.window, self.model_order)
            return (_unit(u[2]) / (2.0 * gamma * pi), gamma, xi)

        return FeasibleParameterization(3, to_eta)

    def peak_le_one_parameterization(self):
        def to_eta(u):
            gamma, xi = _pos(u[0]), _pos(u[1])
            pi = lag_weight_sum(xi, self.window, self.model_order)
            return (_unit(u[2]) / pi, gamma, xi)

        return FeasibleParameterization(3, to_eta)

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
        return _mass_parameterization(1.0)

    def suggest_eta(self, stats):
        vy, mzz = stats["var_y"], stats["mean_zz"]
        return (vy / mzz, 1.0 / stats["med_sq"], vy / (10.0 * mzz))


class _Composite(KernelStructure):
    """The one eta layout of the structures built from ``parts``, which a
    subclass supplies: ``weight_count`` leading weights, each a real > 0,
    then each part's eta.  The unconstrained map is ``exp(u)`` per weight,
    then each part's own map."""

    weight_count = 0

    @property
    def arity(self) -> int:
        return self.weight_count + sum(p.arity for p in self.parts)

    def split_eta(self, eta):
        """``(weights, [eta per part])``."""
        offset = self.weight_count
        etas = []
        for part in self.parts:
            etas.append(tuple(eta[offset:offset + part.arity]))
            offset += part.arity
        return tuple(eta[:self.weight_count]), etas

    def validate_eta(self, eta):
        if len(eta) != self.arity:
            raise InputError(f"{self.name} expects {self.arity} hyperparameters, got {len(eta)}")
        weights, etas = self.split_eta(eta)
        parsed = tuple(_config_real(w, f"{self.name} kernel weight") for w in weights)
        if weights and min(parsed) <= 0:
            raise InputError(f"{self.name} kernel weights must be > 0, got {weights!r}")
        for part, part_eta in zip(self.parts, etas):
            parsed += part.validate_eta(part_eta)
        return parsed

    def check_dim(self, input_dim):
        for part in self.parts:
            part.check_dim(input_dim)

    def unconstrained_parameterization(self):
        weight = FeasibleParameterization(1, lambda u: (_pos(u[0]),))
        return _stacked_parameterization(
            [weight] * self.weight_count + [p.unconstrained_parameterization() for p in self.parts]
        )


@dataclass(frozen=True)
class SumKernel(_Composite):
    """Weighted sum of child kernels: one weight per child, and the children
    are the parts of :class:`_Composite`'s layout."""

    children: tuple
    name = "sum"

    def __post_init__(self):
        if len(self.children) < 1:
            raise InputError("sum kernel needs at least one child structure")
        for child in self.children:
            _config_instance(child, KernelStructure, "sum child")

    @property
    def is_stationary(self) -> bool:  # type: ignore[override]
        return all(c.is_stationary for c in self.children)

    @property
    def parts(self) -> tuple:
        return self.children

    @property
    def weight_count(self) -> int:  # type: ignore[override]
        return len(self.children)

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

    def _weighted_parameterization(self, children):
        # a total mass in (0, 1) shared out by a softmax, then the children
        weights = FeasibleParameterization(1 + len(children), lambda u: tuple(_unit(u[0]) * _softmax(u[1:])))
        return _stacked_parameterization([weights, *children])

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
class ProductWithStationary(_Composite):
    """Pointwise product of an arbitrary left kernel with a stationary right
    kernel: no weights, and ``(left, right)`` are the parts of
    :class:`_Composite`'s layout."""

    left: KernelStructure
    right: KernelStructure
    name = "product_stationary"

    def __post_init__(self):
        _config_instance(self.left, KernelStructure, "product_stationary left")
        _config_instance(self.right, KernelStructure, "product_stationary right")
        if not self.right.is_stationary:
            raise InputError(
                f"product_stationary right factor must be stationary, got {self.right.name!r}"
            )

    @property
    def parts(self) -> tuple:
        return self.left, self.right

    def from_terms(self, eta, terms):
        _, (eta_l, eta_r) = self.split_eta(eta)
        return self.left.from_terms(eta_l, terms) * self.right.from_terms(eta_r, terms)

    def theta_member(self, eta, rho):
        _, (eta_l, eta_r) = self.split_eta(eta)
        if self.right.stationary_peak(eta_r) > 1.0:
            return False
        return self.left.theta_member(eta_l, rho)

    delta_member = _unbounded_metric

    def theta_claim(self, eta):
        _, (eta_l, eta_r) = self.split_eta(eta)
        nu_l, s_l = self.left.theta_claim(eta_l)
        return nu_l, s_l * self.right.stationary_peak(eta_r)

    def theta_parameterization(self, rho):
        return _stacked_parameterization(
            [self.left.theta_parameterization(rho), self.right.peak_le_one_parameterization()]
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
        _config_instance(self.structure, KernelStructure, "structure")
        _config_fields(self, ints={"input_dim": None})
        if self.input_dim < 3 or self.input_dim % 2 == 0:
            raise InputError(
                f"input_dim must be odd and >= 3 (2m + 1 with m >= 1), got {self.input_dim}"
            )
        object.__setattr__(self, "eta", self.structure.validate_eta(_config_eta(self.eta)))
        self.structure.check_dim(self.input_dim)


def _as_rows(x, input_dim: int, what: str) -> np.ndarray:
    """Points as a 2-D array of rows; one vector is one row."""
    arr = _config_array(x, what, None)
    shape = arr.shape
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise InputError(f"{what} must have dimension {input_dim}, got shape {shape}")
    return arr


def metric_pairs(kernel: KernelInstance, A, B) -> np.ndarray:
    """Rowwise squared kernel metric ``h(A[i], B[i])``.

    All three terms come from the structure's ``from_terms`` on row-paired
    terms, so ``h(a, a)`` is exactly 0 for every structure."""
    _config_instance(kernel, KernelInstance, "kernel")
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    if A.shape[0] != B.shape[0]:
        raise InputError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    s = kernel.structure
    return s.diag_values(kernel.eta, A) - 2.0 * s.from_terms(kernel.eta, _RowTerms(A, B)) \
        + s.diag_values(kernel.eta, B)


def gram_matrix(kernel: KernelInstance, points) -> np.ndarray:
    """Symmetric Gram matrix over a nonempty list of points.

    Exactly symmetric as assembled (see :class:`PairTerms`); positive
    semidefiniteness (up to a 1e-10 relative spectral tolerance) is enforced
    where the matrix is factorized, in the solver and cost routines.
    """
    P = _as_rows(points, _config_instance(kernel, KernelInstance, "kernel").input_dim, "points")
    if P.shape[0] < 1:
        raise InputError("gram_matrix needs at least one point")
    return kernel.structure.from_terms(kernel.eta, PairTerms(P, P))


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
        "tuple": _children_from_config,
    }
    return cls(**{
        f.name: parse[f.type](cfg[f.name], f"{name} {f.name}") if f.type in parse else cfg[f.name]
        for f in cls_fields if f.name in cfg
    })


def kernel_to_config(kernel: KernelInstance) -> dict:
    """Serialize a kernel to its block: the structure's config plus ``eta``
    and ``input_dim``."""
    _config_instance(kernel, KernelInstance, "kernel")
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


def _children_from_config(value, what: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise InputError(f"{what} must be a nonempty list of structure configs, got {value!r}")
    return tuple(structure_from_config(c) for c in value)

