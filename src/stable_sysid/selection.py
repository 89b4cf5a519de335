"""Hyperparameter selection over a stability target's feasibility set.

The outer problem minimizes a data-fit cost ``J(beta, eta)`` over
``beta >= iota`` and ``eta`` in the target's viability set.  Three costs are
implemented:

* ``eb``     - Gaussian-process negative log marginal likelihood,
               ``0.5 y'(K + beta I)^{-1} y + 0.5 log det(K + beta I)
               + (N/2) log 2 pi``;
* ``gcv``    - generalized cross-validation,
               ``N |(I - H) y|^2 / trace(I - H)^2`` with
               ``H = K (K + beta I)^{-1}``;
* ``kfold``  - mean squared one-step error over contiguous-block folds.

For a constrained target the cost is by default charged at the effective
regularizer ``max(alpha_bar, beta)`` that the norm budget
``m |f|^2 <= chi`` induces, so it scores the estimator the constrained fit
actually produces and hyperparameters whose constrained fit is badly
over-regularized score poorly.  Wherever the budget does not bind this
coincides with the plain cost, and since the effective value is itself an
admissible ``beta``, the unconstrained minimum can only be lower.  Cap-aware
charging matters most for co-scale invariant costs (GCV, k-fold), whose
plain optimum is a ray of equivalent amplitude scalings that the budget
then resolves arbitrarily.  ``cap_aware_cost=False`` evaluates the plain
cost exactly at ``(beta, eta)``; unconstrained targets always do.

The search is derivative-free multi-start Nelder-Mead run in transformed
coordinates: ``log`` scale for ``beta`` (shifted so the image is
``(iota, inf)``) and the viability module's feasible parameterization for
``eta``, so every iterate is feasible by construction.  The first start is
data-driven (amplitudes near the target variance, inverse lengthscale near
the median pairwise distance), mapped into the feasible coordinates by a
cheap numeric inversion; the remaining restarts perturb it.  Restarts are
seeded, making results reproducible; each restart owns its optimizer state
and cost evaluations are pure, so restarts are safe to run concurrently.

The search memoizes the Gram spectra it computes on the data
(:attr:`~stable_sysid.solver.RegressionData.spectra`, keyed by the structure
and the bytes of ``eta``), so an ``eta`` the search revisits, or that an earlier search on the
same data already factored, costs no second ``eigh``.  On a Gaussian kernel
the deltaBIBS feasible map is the unconstrained one, and plain EB ignores
the target, so a deltaBIBS search after an unconstrained one on the same
data replays every factorization.  Concurrent restarts and searches stay
safe: entries are read-only and never replaced by different values, since
every writer of a key computes bit-identical ones.  The public
``eb_cost``/``gcv_cost``/``kfold_cost`` neither read nor fill the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .errors import InputError, NumericError, StableSysidError
from .kernels import KernelInstance, KernelStructure, _config_fields, gram_from_terms
from .solver import (
    RegressionData,
    _eig_psd,
    alpha_bar_from_spectrum,
    solve_norm_constrained,
    solve_ridge,
)
from .viability import (
    FeasibleParameterization,
    StabilityTarget,
    feasible_parameterization,
    membership,
)

__all__ = [
    "OptimizerConfig",
    "SelectionConfig",
    "SelectionResult",
    "eb_cost",
    "gcv_cost",
    "kfold_cost",
    "select_hyperparameters",
]

_LOG_2PI = math.log(2.0 * math.pi)
_BAD_COST = 1e100
# Nelder-Mead stopping tolerances of the search, in the transformed coordinates
SEARCH_XATOL = 1e-3
SEARCH_FATOL = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start Nelder-Mead settings.

    ``max_evals`` is the total cost-evaluation budget, split evenly across
    the restarts; each restart also stops on ``SEARCH_XATOL``/``SEARCH_FATOL``.
    """

    restarts: int = 8
    max_evals: int = 2000

    def __post_init__(self):
        _config_fields(self, ints={"restarts": 1, "max_evals": None})
        if self.max_evals < self.restarts:
            raise InputError("max_evals must cover at least one evaluation per restart")


@dataclass(frozen=True)
class SelectionConfig:
    """Cost choice, feasibility floor iota, stability target, and search budget.

    ``chi`` is the norm budget of the downstream constrained fit; it only
    enters the search when the target is constrained and ``cap_aware_cost``
    is set, which is the default (see module notes).
    """

    method: str = "eb"  # eb | gcv | kfold
    kfold_k: int = 5
    iota: float = 1e-10
    chi: float = 0.99
    cap_aware_cost: bool = True
    target: StabilityTarget = field(default_factory=StabilityTarget.unconstrained)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def __post_init__(self):
        _config_fields(self, ints={"kfold_k": None, "seed": 0}, reals=("iota", "chi"))
        if self.method not in ("eb", "gcv", "kfold"):
            raise InputError(f"unknown selection method {self.method!r}")
        if not isinstance(self.cap_aware_cost, bool):
            raise InputError(f"cap_aware_cost must be true or false, got {self.cap_aware_cost!r}")
        if self.iota <= 0:
            raise InputError(f"iota must be > 0, got {self.iota!r}")
        if not (0.0 < self.chi < 1.0):
            raise InputError(f"chi must lie in (0, 1), got {self.chi!r}")
        if self.method == "kfold" and self.kfold_k < 2:
            raise InputError(f"kfold needs k >= 2, got {self.kfold_k}")


@dataclass(frozen=True)
class SelectionResult:
    """The selected point, its cost, and what the search spent.

    ``evaluations`` counts cost evaluations; ``factorizations`` counts the
    spectra the search computed itself rather than read from the data's
    memo (see module notes).  It is bookkeeping, so results that differ only
    in it compare equal.
    """

    beta: float
    eta: tuple
    cost: float
    evaluations: int
    feasible: bool
    factorizations: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def _spectrum(structure, eta, data: RegressionData):
    kernel = KernelInstance(structure=structure, eta=tuple(eta), input_dim=data.regressors.shape[1])
    lam, Q = _eig_psd(gram_from_terms(kernel, data.terms))
    return lam, Q.T @ data.targets


def _eb_from_spectrum(lam, yt, beta, n) -> float:
    d = lam + beta
    return float(0.5 * np.sum(yt ** 2 / d) + 0.5 * np.sum(np.log(d)) + 0.5 * n * _LOG_2PI)


def _gcv_from_spectrum(lam, yt, beta, n) -> float:
    d = lam + beta
    residual_sq = float(np.sum((beta * yt / d) ** 2))
    trace = float(np.sum(beta / d))
    if trace == 0.0:
        raise NumericError("GCV trace vanished; increase iota")
    return n * residual_sq / trace ** 2


def eb_cost(beta: float, eta: tuple, data: RegressionData, structure: KernelStructure) -> float:
    """Negative log marginal likelihood of the targets under the kernel prior."""
    if not (beta > 0):
        raise InputError(f"beta must be > 0, got {beta!r}")
    lam, yt = _spectrum(structure, eta, data)
    return _eb_from_spectrum(lam, yt, beta, data.size)


def gcv_cost(beta: float, eta: tuple, data: RegressionData, structure: KernelStructure) -> float:
    """Generalized cross-validation score of the ridge smoother."""
    if not (beta > 0):
        raise InputError(f"beta must be > 0, got {beta!r}")
    lam, yt = _spectrum(structure, eta, data)
    return _gcv_from_spectrum(lam, yt, beta, data.size)


def kfold_cost(
    beta: float, eta: tuple, data: RegressionData, structure: KernelStructure, k: int = 5
) -> float:
    """Mean squared held-out one-step error over k contiguous blocks."""
    return _kfold(beta, eta, data, structure, k, chi=None)


def _kfold(beta, eta, data, structure, k, chi) -> float:
    # chi switches the per-fold solve to the norm-capped one
    if not (beta > 0):
        raise InputError(f"beta must be > 0, got {beta!r}")
    n = data.size
    if not 2 <= k <= n:
        raise InputError(f"kfold needs 2 <= k <= {n}, got {k}")
    kernel = KernelInstance(structure=structure, eta=tuple(eta), input_dim=data.regressors.shape[1])
    K = gram_from_terms(kernel, data.terms)
    bounds = np.linspace(0, n, k + 1, dtype=int)
    total, count = 0.0, 0
    for i in range(k):
        held = np.arange(bounds[i], bounds[i + 1])
        if held.size == 0:
            continue
        kept = np.setdiff1d(np.arange(n), held)
        if chi is None:
            c = solve_ridge(K[np.ix_(kept, kept)], data.targets[kept], beta)
        else:
            c, _ = solve_norm_constrained(
                K[np.ix_(kept, kept)], data.targets[kept], data.model_order, chi, beta
            )
        pred = K[np.ix_(held, kept)] @ c
        total += float(np.sum((data.targets[held] - pred) ** 2))
        count += held.size
    return total / count


# ---------------------------------------------------------------------------
# data-driven initialization
# ---------------------------------------------------------------------------

def _data_stats(data: RegressionData) -> dict:
    Z = data.regressors
    n = Z.shape[0]
    rng = np.random.default_rng(0)
    idx = rng.choice(n, size=min(n, 200), replace=False)
    # each entry depends on its two rows only, so the subset's distances
    # are read off the data's cached pair terms
    sq = data.terms.sq[np.ix_(idx, idx)]
    med_sq = float(np.median(sq[np.triu_indices(idx.size, k=1)])) if idx.size > 1 else 1.0
    return {
        "var_y": max(float(np.var(data.targets)), 1e-12),
        "med_sq": max(med_sq, 1e-12),
        "mean_zz": max(float(np.mean(np.einsum("ij,ij->i", Z, Z))), 1e-12),
    }


def _invert_parameterization(param: FeasibleParameterization, eta_star: tuple) -> np.ndarray:
    """Raw coordinates whose image is (close to) ``eta_star``.

    Minimizes a log-scale mismatch with a short Nelder-Mead run; when
    ``eta_star`` lies outside the feasible set the result is simply a
    nearby feasible point, which is all a start needs to be.
    """
    if param.dim == 0:
        return np.zeros(0)
    target = np.asarray(eta_star, dtype=float)

    def mismatch(u):
        eta = np.asarray(param.to_eta(u), dtype=float)
        if eta.shape != target.shape:
            return _BAD_COST
        return float(np.sum((np.log(eta + 1e-12) - np.log(target + 1e-12)) ** 2))

    res = scipy.optimize.minimize(
        mismatch,
        np.zeros(param.dim),
        method="Nelder-Mead",
        options={"maxfev": 120 * param.dim, "xatol": 1e-6, "fatol": 1e-10},
    )
    return np.asarray(res.x, dtype=float)


# ---------------------------------------------------------------------------
# outer search
# ---------------------------------------------------------------------------

def select_hyperparameters(
    config: SelectionConfig,
    data: RegressionData,
    structure: KernelStructure,
) -> SelectionResult:
    """Minimize the configured cost over the target's feasibility set.

    The result's ``eta`` always passes the target's membership test; an
    infeasible or unsupported (structure, target) pair raises before any
    evaluation.
    """
    param = feasible_parameterization(structure, config.target)
    dim = 1 + param.dim
    charge_cap = config.target.constrained and config.cap_aware_cost
    m = data.model_order

    factorizations = 0

    def spectrum(eta):
        nonlocal factorizations
        # eta's bytes, not its values: 0.0 and -0.0 never share an entry
        key = (structure, np.asarray(eta, dtype=float).tobytes())
        entry = data.spectra.get(key)
        if entry is None:
            lam, yt = _spectrum(structure, eta, data)
            lam.flags.writeable = False
            yt.flags.writeable = False
            entry = data.spectra[key] = (lam, yt)
            factorizations += 1
        return entry

    def cost_fn(beta, eta):
        if config.method == "kfold":
            chi = config.chi if charge_cap else None
            return _kfold(beta, eta, data, structure, config.kfold_k, chi)
        lam, yt = spectrum(eta)
        if charge_cap:
            beta = max(beta, alpha_bar_from_spectrum(lam, yt ** 2, m, config.chi))
        if config.method == "eb":
            return _eb_from_spectrum(lam, yt, beta, data.size)
        return _gcv_from_spectrum(lam, yt, beta, data.size)

    evaluations = 0

    def decode(x):
        beta = config.iota + math.exp(min(float(x[0]), 690.0))
        return beta, tuple(param.to_eta(np.asarray(x[1:], dtype=float)))

    def objective(x):
        nonlocal evaluations
        evaluations += 1
        try:
            beta, eta = decode(x)
            value = cost_fn(beta, eta)
        except (NumericError, OverflowError, FloatingPointError):
            return _BAD_COST
        if not math.isfinite(value):
            return _BAD_COST
        return value

    stats = _data_stats(data)
    beta0 = max(stats["var_y"] / 10.0, config.iota * 10.0)
    smart = np.concatenate(
        [
            [math.log(max(beta0 - config.iota, 1e-300))],
            _invert_parameterization(param, structure.suggest_eta(stats)),
        ]
    )

    rng = np.random.default_rng(config.seed)
    starts = [smart]
    if config.optimizer.restarts > 1:
        starts.append(np.zeros(dim))
    for _ in range(config.optimizer.restarts - 2):
        starts.append(smart + rng.uniform(-3.0, 3.0, size=dim))

    budget = max(config.optimizer.max_evals // config.optimizer.restarts, 2 * dim + 2)
    best_x, best_val = None, math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for x0 in starts:
            res = scipy.optimize.minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": budget,
                    "xatol": SEARCH_XATOL,
                    "fatol": SEARCH_FATOL,
                    "adaptive": dim > 4,
                },
            )
            if res.fun < best_val:
                best_val, best_x = res.fun, res.x

    if best_x is None or not math.isfinite(best_val) or best_val >= _BAD_COST:
        raise NumericError(
            "hyperparameter search found no finite cost; the kernel/data combination "
            "is numerically degenerate"
        )

    beta, eta = decode(best_x)
    try:
        feasible = membership(structure, eta, config.target)
    except StableSysidError:
        feasible = False
    return SelectionResult(
        beta=beta,
        eta=eta,
        cost=float(best_val),
        evaluations=evaluations,
        feasible=bool(feasible),
        factorizations=factorizations,
    )
