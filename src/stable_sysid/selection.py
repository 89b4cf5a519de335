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
* ``kfold``  - mean squared one-step error over five contiguous-block folds,
               one regression row at least in each.

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
Nelder-Mead inversion that in practice spends all its 120 evaluations per
coordinate; the second start is the origin of the search coordinates, and
the others add a seeded uniform draw in ``[-3, 3]`` per coordinate to the
first.  Restarts are seeded, making results reproducible; each restart owns
its optimizer state and cost evaluations are pure, so restarts are safe to
run concurrently.  The Nelder-Mead is the package's own (:func:`_nelder_mead`), with the
arithmetic of scipy 1.17's ``minimize(method="Nelder-Mead")`` for the case
used here, pinned bit for bit against scipy by the test suite: importing
scipy's optimize package for two calls cost every process about 20 MB and
0.25 s of start-up.  Results therefore no longer depend on the installed
scipy's Nelder-Mead.

GCV is scored from one Cholesky factor of ``K + beta I`` (GPML 2006,
Algorithm 2.1), with the clamped spectrum only where the factor fails.
Cap-aware GCV is scored on the tridiagonal form of the Gram that finds its
root (``solver._effective_alpha``): one reduction gives ``max(beta,
alpha_bar)``, the residual and the trace, in O(N) beyond the reduction and
with no Cholesky factor; where that path fails, the root and the score both
come from the spectrum.  Where the cap binds, the score has the same bits
for every beta below the root, as on the spectrum.  EB keeps the spectrum
until the regularizer has a floor double precision can see (a Cholesky EB
moves rows).  The EB search keeps one memo of spectra per data,
``_SPECTRA``, weakly keyed by the data (which hashes by identity); an entry
is the read-only ``(lam, Q'y)`` of one factorization, keyed by the
structure and the bytes of ``eta``.  Only EB searches read or fill it, in
this process and under the lock each holds for its whole length; it is not
part of the data, so no pickle carries it.  An ``eta`` that an EB search
on the same data factored costs no second eigendecomposition: Hb's search
replays Ha's (plain EB ignores the target, and on a Gaussian the deltaBIBS
map is the unconstrained one).  GCV factors its rare fallback spectra
afresh (one of 40 mc-ab searches needed one); the public costs never use
the memo.

The fit's thread rule (:func:`_fit_threads`): a fit's search, and then its
final solve (:func:`stable_sysid.benchmarks.fit_method`), each hold the
package's process-wide scipy lock (``stable_sysid._lapack._LOCK``) for its
whole length, so no two of them, such as the searches of the harness's
groups, overlap.  Every fit but EB's is pinned (:func:`_pinned`): it runs
scipy's OpenBLAS on one thread (:func:`stable_sysid._lapack._scipy_threads`),
so a k-fold search's constrained folds (about 158 rows at the benchmark's
N = 198) take their spectra on one thread, as its plain folds take their
Cholesky factors, and the fit has the same bits on any core count.  An EB
fit keeps the caller's count: the count sets the bits of a spectrum from
about N = 146 up, and EB's spectra set the H rows (ROADMAP D17).  At
N = 199 one thread is as fast as two (one ``dsyevd``: 3.73 ms against
3.83 ms), and a call on one thread wakes no OpenBLAS worker to spin after
it (see :mod:`stable_sysid._lapack`).  Threads could not speed a search
up: scipy's ``dpotrf``, ``dsytrd`` and ``dtrtri`` hold the GIL, and two
threads ran them at 0.64-0.92 times the serial speed (N = 199, 2 vCPUs).
Other processes can.  A pinned search (GCV or k-fold, plain or cap-aware)
of R restarts, on an affinity set of C CPUs, runs in ``P = 1`` process
where ``C < 2``, else in ``P = min(R, ceil(R / max(1, R // C)))``
(:func:`_processes`): the fewest in which none runs more than
``max(1, R // C)`` restarts.  Restart k runs in process ``k mod P``: 0 is
this one, the others are helpers (:func:`stable_sysid._worker.spread`).  On
two CPUs, 3 restarts run in three processes, one each (a cap-aware k-fold
search on B's deltaISS set, 3 x 60 evaluations: 1.13 s, against 2.12 s in
one), 2, 6 and 8 in two, and 5 in three (2, 2 and 1).  The runs
merge in start order and the factorization counts add up.  Every process
builds the objective alike (:class:`_Objective`) from the same data, a
helper building any pair term its structure reads that the data does not
hold yet, with the same bits (a Gaussian search builds no inner products);
each restart is independent and seeded, so the result, the restart record
and the factorization count are those of the one-process search bit for
bit.  The helpers then stay up for the next search.  Where ``spread``
gives no results (a part raised, or a helper could not run its part), the
whole search runs once in this process, with the same result or the first
error.  One-restart and EB searches stay in one process: EB's spectra run
at the caller's count, a two-thread ``dsyevd`` ran three times slower
beside one busy thread (150 calls at N = 199: 0.9 s alone, 3.0 s), and
Hb's search replays Ha's memo.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._lapack import _LOCK, _scipy_threads, dpotrs, dtrtri
from .config import _config_chi, _config_eta, _config_fields, _config_instance
from .errors import InputError, NumericError
from .kernels import KernelStructure
from .solver import (
    RegressionData,
    _alpha_bar,
    _check_beta,
    _effective_alpha,
    _eig_psd,
    _finite_gram,
    _norm_constrained,
    _ridge,
    _shifted_cholesky,
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
    "select_hyperparameters",
]

_LOG_2PI = math.log(2.0 * math.pi)
_BAD_COST = 1e100
_KFOLD_K = 5  # folds of the kfold cost
# Nelder-Mead stopping tolerances of the search, in the transformed coordinates
SEARCH_XATOL = 1e-3
SEARCH_FATOL = 1e-8
# the EB search's memo of spectra, one per data (see module notes)
_SPECTRA = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start Nelder-Mead settings.

    ``max_evals`` is split evenly across the restarts, with a floor: each
    restart may spend ``max(max_evals // restarts, 2 * dim + 2)``
    evaluations, ``dim`` being the number of search coordinates (``beta``
    plus the feasible coordinates of ``eta``), so that its simplex can take
    at least one step.  Where the floor binds, a search spends more than
    ``max_evals``.  Each restart also stops on ``SEARCH_XATOL``/``SEARCH_FATOL``.
    """

    restarts: int = 8
    max_evals: int = 2000

    def __post_init__(self):
        _config_fields(self, ints={"restarts": 1, "max_evals": None})
        if self.max_evals < self.restarts:
            raise InputError(
                "max_evals must be >= restarts; each restart then spends at most "
                "max(max_evals // restarts, 2 * dim + 2) evaluations, dim being "
                "the number of search coordinates"
            )


@dataclass(frozen=True)
class SelectionConfig:
    """Cost choice, feasibility floor iota, stability target, and search budget.

    ``chi`` is the norm budget ``m c'Kc <= chi`` of the search and of the
    constrained fit; it only enters the search when the target is
    constrained and ``cap_aware_cost`` is set, the default (see module notes).
    """

    method: str = "eb"  # eb | gcv | kfold
    iota: float = 1e-10
    chi: float = 0.99
    cap_aware_cost: bool = True
    target: StabilityTarget = field(default_factory=StabilityTarget.unconstrained)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0

    def __post_init__(self):
        _config_fields(self, ints={"seed": 0}, reals=("iota",), bools=("cap_aware_cost",))
        object.__setattr__(self, "chi", _config_chi(self.chi))
        _config_instance(self.target, StabilityTarget, "selection target")
        _config_instance(self.optimizer, OptimizerConfig, "selection optimizer")
        if self.method not in ("eb", "gcv", "kfold"):
            raise InputError(f"unknown selection method {self.method!r}")
        if self.iota <= 0:
            raise InputError(f"iota must be > 0, got {self.iota!r}")


@dataclass(frozen=True)
class SelectionResult:
    """The selected point, its cost, and what the search spent.

    ``evaluations`` counts cost evaluations; ``factorizations`` counts what
    the search factored: a Cholesky factor (plain GCV) or a tridiagonal
    reduction (cap-aware GCV) per GCV evaluation, a spectrum per GCV
    fallback, and one per EB spectrum the memo lacked (see module notes).
    ``restarts`` holds one ``(evaluations, best_cost, stop_reason)`` per
    restart, in start order, with ``stop_reason`` ``"tolerance"`` or
    ``"maxfev"``; their evaluations sum to ``evaluations``.  Both are
    bookkeeping, so results that differ only in them compare equal.
    """

    beta: float
    eta: tuple
    cost: float
    evaluations: int
    feasible: bool
    factorizations: int = field(default=0, compare=False)
    restarts: tuple = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def _check_structure(structure, data: RegressionData) -> None:
    # a kernel instance's checks of its structure, once per search or cost
    _config_instance(structure, KernelStructure, "structure")
    structure.check_dim(data.regressors.shape[1])


def _gram(structure, eta, data: RegressionData) -> np.ndarray:
    return structure.from_terms(structure.validate_eta(_config_eta(eta)), data.terms)


def _spectrum(structure, eta, data: RegressionData):
    lam, _, yt = _eig_psd(_gram(structure, eta, data), data.targets)
    return lam, yt


def _eb_from_spectrum(lam, yt, beta, n) -> float:
    d = lam + beta
    return float(0.5 * np.sum(yt ** 2 / d) + 0.5 * np.sum(np.log(d)) + 0.5 * n * _LOG_2PI)


def _gcv_score(n, residual_sq, trace) -> float:
    """``N |(I - H) y|^2 / trace(I - H)^2``, as every GCV path forms it."""
    if trace == 0.0:
        raise NumericError("GCV trace vanished; increase iota")
    score = n * residual_sq / trace ** 2
    if not math.isfinite(score):
        raise NumericError(f"GCV score is {score}")
    return score


def _gcv_from_spectrum(lam, yt, beta, n) -> float:
    d = lam + beta
    return _gcv_score(n, float(np.sum((beta * yt / d) ** 2)), float(np.sum(beta / d)))


def _gcv(K, beta, data: RegressionData, spectrum) -> float:
    """GCV from ``L L' = K + beta I``: residual ``beta (K + beta I)^{-1} y``,
    ``trace(I - H) = beta |L^{-1}|_F^2``, in the spectral form's product order
    (finite up to ``beta = exp(690)``).  ``spectrum()`` serves where the
    factor fails, and only there is the Gram checked for negative eigenvalues."""
    _, L = _shifted_cholesky(K, beta)
    if L is None:
        lam, yt = spectrum()
        return _gcv_from_spectrum(lam, yt, beta, data.size)
    if not math.isfinite(float(np.trace(L))):
        # a nan pivot passes dpotrf's test, and an infinite one factors
        raise NumericError("the Gram is not finite")
    c, _ = dpotrs(L, data.targets, lower=1)
    L_inv, _ = dtrtri(L, lower=1, overwrite_c=1)
    return _gcv_score(data.size, float(np.sum((beta * c) ** 2)), beta * float(np.sum(L_inv ** 2)))


def eb_cost(beta: float, eta: tuple, data: RegressionData, structure: KernelStructure) -> float:
    """Negative log marginal likelihood of the targets under the kernel prior."""
    _check_beta(beta)
    _config_instance(data, RegressionData, "data")
    _check_structure(structure, data)
    lam, yt = _spectrum(structure, eta, data)
    return _eb_from_spectrum(lam, yt, beta, data.size)


def gcv_cost(beta: float, eta: tuple, data: RegressionData, structure: KernelStructure) -> float:
    """Generalized cross-validation score of the ridge smoother."""
    _check_beta(beta)
    _config_instance(data, RegressionData, "data")
    _check_structure(structure, data)
    with _LOCK:
        return _gcv(_gram(structure, eta, data), beta, data, lambda: _spectrum(structure, eta, data))


def _check_kfold_rows(data: RegressionData) -> None:
    if data.size < _KFOLD_K:
        raise InputError(f"kfold needs at least {_KFOLD_K} regression rows, one per fold, got {data.size}")


def _kfold(beta, eta, data, structure, chi) -> float:
    # chi switches the per-fold solve to the norm-capped one
    beta = _check_beta(beta)
    n = data.size
    K = _finite_gram(_gram(structure, eta, data))
    bounds = np.linspace(0, n, _KFOLD_K + 1, dtype=int)
    total = 0.0
    for i in range(_KFOLD_K):
        held = np.arange(bounds[i], bounds[i + 1])
        kept = np.setdiff1d(np.arange(n), held)
        K_kept, y_kept = K[np.ix_(kept, kept)], data.targets[kept]
        if chi is None:
            c = _ridge(K_kept, y_kept, beta)
        else:
            c, _ = _norm_constrained(K_kept, y_kept, data.model_order, chi, beta)
        pred = K[np.ix_(held, kept)] @ c
        total += float(np.sum((data.targets[held] - pred) ** 2))
    return total / n


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
        return float(np.sum((np.log(eta + 1e-12) - np.log(target + 1e-12)) ** 2))

    x, _, _, _ = _nelder_mead(
        mismatch, np.zeros(param.dim), maxfev=120 * param.dim, xatol=1e-6, fatol=1e-10, adaptive=False
    )
    return x


class _BudgetSpent(Exception):
    """The counted objective of :func:`_nelder_mead` refused an evaluation."""


def _nelder_mead(fun, x0, maxfev, xatol, fatol, adaptive):
    """Minimize ``fun`` by Nelder-Mead from ``x0``; ``(x, fun(x), evaluations,
    stop_reason)`` with ``stop_reason`` ``"tolerance"`` or ``"maxfev"``.

    The arithmetic is that of scipy 1.17's ``minimize(method="Nelder-Mead")``
    without bounds, callback or initial simplex, so the iterates have its
    bits (pinned by the test suite against scipy): the 5% / 0.00025 initial
    simplex, reflection 1, and either the classic coefficients or the
    dimension-adaptive ones of Gao & Han (Comput. Optim. Appl. 51, 2012).
    Vertices are reordered by ``np.argsort``'s default sort after every
    iteration, twice after the initial simplex.  The tolerances are tested
    before each iteration; an evaluation past ``maxfev`` is refused, which
    may stop a shrink half done.  ``fun`` receives a copy of each vertex.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    if adaptive:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)

    evaluations = 0

    def f(x):
        nonlocal evaluations
        if evaluations >= maxfev:
            raise _BudgetSpent
        evaluations += 1
        return fun(np.copy(x))

    def sort(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = sort(sim, fsim)
    sim, fsim = sort(sim, fsim)

    while evaluations < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi) * xbar - psi * sim[-1]  # outside contraction
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]  # inside contraction
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = sort(sim, fsim)

    return sim[0], np.min(fsim), evaluations, "maxfev" if evaluations >= maxfev else "tolerance"


# ---------------------------------------------------------------------------
# outer search
# ---------------------------------------------------------------------------

def select_hyperparameters(
    config: SelectionConfig,
    data: RegressionData,
    structure: KernelStructure,
) -> SelectionResult:
    """Minimize the configured cost over the target's feasibility set.

    The result's ``feasible`` records the target's membership test at the
    selected ``eta``, which a feasible map can fail past its edges (ROADMAP
    D7); an infeasible or unsupported (structure, target) pair, and a
    ``kfold`` search on fewer regression rows than its five folds, raise
    before any evaluation.
    """
    _config_instance(config, SelectionConfig, "config")
    _config_instance(data, RegressionData, "data")
    _check_structure(structure, data)
    param = feasible_parameterization(structure, config.target)
    if config.method == "kfold":
        _check_kfold_rows(data)
    dim = 1 + param.dim

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
    with _fit_threads(config.method):
        runs, factorizations = _restarts(config, data, structure, starts, budget)
    best_x, best_val = None, math.inf
    restarts = []
    for x, value, spent, stop in runs:
        restarts.append((spent, float(value), stop))
        if value < best_val:
            best_val, best_x = value, x

    # the budget floor lets each restart score its dim + 1 first vertices, all finite
    if best_val >= _BAD_COST:
        raise NumericError(
            "hyperparameter search found no finite cost; the kernel/data combination "
            "is numerically degenerate"
        )

    beta, eta = _decode(best_x, config.iota, param)
    return SelectionResult(
        beta=beta,
        eta=eta,
        cost=float(best_val),
        evaluations=sum(spent for spent, _, _ in restarts),
        feasible=bool(membership(structure, eta, config.target)),
        factorizations=factorizations,
        restarts=tuple(restarts),
    )


def _pinned(method: str) -> bool:
    """Whether a fit of the cost ``method`` is pinned: every cost but EB."""
    return method != "eb"


def _fit_threads(method: str):
    """The fit's thread rule: the scipy lock, on one thread where :func:`_pinned`."""
    return _scipy_threads() if _pinned(method) else _LOCK


def _decode(x, iota, param: FeasibleParameterization):
    """``(beta, eta)`` at the search coordinates ``x``."""
    return iota + math.exp(min(float(x[0]), 690.0)), tuple(param.to_eta(x[1:]))


class _Objective:
    """The cost of one search at its coordinates, ``_BAD_COST`` where the
    feasible map fails there, or the cost fails or is not finite; the main
    process and the helpers build it alike.  ``factorizations`` counts as
    :class:`SelectionResult` does."""

    def __init__(self, config: SelectionConfig, data: RegressionData, structure: KernelStructure):
        self.config, self.data, self.structure = config, data, structure
        self.param = feasible_parameterization(structure, config.target)
        self.charge_cap = config.target.constrained and config.cap_aware_cost
        self.spectra = _SPECTRA.setdefault(data, {}) if config.method == "eb" else None
        self.factorizations = 0

    def factor(self, eta):
        # every spectrum of the search, counted here
        self.factorizations += 1
        return _spectrum(self.structure, eta, self.data)

    def spectrum(self, eta):
        # EB's, memoized by eta's bytes: 0.0 and -0.0 never share an entry
        key = (self.structure, np.asarray(eta, dtype=float).tobytes())
        entry = self.spectra.get(key)
        if entry is None:
            lam, yt = entry = self.spectra[key] = self.factor(eta)
            lam.flags.writeable = yt.flags.writeable = False
        return entry

    def cost(self, beta, eta) -> float:
        config, data, structure = self.config, self.data, self.structure
        m = data.model_order
        if config.method == "kfold":
            chi = config.chi if self.charge_cap else None
            return _kfold(beta, eta, data, structure, chi)
        if config.method == "eb":
            lam, yt = self.spectrum(eta)
            if self.charge_cap:
                beta = max(beta, _alpha_bar(lam, yt ** 2, m, config.chi))
            return _eb_from_spectrum(lam, yt, beta, data.size)
        K = _gram(structure, eta, data)
        self.factorizations += 1
        if not self.charge_cap:
            return _gcv(K, beta, data, lambda: self.factor(eta))
        smoother = _effective_alpha(K, data.targets, m, config.chi, beta)
        if smoother is None:
            lam, yt = self.factor(eta)
            alpha = max(beta, _alpha_bar(lam, yt ** 2, m, config.chi))
            return _gcv_from_spectrum(lam, yt, alpha, data.size)
        _, residual_sq, trace = smoother
        return _gcv_score(data.size, residual_sq, trace)

    def __call__(self, x) -> float:
        try:
            value = self.cost(*_decode(x, self.config.iota, self.param))
        except (NumericError, OverflowError, InputError, ZeroDivisionError):
            # past its edge (ROADMAP D7) a map can divide by an underflowed 0,
            # or its image can leave the structure's domain, which the cost's
            # validation of eta rejects: an entry that overflowed, or a weight
            # that underflowed to 0
            return _BAD_COST
        return value if math.isfinite(value) else _BAD_COST


def _run_restarts(config, data, structure, starts, budget):
    """Nelder-Mead from each of ``starts`` in turn: the ``(x, cost,
    evaluations, stop_reason)`` of each, and the objective's
    ``factorizations``.  A helper runs this function for its restarts."""
    objective = _Objective(config, data, structure)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        runs = [
            _nelder_mead(objective, x0, maxfev=budget, xatol=SEARCH_XATOL, fatol=SEARCH_FATOL,
                         adaptive=len(x0) > 4)
            for x0 in starts
        ]
    return runs, objective.factorizations


def _cpus() -> int:
    # where the platform cannot tell the CPUs this process may run on, one
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _processes(restarts: int, cpus: int) -> int:
    """The number of processes that a pinned search of ``restarts`` restarts
    runs in on ``cpus`` CPUs: one where ``cpus < 2``, else the fewest in
    which none runs more than ``max(1, restarts // cpus)`` restarts."""
    if cpus < 2:
        return 1
    share = max(1, restarts // cpus)
    return min(restarts, -(-restarts // share))


def _restarts(config, data, structure, starts, budget):
    """:func:`_run_restarts` over every start, in start order; a pinned
    search runs restart k in process ``k mod P`` (see module notes)."""
    count = _processes(len(starts), _cpus()) if _pinned(config.method) else 1
    parts = None
    if count > 1:
        from . import _worker

        parts = _worker.spread(_run_restarts, [(config, data, structure, starts[j::count], budget)
                                               for j in range(count)])
    if parts is None:
        # in one process, in start order: the runs, or the first error, of a one-process search
        return _run_restarts(config, data, structure, starts, budget)
    runs = [None] * len(starts)
    for j, (part, _) in enumerate(parts):
        runs[j::count] = part
    return runs, sum(factorizations for _, factorizations in parts)
