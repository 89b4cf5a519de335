"""Regression problem assembly and the (constrained) kernel ridge solve.

The unconstrained fit solves ``(K + beta I) c = y``.  The norm-constrained
fit additionally enforces ``m * c' K c <= chi`` by raising the effective
regularizer: with ``gamma(alpha) = m y' (K + alpha I)^{-1} K (K + alpha I)^{-1} y
- chi`` (non-increasing in alpha, limit -chi), the solution is

    c = (K + max(alpha_bar, beta) I)^{-1} y,

where ``alpha_bar`` is the root of ``gamma`` when one exists and 0
otherwise.  This satisfies the KKT conditions of the finite-dimensional
problem with multiplier ``(max(alpha_bar, beta) - beta) / m``, so it is a
global optimum of the convex program.

The constrained solve, ``gamma_fn`` and ``find_alpha_bar`` evaluate every
alpha-dependent quantity through one symmetric eigendecomposition of K per
problem, :func:`_eig_psd`, which also gives every spectral path ``Q'y``,
and every spectral root is :func:`_alpha_bar`; eigenvalues within
``-1e-10 |K|`` of zero are clamped to zero; anything lower, and a spectrum
that is not finite, raises :class:`NumericError`.  The plain ridge solve
and the search's plain GCV factor ``K + beta I`` by Cholesky.  The
cap-aware GCV takes its root and the smoother's residual and trace from one
tridiagonal reduction of K.  Each falls back to the spectrum where LAPACK
rejects it; EB follows after ROADMAP Direction 2.

The LAPACK and BLAS routines (``dsyevd``, ``dpotrf``, ``dsytrd``, ``dptsv``
and the rest) are scipy's compiled ones, bound by
:mod:`stable_sysid._lapack` from scipy's ``_flapack``/``_fblas`` extension
files without importing the ``scipy.linalg`` package, whose ``__init__``
cost every process about 0.3 s and 16 MB of start-up;
``scipy.linalg.lapack`` holds the same objects.

Gram matrices over a :class:`RegressionData` are assembled, exactly
symmetric, from its ``terms`` (:class:`~stable_sysid.kernels.PairTerms`),
built on first use and kept for the life of the data, so the search and the
final solve share one copy.  The two matrix solves, ``_ridge`` and
``_norm_constrained``, take only such Grams and their principal submatrices
(k-fold's folds); ``gamma_fn`` and ``find_alpha_bar`` check and symmetrize
a caller's ``K`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lapack import (
    _scipy_threads, dnrm2, dpotrf, dpotrs, dptsv, dpttrs, dsyevd, dsymv, dsyr2, dsytrd, dsytrd_lwork,
)
from .config import (
    _config_array, _config_chi, _config_fields, _config_instance, _config_int, _config_nonnegative, _config_real,
)
from .errors import InputError, NumericError
from .kernels import KernelInstance, PairTerms

__all__ = [
    "RegressionData",
    "FitProblem",
    "FitReport",
    "build_regression_data",
    "gamma_fn",
    "find_alpha_bar",
    "solve_constrained",
]

PSD_RTOL = 1e-10
NEWTON_STEPS = 50


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegressionData:
    """Regressor matrix (one row per time step), targets, and model order.

    ``terms`` holds the regressors' pair terms.  It is built on first use
    only: data that is never put through a Gram matrix (one-step prediction
    windows, say) never pays for an N x N array.

    A data compares and hashes by identity, so the EB search can keep its
    memo of spectra per data (see :mod:`stable_sysid.selection`).
    """

    regressors: np.ndarray
    targets: np.ndarray
    model_order: int

    def __post_init__(self):
        object.__setattr__(self, "model_order", _config_int(self.model_order, "model order m", 1))
        reg = _config_array(self.regressors, "regressors", 2)
        tgt = _config_array(self.targets, "targets", 1)
        m = self.model_order
        if reg.shape[1] != 2 * m + 1:
            raise InputError(
                f"regressors must be N x {2 * m + 1} for model order {m}, got shape {reg.shape}"
            )
        if tgt.shape[0] != reg.shape[0] or reg.shape[0] < 1:
            raise InputError("targets must be a vector with one entry per regressor row")
        object.__setattr__(self, "regressors", reg)
        object.__setattr__(self, "targets", tgt)

    @property
    def size(self) -> int:
        return self.regressors.shape[0]

    @cached_property
    def terms(self) -> PairTerms:
        return PairTerms(self.regressors, self.regressors)


@dataclass(frozen=True)
class FitProblem:
    """One fit: data, kernel, regularization, and the norm budget.

    ``constrained=False`` solves the plain ridge problem; ``True`` adds the
    constraint ``m |f|^2 <= chi`` with ``chi`` in (0, 1).
    """

    data: RegressionData
    kernel: KernelInstance
    beta: float
    chi: float = 0.99
    constrained: bool = True

    def __post_init__(self):
        _config_instance(self.data, RegressionData, "fit data")
        _config_instance(self.kernel, KernelInstance, "fit kernel")
        object.__setattr__(self, "beta", _check_beta(self.beta))
        _config_fields(self, reals=("chi",), bools=("constrained",))
        if self.constrained:
            _config_chi(self.chi)
        if self.kernel.input_dim != 2 * self.data.model_order + 1:
            raise InputError(
                f"kernel input_dim {self.kernel.input_dim} does not match model order "
                f"{self.data.model_order}"
            )


@dataclass(frozen=True)
class FitReport:
    """Solved coefficients plus the quantities the stability theory cares about.

    ``effective_alpha = max(alpha_bar, beta)``; ``mu = m * c' K c``, the
    squared RKHS norm of the predictor times the model order, is the
    contraction budget actually used (at most chi + roundoff when the fit is
    constrained); ``constraint_active`` records whether the norm budget
    raised the regularizer above beta.
    """

    coefficients: np.ndarray
    beta: float
    alpha_bar: float
    effective_alpha: float
    constraint_active: bool
    mu: float


# ---------------------------------------------------------------------------
# regressor assembly
# ---------------------------------------------------------------------------

def build_regression_data(u, y, m: int) -> RegressionData:
    """Window a sampled input/output pair into regressors and targets.

    For each time ``t`` in ``{m+1, ..., n}`` (1-based) the regressor is
    ``(y_{t-m}, ..., y_{t-1}, u_{t-m}, ..., u_t)`` and the target is ``y_t``,
    giving ``n - m`` rows of dimension ``2m + 1``.  :class:`RegressionData`
    checks that every value is finite.
    """
    u = _config_array(u, "u", 1, finite=False)
    y = _config_array(y, "y", 1, finite=False)
    if u.shape[0] != y.shape[0]:
        raise InputError("u and y must be equal-length 1-D sequences")
    n = u.shape[0]
    m = _config_int(m, "model order m", 1)
    if n <= m:
        raise InputError(f"need n > m samples, got n = {n} <= m = {m}")
    rows = np.empty((n - m, 2 * m + 1))
    rows[:, :m] = sliding_window_view(y[:-1], m)
    rows[:, m:] = sliding_window_view(u, m + 1)
    return RegressionData(regressors=rows, targets=y[m:].copy(), model_order=m)


# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------

def _check_beta(beta) -> float:
    value = _config_real(beta, "beta")
    if not value > 0:
        raise InputError(f"beta must be finite and > 0, got {beta!r}")
    return value


def _check_gap(m, chi) -> int:
    """The model order of a constraint gap, checked with ``chi``: ``m`` a
    count >= 1 and ``chi`` finite and > 0, else :class:`InputError`."""
    m = _config_int(m, "model order m", 1)
    if not _config_real(chi, "chi") > 0:
        raise InputError(f"chi must be > 0, got {chi!r}")
    return m


def _validate_matrix(K, y):
    K = _config_array(K, "K", 2)
    y = _config_array(y, "y", 1)
    if K.shape[0] != K.shape[1]:
        raise InputError(f"K must be square, got shape {K.shape}")
    if y.shape[0] != K.shape[0]:
        raise InputError(f"y must have length {K.shape[0]}, got shape {y.shape}")
    # a caller's matrix may carry roundoff asymmetry; the package's Grams
    # are exactly symmetric as assembled and never come here
    return 0.5 * (K + K.T), y


def _finite_gram(K: np.ndarray) -> np.ndarray:
    # a package Gram passes no boundary rule, yet finite data and eta can
    # overflow an entry: raise rather than return nan coefficients
    if not np.all(np.isfinite(K)):
        raise NumericError("the Gram is not finite")
    return K


def _eig_psd(K: np.ndarray, y: np.ndarray):
    """``(lam, Q, Q'y)``: the eigendecomposition of a symmetric PSD matrix,
    with roundoff clamping, and ``y`` rotated into its eigenbasis.

    This is the package's only spectral factorization and the only place
    that rotates into an eigenbasis: scipy's ``dsyevd`` on the lower
    triangle, at scipy's thread count of the moment (one inside a pinned
    search; see :mod:`stable_sysid._lapack`).  ``K`` must be exactly symmetric.  A
    spectrum that is not finite (an overflowed Gram) raises
    :class:`NumericError`.  Eigenvalues in ``[-1e-10 |K|, 0)`` are set to
    zero; anything below that raises :class:`NumericError` with the
    offending value.
    """
    # the transpose of a symmetric C-ordered array is its Fortran-ordered self
    with _scipy_threads():
        lam, Q, info = dsyevd(K.T, compute_v=1, lower=1)
    if info != 0:
        raise NumericError(f"eigendecomposition failed: LAPACK dsyevd info {info}")
    scale = float(np.max(np.abs(lam)))
    if not math.isfinite(scale):
        raise NumericError("the Gram is not finite")
    scale = max(scale, 1e-300)
    if lam[0] < -PSD_RTOL * scale:
        raise NumericError(
            f"matrix is not positive semidefinite within tolerance: "
            f"min eigenvalue {lam[0]:.3e} vs spectral norm {scale:.3e}"
        )
    lam = np.maximum(lam, 0.0)
    # Q'y in C order: a Fortran-ordered Q rounds the product differently
    Q = np.ascontiguousarray(Q)
    return lam, Q, Q.T @ y


def _shifted_cholesky(K: np.ndarray, beta: float):
    """``A = K + beta I`` (``K`` exactly symmetric) and its lower Cholesky
    factor, or None for the factor where LAPACK rejects it.  This is the
    package's only Cholesky, scipy's ``dpotrf``, at scipy's thread count of
    the moment (one inside a pinned search; see :mod:`stable_sysid._lapack`)."""
    A = np.array(K, dtype=float)
    A.flat[::A.shape[0] + 1] += beta
    # the transpose of a symmetric C-ordered array is its Fortran-ordered self
    L, info = dpotrf(A.T, lower=1, clean=1)
    return A, (L if info == 0 else None)


def _gamma_from_eigs(lam, yt2, lam_yt2, m, chi, alpha):
    # lam_yt2 = lam * yt2, hoisted by the caller: the quotient
    # lam * yt2 / (lam + alpha) ** 2 already evaluates it first
    if alpha == 0.0:
        mask = lam > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            val = m * float(np.sum(yt2[mask] / lam[mask]))
        return val - chi
    d = lam + alpha
    np.square(d, out=d)
    np.divide(lam_yt2, d, out=d)
    return m * float(np.sum(d)) - chi


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _ridge(K, y, beta) -> np.ndarray:
    """Solve ``(K + beta I) c = y`` for an exactly symmetric PSD ``K`` and
    beta > 0.  One step of iterative refinement keeps the relative residual
    near machine precision even when beta is tiny relative to the spectrum."""
    with _scipy_threads():
        A, L = _shifted_cholesky(K, beta)
        if L is None:
            lam, Q, yt = _eig_psd(K, y)
            return Q @ (yt / (lam + beta))
        c = dpotrs(L, y, lower=1)[0]
        c += dpotrs(L, y - A @ c, lower=1)[0]
        return c


def gamma_fn(K, y, m: int, chi: float, alpha: float) -> float:
    """The scalar constraint gap ``m y'(K+aI)^{-1} K (K+aI)^{-1} y - chi``.

    Evaluated in eigenform; at ``alpha = 0`` the zero eigendirections
    contribute their limit value 0.  Non-increasing in alpha with limit
    ``-chi``.
    """
    m = _check_gap(m, chi)
    alpha = _config_nonnegative(alpha, "alpha")
    lam, _, yt = _eig_psd(*_validate_matrix(K, y))
    yt2 = yt ** 2
    return _gamma_from_eigs(lam, yt2, lam * yt2, m, chi, alpha)


def _alpha_bar(lam, yt2, m, chi) -> float:
    # the spectral root of every solve and search, on arrays the package
    # computed: bracket geometrically, bisect, then polish by Newton steps
    lam_yt2 = lam * yt2
    g = lambda a: _gamma_from_eigs(lam, yt2, lam_yt2, m, chi, a)
    if g(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    for _ in range(600):
        if g(hi) < 0.0:
            break
        hi *= 4.0
    else:  # pragma: no cover - limit of gamma is -chi < 0
        raise NumericError("failed to bracket the constraint-gap root")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    for _ in range(4):
        val = g(alpha)
        slope = -2.0 * m * float(np.sum(lam_yt2 / (lam + alpha) ** 3))
        if slope == 0.0:
            break
        step = val / slope
        nxt = alpha - step
        if not (lo <= nxt <= hi):
            break
        alpha = nxt
        if abs(step) <= 1e-17 * (1.0 + alpha):
            break
    return alpha


def _effective_alpha(K: np.ndarray, y: np.ndarray, m: int, chi: float, beta: float):
    """``(alpha, |(I - H) y|^2, trace(I - H))`` at ``alpha = max(beta,
    alpha_bar)``, with ``H = K (K + alpha I)^{-1}``, for an exactly symmetric
    Gram without its spectrum, or None where this path cannot vouch for it
    (the caller then takes the spectral root, :func:`_alpha_bar`).

    A reflector ``I - 2uu'`` maps y onto e1, and a lower ``dsytrd`` reduces
    the reflected Gram to a tridiagonal T and keeps e1, so the gap is
    ``m|y|^2 v'Tv - chi`` with ``(T + alpha I) v = e1``.  Where the gap at
    beta is positive, Newton on ``1/sqrt(gap + chi)``, concave and increasing
    (Moré & Sorensen 1983), rises to the root at O(N) a step.  It starts from
    the first of ``m|y|^2 / (4^k chi)``, k >= 1, below the root, not from
    beta, so the root has the same bits for every beta below it, as the
    spectral root has.  At alpha, ``(K + alpha I)^{-1} y`` has the norm
    ``|y| |v|``, and ``trace((K + alpha I)^{-1}) = sum(z)`` from ``dptsv``'s
    factor ``L D L'`` of ``T + alpha I``: ``z_n = 1/D_n``,
    ``z_i = 1/D_i + l_i^2 z_{i+1}``.  ``dsytrd`` runs blocked only with
    ``dsytrd_lwork``'s workspace (1.2 ms against 3.0 ms at N = 198)."""
    n = K.shape[0]
    # scipy's dptsv rejects the empty off-diagonal of a 1 x 1 problem
    if n < 2 or not np.all(np.isfinite(K)):
        return None
    norm = float(dnrm2(y))
    u = np.array(y, dtype=float)
    if norm > 0.0:
        u[0] += math.copysign(norm, u[0])
        u /= dnrm2(u)
    Ku = dsymv(1.0, K.T, u, lower=1)
    # the lower triangle of (I - 2uu') K (I - 2uu') = K - 2(uw' + wu')
    A = dsyr2(-2.0, u, Ku - float(np.sum(u * Ku)) * u, lower=1, a=K.T)
    lwork = int(dsytrd_lwork(n, lower=1)[0])
    _, d, e, _, info = dsytrd(A, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:
        return None
    scale, e1 = m * norm * norm, np.eye(1, n)[0]

    def shifted(alpha):
        # the factor of T + alpha I, v, Tv and gap + chi, or None
        df, ef, v, info = dptsv(d + alpha, e, e1)
        if info != 0:
            return None
        Tv = d * v
        Tv[:-1] += e * v[1:]
        Tv[1:] += e * v[:-1]
        return df, ef, v, Tv, scale * float(np.sum(v * Tv))

    alpha = beta
    at = at_beta = shifted(beta)
    if at_beta is None:
        return None
    if at_beta[4] > chi:
        # the root is below m|y|^2 / (4 chi), since lam / (lam + a)^2 <= 1/(4a)
        alpha = scale / (4.0 * chi)
        while True:
            alpha *= 0.25
            at = shifted(alpha)
            if at is None or not 0.0 < alpha < math.inf:
                return None
            if at[4] > chi:
                break
        for _ in range(NEWTON_STEPS):
            df, ef, v, Tv, reach = at
            if reach <= chi:
                break
            # d reach / d alpha = -2 scale v'T (T + alpha I)^{-1} v
            x, _ = dpttrs(df, ef, v)
            step = reach * (math.sqrt(reach / chi) - 1.0) / (scale * float(np.sum(Tv * x)))
            if not math.isfinite(step):
                return None
            alpha += step
            at = shifted(alpha)
            if at is None:
                return None
            if step <= 1e-12 * alpha:
                break
        else:
            return None
        if alpha < beta:
            alpha, at = beta, at_beta
    df, ef, v = at[:3]
    inv_d, l_sq = (1.0 / df).tolist(), (ef * ef).tolist()
    z = inv_trace = inv_d[-1]
    for inv_di, l_sq_i in zip(inv_d[-2::-1], l_sq[::-1]):
        z = inv_di + l_sq_i * z
        inv_trace += z
    residual_sq = norm * norm * float(np.sum((alpha * v) ** 2))
    return alpha, residual_sq, alpha * inv_trace


def find_alpha_bar(K, y, m: int, chi: float) -> float:
    """Root of the constraint gap, or 0 when the gap is nonpositive at 0.

    The returned root has ``|gamma| <= 1e-10``.
    """
    m = _check_gap(m, chi)
    lam, _, yt = _eig_psd(*_validate_matrix(K, y))
    return _alpha_bar(lam, yt ** 2, m, chi)


def _norm_constrained(K, y, m, chi, beta):
    """``(c, alpha_bar)`` with ``c = (K + max(alpha_bar, beta) I)^{-1} y``,
    solved through one eigendecomposition of an exactly symmetric ``K``."""
    lam, Q, yt = _eig_psd(K, y)
    alpha_bar = _alpha_bar(lam, yt ** 2, m, chi)
    effective = max(alpha_bar, beta)
    c = Q @ (yt / (lam + effective))
    return c, alpha_bar


def solve_constrained(problem: FitProblem) -> FitReport:
    """Solve a :class:`FitProblem`, constrained or plain ridge.

    The returned report satisfies ``effective_alpha >= beta`` always and,
    for constrained problems, ``mu <= chi`` up to root-finding tolerance
    with ``constraint_active`` set when the norm budget binds.
    """
    _config_instance(problem, FitProblem, "problem")
    K = _finite_gram(problem.kernel.structure.from_terms(problem.kernel.eta, problem.data.terms))
    y = problem.data.targets
    m = problem.data.model_order
    if problem.constrained:
        c, alpha_bar = _norm_constrained(K, y, m, problem.chi, problem.beta)
    else:
        c, alpha_bar = _ridge(K, y, problem.beta), 0.0
    return FitReport(
        coefficients=c,
        beta=problem.beta,
        alpha_bar=alpha_bar,
        effective_alpha=max(alpha_bar, problem.beta),
        constraint_active=problem.constrained and alpha_bar > problem.beta,
        mu=m * float(c @ (K @ c)),
    )
