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

All alpha-dependent quantities are evaluated through one symmetric
eigendecomposition of K per problem; eigenvalues within ``-1e-10 |K|`` of
zero are clamped to zero, anything lower raises :class:`NumericError`.

Gram matrices over a :class:`RegressionData` are assembled from its
``terms``, the regressors' ``eta``-independent pair terms
(:class:`~stable_sysid.kernels.PairTerms`), built on first use and kept for
the life of the data, so the hyperparameter search and the final solve
share one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, NumericError
from .kernels import KernelInstance, PairTerms, _config_int, gram_from_terms

__all__ = [
    "RegressionData",
    "FitProblem",
    "FitReport",
    "build_regression_data",
    "solve_ridge",
    "gamma_fn",
    "alpha_bar_from_spectrum",
    "find_alpha_bar",
    "solve_norm_constrained",
    "solve_constrained",
]

PSD_RTOL = 1e-10


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionData:
    """Regressor matrix (one row per time step), targets, and model order.

    ``terms`` holds the regressors' pair terms.  It is built on first use
    only: data that is never put through a Gram matrix (one-step prediction
    windows, say) never pays for an N x N array.

    ``spectra`` is the hyperparameter search's memo of Gram spectra on this
    data, keyed by the structure and the bytes of ``eta``: each entry is the
    read-only pair ``(lam, Q'y)`` of one factorization.  It starts empty, is
    filled only by :func:`~stable_sysid.selection.select_hyperparameters`,
    and lives as long as the data, so searches on the same data share their
    factorizations.
    """

    regressors: np.ndarray
    targets: np.ndarray
    model_order: int

    def __post_init__(self):
        object.__setattr__(self, "model_order", _config_int(self.model_order, "model order m", 1))
        reg = np.asarray(self.regressors, dtype=float)
        tgt = np.asarray(self.targets, dtype=float)
        m = self.model_order
        if reg.ndim != 2 or reg.shape[1] != 2 * m + 1:
            raise InputError(
                f"regressors must be N x {2 * m + 1} for model order {m}, got shape {reg.shape}"
            )
        if tgt.ndim != 1 or tgt.shape[0] != reg.shape[0] or reg.shape[0] < 1:
            raise InputError("targets must be a vector with one entry per regressor row")
        if not (np.all(np.isfinite(reg)) and np.all(np.isfinite(tgt))):
            raise InputError("regression data contains non-finite values")
        object.__setattr__(self, "regressors", reg)
        object.__setattr__(self, "targets", tgt)

    @property
    def size(self) -> int:
        return self.regressors.shape[0]

    @cached_property
    def terms(self) -> PairTerms:
        return PairTerms(self.regressors, self.regressors)

    @cached_property
    def spectra(self) -> dict:
        return {}


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
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InputError(f"beta must be finite and > 0, got {self.beta!r}")
        if self.constrained and not (0.0 < self.chi < 1.0):
            raise InputError(f"chi must lie in (0, 1), got {self.chi!r}")
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
    giving ``n - m`` rows of dimension ``2m + 1``.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != 1 or y.ndim != 1 or u.shape[0] != y.shape[0]:
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

def _validate_matrix(K, y):
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InputError(f"K must be square, got shape {K.shape}")
    if y.ndim != 1 or y.shape[0] != K.shape[0]:
        raise InputError(f"y must have length {K.shape[0]}, got shape {y.shape}")
    if not (np.all(np.isfinite(K)) and np.all(np.isfinite(y))):
        raise InputError("K and y must be finite")
    # caller-supplied matrices may carry roundoff asymmetry; Gram matrices
    # are exactly symmetric and skip this step on the search path
    return 0.5 * (K + K.T), y


def _eig_psd(K: np.ndarray):
    """Eigendecomposition of a symmetric PSD matrix with roundoff clamping.

    This is the package's only spectral factorization.  ``K`` must be
    exactly symmetric.  Eigenvalues in ``[-1e-10 |K|, 0)`` are set to zero;
    anything below that raises :class:`NumericError` with the offending
    value.
    """
    try:
        lam, Q = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    scale = max(float(np.max(np.abs(lam))), 1e-300)
    if lam[0] < -PSD_RTOL * scale:
        raise NumericError(
            f"matrix is not positive semidefinite within tolerance: "
            f"min eigenvalue {lam[0]:.3e} vs spectral norm {scale:.3e}"
        )
    lam = np.maximum(lam, 0.0)
    return lam, Q


def _rotated_spectrum(K, y):
    """Validate ``(K, y)``, factor K, and rotate y into its eigenbasis."""
    K, y = _validate_matrix(K, y)
    lam, Q = _eig_psd(K)
    return lam, Q, Q.T @ y


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

def solve_ridge(K, y, beta: float) -> np.ndarray:
    """Solve ``(K + beta I) c = y`` for symmetric PSD K and beta > 0.

    One step of iterative refinement keeps the relative residual near
    machine precision even when beta is tiny relative to the spectrum.
    """
    K, y = _validate_matrix(K, y)
    if not (beta > 0 and math.isfinite(beta)):
        raise InputError(f"beta must be finite and > 0, got {beta!r}")
    A = K + beta * np.eye(K.shape[0])
    try:
        factor = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        c = scipy.linalg.cho_solve(factor, y, check_finite=False)
        c += scipy.linalg.cho_solve(factor, y - A @ c, check_finite=False)
    except scipy.linalg.LinAlgError:
        lam, Q = _eig_psd(K)
        c = Q @ (Q.T @ y / (lam + beta))
    return c


def gamma_fn(K, y, m: int, chi: float, alpha: float) -> float:
    """The scalar constraint gap ``m y'(K+aI)^{-1} K (K+aI)^{-1} y - chi``.

    Evaluated in eigenform; at ``alpha = 0`` the zero eigendirections
    contribute their limit value 0.  Non-increasing in alpha with limit
    ``-chi``.
    """
    if alpha < 0:
        raise InputError(f"alpha must be >= 0, got {alpha!r}")
    lam, _, yt = _rotated_spectrum(K, y)
    yt2 = yt ** 2
    return _gamma_from_eigs(lam, yt2, lam * yt2, m, chi, float(alpha))


def alpha_bar_from_spectrum(lam: np.ndarray, yt2: np.ndarray, m: int, chi: float) -> float:
    """Constraint-gap root given eigenvalues and squared rotated targets.

    Brackets geometrically, bisects the monotone eigenform, then polishes
    with Newton steps.
    """
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


def find_alpha_bar(K, y, m: int, chi: float) -> float:
    """Root of the constraint gap, or 0 when the gap is nonpositive at 0.

    The returned root has ``|gamma| <= 1e-10``.
    """
    lam, _, yt = _rotated_spectrum(K, y)
    return alpha_bar_from_spectrum(lam, yt ** 2, m, chi)


def solve_norm_constrained(K, y, m: int, chi: float, beta: float):
    """Matrix-level constrained solve, returning ``(c, alpha_bar)``.

    ``c = (K + max(alpha_bar, beta) I)^{-1} y`` solved through the shared
    eigendecomposition.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise InputError(f"beta must be finite and > 0, got {beta!r}")
    if not chi > 0:
        raise InputError(f"chi must be > 0, got {chi!r}")
    lam, Q, yt = _rotated_spectrum(K, y)
    alpha_bar = alpha_bar_from_spectrum(lam, yt ** 2, m, chi)
    effective = max(alpha_bar, beta)
    c = Q @ (yt / (lam + effective))
    return c, alpha_bar


def solve_constrained(problem: FitProblem) -> FitReport:
    """Solve a :class:`FitProblem`, constrained or plain ridge.

    The returned report satisfies ``effective_alpha >= beta`` always and,
    for constrained problems, ``mu <= chi`` up to root-finding tolerance
    with ``constraint_active`` set when the norm budget binds.
    """
    K = gram_from_terms(problem.kernel, problem.data.terms)
    y = problem.data.targets
    m = problem.data.model_order
    try:
        if problem.constrained:
            c, alpha_bar = solve_norm_constrained(K, y, m, problem.chi, problem.beta)
        else:
            c = solve_ridge(K, y, problem.beta)
            alpha_bar = 0.0
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(K + problem.beta * np.eye(K.shape[0]))
        raise NumericError(f"linear solve failed (condition number {cond:.3e}): {exc}") from exc
    return FitReport(
        coefficients=c,
        beta=problem.beta,
        alpha_bar=alpha_bar,
        effective_alpha=max(alpha_bar, problem.beta),
        constraint_active=problem.constrained and alpha_bar > problem.beta,
        mu=m * float(c @ (K @ c)),
    )
