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

Gram and cross matrices are assembled from :class:`PairTerms`, the
``eta``-independent pair geometry of two point sets (inner products, squared
distances, distances, ``narx_fading`` window sums), each computed on first
use and then kept.  A caller that evaluates many ``eta`` on one point set
keeps one ``PairTerms`` and pays for the geometry once; only the
``eta``-dependent ``exp``/``sqrt`` work is redone per evaluation.

All evaluation routines are pure functions of immutable inputs and safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError

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
]

_INV_E = math.exp(-1.0)


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def lambert_w0(x: float, tol: float = 1e-12) -> float:
    """Principal branch of the Lambert W function.

    Solves ``w * exp(w) = x`` for ``w >= -1``, defined for ``x >= -1/e``.
    Halley iteration from ``log(1 + x)`` for ``x >= 0``, from a branch-point
    series for ``x`` near ``-1/e``, and from a small-argument start
    otherwise.

    Parameters
    ----------
    x : float
        Argument, must satisfy ``x >= -1/e`` up to a small tolerance.
    tol : float
        Allowed undershoot below ``-1/e`` before a domain error is raised.

    Returns
    -------
    float
        ``w`` with residual ``|w exp(w) - x| <= 1e-12 * max(1, |x|)``.
    """
    if not math.isfinite(x):
        raise InputError(f"lambert_w0 requires a finite argument, got {x!r}")
    if x < -_INV_E - tol:
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
            A, B = self.A, self.B
            coords = [(A[:, c, None] - B[None, :, c]) ** 2 for c in range(A.shape[1])]
            self._windows[key] = _window_sums(coords, m, p)
        return self._windows[key]


def _gauss(tau, gamma, sigma, sq: np.ndarray) -> np.ndarray:
    """``tau exp(-gamma sq) + sigma``, assembled in one fresh array."""
    K = np.multiply(-gamma, sq, dtype=float)
    np.exp(K, out=K)
    K *= tau
    K += sigma
    return K


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def _check_nonneg(eta: tuple, names: tuple) -> None:
    for value, name in zip(eta, names):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise InputError(f"hyperparameter {name} must be finite, got {value!r}")
        if value < 0:
            raise InputError(f"hyperparameter {name} must be >= 0, got {value!r}")


class KernelStructure:
    """Base class for kernel structures.  Subclasses implement the arity of
    the hyperparameter vector, its domain validation, and the vectorized
    evaluation paths (rowwise pairs, the cross matrix from pair terms,
    diagonal)."""

    name: str = ""
    is_stationary: bool = False

    @property
    def arity(self) -> int:
        raise NotImplementedError

    def validate_eta(self, eta: tuple) -> None:
        raise NotImplementedError

    def pair_values(self, eta: tuple, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """k_eta(A[i], B[i]) for each row i."""
        raise NotImplementedError

    def from_terms(self, eta: tuple, terms: PairTerms) -> np.ndarray:
        """Matrix with entries k_eta(terms.A[i], terms.B[j]).

        The result is a fresh array that the caller may modify; the
        cached terms themselves are never returned or written.
        """
        raise NotImplementedError

    def cross_matrix(self, eta: tuple, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix with entries k_eta(A[i], B[j])."""
        return self.from_terms(eta, PairTerms(A, B))

    def diag_values(self, eta: tuple, A: np.ndarray) -> np.ndarray:
        """k_eta(A[i], A[i]) for each row i."""
        raise NotImplementedError

    def stationary_peak(self, eta: tuple) -> float:
        """Value of the stationary profile at zero lag (stationary kernels)."""
        raise InputError(f"kernel structure {self.name!r} is not stationary")

    def check_dim(self, input_dim: int) -> None:
        """Hook for structures that constrain the ambient dimension."""


@dataclass(frozen=True)
class LinearAffine(KernelStructure):
    name: str = field(default="linear_affine", init=False)

    @property
    def arity(self) -> int:
        return 2

    def validate_eta(self, eta):
        if len(eta) != 2:
            raise InputError(f"linear_affine expects eta = (tau, sigma), got {eta!r}")
        _check_nonneg(eta, ("tau", "sigma"))

    def pair_values(self, eta, A, B):
        tau, sigma = eta
        return tau * np.einsum("ij,ij->i", A, B) + sigma

    def from_terms(self, eta, terms):
        tau, sigma = eta
        return tau * terms.inner + sigma

    def diag_values(self, eta, A):
        tau, sigma = eta
        return tau * np.einsum("ij,ij->i", A, A) + sigma


@dataclass(frozen=True)
class Polynomial(KernelStructure):
    """Homogeneous polynomial kernel (a.b)^degree with integer degree >= 2.

    The degree is the single hyperparameter of the family; it is carried on
    the structure, so eta is empty.
    """

    degree: int = 2
    name: str = field(default="polynomial", init=False)

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree < 2:
            raise InputError(f"polynomial degree must be an integer >= 2, got {self.degree!r}")

    @property
    def arity(self) -> int:
        return 0

    def validate_eta(self, eta):
        if len(eta) != 0:
            raise InputError(f"polynomial carries its degree on the structure; eta must be empty, got {eta!r}")

    def pair_values(self, eta, A, B):
        return np.einsum("ij,ij->i", A, B) ** self.degree

    def from_terms(self, eta, terms):
        return terms.inner ** self.degree

    def diag_values(self, eta, A):
        return np.einsum("ij,ij->i", A, A) ** self.degree


@dataclass(frozen=True)
class Gaussian(KernelStructure):
    name: str = field(default="gaussian", init=False)
    is_stationary: bool = field(default=True, init=False)

    @property
    def arity(self) -> int:
        return 3

    def validate_eta(self, eta):
        if len(eta) != 3:
            raise InputError(f"gaussian expects eta = (tau, gamma, sigma), got {eta!r}")
        _check_nonneg(eta, ("tau", "gamma", "sigma"))

    def pair_values(self, eta, A, B):
        return _gauss(*eta, _sq_dist_pairs(A, B))

    def from_terms(self, eta, terms):
        return _gauss(*eta, terms.sq)

    def diag_values(self, eta, A):
        tau, gamma, sigma = eta
        return np.full(A.shape[0], tau + sigma)

    def stationary_peak(self, eta):
        tau, _, sigma = eta
        return tau + sigma


@dataclass(frozen=True)
class Matern32(KernelStructure):
    name: str = field(default="matern32", init=False)
    is_stationary: bool = field(default=True, init=False)

    @property
    def arity(self) -> int:
        return 3

    def validate_eta(self, eta):
        if len(eta) != 3:
            raise InputError(f"matern32 expects eta = (tau, gamma, sigma), got {eta!r}")
        _check_nonneg(eta, ("tau", "gamma", "sigma"))

    @staticmethod
    def _profile(tau, gamma, sigma, dist):
        r = math.sqrt(3.0) * gamma * dist
        return tau * (1.0 + r) * np.exp(-r) + sigma

    def pair_values(self, eta, A, B):
        return self._profile(*eta, np.sqrt(_sq_dist_pairs(A, B)))

    def from_terms(self, eta, terms):
        return self._profile(*eta, terms.dist)

    def diag_values(self, eta, A):
        tau, _, sigma = eta
        return np.full(A.shape[0], tau + sigma)

    def stationary_peak(self, eta):
        tau, _, sigma = eta
        return tau + sigma


@dataclass(frozen=True)
class NarxFading(KernelStructure):
    """Fading-memory kernel on lag windows of the regressor difference.

    ``model_order`` is the number of past outputs in the regressor and
    ``window`` the sliding-window width ``p`` in ``{1, ..., model_order}``.
    """

    model_order: int = 2
    window: int = 1
    name: str = field(default="narx_fading", init=False)
    is_stationary: bool = field(default=True, init=False)

    def __post_init__(self):
        m, p = self.model_order, self.window
        if not isinstance(m, int) or m < 1:
            raise InputError(f"narx_fading model_order must be an integer >= 1, got {m!r}")
        if not isinstance(p, int) or not 1 <= p <= m:
            raise InputError(f"narx_fading window must be an integer in [1, {m}], got {p!r}")

    @property
    def arity(self) -> int:
        return 3

    def validate_eta(self, eta):
        if len(eta) != 3:
            raise InputError(f"narx_fading expects eta = (tau, gamma, xi), got {eta!r}")
        _check_nonneg(eta, ("tau", "gamma", "xi"))

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

    def pair_values(self, eta, A, B):
        Z = A - B
        coords = [Z[:, c] ** 2 for c in range(Z.shape[1])]
        return self._accumulate(eta, _window_sums(coords, self.model_order, self.window))

    def from_terms(self, eta, terms):
        return self._accumulate(eta, terms.window_sq(self.model_order, self.window))

    def diag_values(self, eta, A):
        return np.full(A.shape[0], self.stationary_peak(eta))

    def stationary_peak(self, eta):
        tau, _, xi = eta
        return tau * lag_weight_sum(xi, self.window, self.model_order)


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

    name: str = field(default="feature_gaussian", init=False)

    @property
    def arity(self) -> int:
        return 3

    def validate_eta(self, eta):
        if len(eta) != 3:
            raise InputError(f"feature_gaussian expects eta = (tau, gamma, sigma), got {eta!r}")
        _check_nonneg(eta, ("tau", "gamma", "sigma"))

    def pair_values(self, eta, A, B):
        return np.einsum("ij,ij->i", A, B) * _gauss(*eta, _sq_dist_pairs(A, B))

    def from_terms(self, eta, terms):
        K = _gauss(*eta, terms.sq)
        K *= terms.inner
        return K

    def diag_values(self, eta, A):
        tau, _, sigma = eta
        return (tau + sigma) * np.einsum("ij,ij->i", A, A)


@dataclass(frozen=True)
class SumKernel(KernelStructure):
    """Weighted sum of child kernels.  eta is the concatenation of the
    strictly positive weights (one per child) and the children's etas."""

    children: tuple = ()
    name: str = field(default="sum", init=False)

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

    def _combine(self, eta, method, *arrays):
        weights, parts = self.split_eta(eta)
        total = None
        for w, child, part in zip(weights, self.children, parts):
            term = w * getattr(child, method)(part, *arrays)
            total = term if total is None else total + term
        return total

    def pair_values(self, eta, A, B):
        return self._combine(eta, "pair_values", A, B)

    def from_terms(self, eta, terms):
        return self._combine(eta, "from_terms", terms)

    def diag_values(self, eta, A):
        return self._combine(eta, "diag_values", A)

    def stationary_peak(self, eta):
        if not self.is_stationary:
            raise InputError("sum kernel is stationary only if all children are")
        weights, parts = self.split_eta(eta)
        return sum(w * c.stationary_peak(p) for w, c, p in zip(weights, self.children, parts))

    def check_dim(self, input_dim):
        for child in self.children:
            child.check_dim(input_dim)


@dataclass(frozen=True)
class ProductWithStationary(KernelStructure):
    """Pointwise product of an arbitrary left kernel with a stationary right
    kernel.  eta is the concatenation (eta_left, eta_right)."""

    left: KernelStructure = None  # type: ignore[assignment]
    right: KernelStructure = None  # type: ignore[assignment]
    name: str = field(default="product_stationary", init=False)

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

    def pair_values(self, eta, A, B):
        eta_l, eta_r = self.split_eta(eta)
        return self.left.pair_values(eta_l, A, B) * self.right.pair_values(eta_r, A, B)

    def from_terms(self, eta, terms):
        eta_l, eta_r = self.split_eta(eta)
        return self.left.from_terms(eta_l, terms) * self.right.from_terms(eta_r, terms)

    def diag_values(self, eta, A):
        eta_l, eta_r = self.split_eta(eta)
        return self.left.diag_values(eta_l, A) * self.right.diag_values(eta_r, A)

    def check_dim(self, input_dim):
        self.left.check_dim(input_dim)
        self.right.check_dim(input_dim)


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
        if not isinstance(self.input_dim, int) or self.input_dim < 3 or self.input_dim % 2 == 0:
            raise InputError(
                f"input_dim must be an odd integer >= 3 (2m + 1 with m >= 1), got {self.input_dim!r}"
            )
        object.__setattr__(self, "eta", tuple(float(v) for v in self.eta))
        self.structure.validate_eta(self.eta)
        self.structure.check_dim(self.input_dim)

    @property
    def model_order(self) -> int:
        return (self.input_dim - 1) // 2


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
    return float(kernel.structure.pair_values(kernel.eta, A, B)[0])


def eval_pairs(kernel: KernelInstance, A, B) -> np.ndarray:
    """Rowwise evaluation ``k_eta(A[i], B[i])``."""
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    if A.shape[0] != B.shape[0]:
        raise InputError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    return kernel.structure.pair_values(kernel.eta, A, B)


def eval_matrix(kernel: KernelInstance, A, B) -> np.ndarray:
    """Cross-kernel matrix with entries ``k_eta(A[i], B[j])``."""
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    return kernel.structure.cross_matrix(kernel.eta, A, B)


def diag_values(kernel: KernelInstance, A) -> np.ndarray:
    """Rowwise diagonal evaluation ``k_eta(A[i], A[i])``."""
    A = _as_rows(A, kernel.input_dim, "A")
    return kernel.structure.diag_values(kernel.eta, A)


def squared_kernel_metric(kernel: KernelInstance, a, b) -> float:
    """Squared kernel metric ``h(a, b) = k(a, a) - 2 k(a, b) + k(b, b)``,
    the squared distance between the canonical feature images of a and b."""
    return float(metric_pairs(kernel, a, b)[0])


def metric_pairs(kernel: KernelInstance, A, B) -> np.ndarray:
    """Rowwise squared kernel metric ``h(A[i], B[i])``."""
    A = _as_rows(A, kernel.input_dim, "A")
    B = _as_rows(B, kernel.input_dim, "B")
    if A.shape[0] != B.shape[0]:
        raise InputError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    s = kernel.structure
    return s.diag_values(kernel.eta, A) - 2.0 * s.pair_values(kernel.eta, A, B) \
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

_SIMPLE_STRUCTURES = {
    "linear_affine": LinearAffine,
    "gaussian": Gaussian,
    "matern32": Matern32,
    "feature_gaussian": FeatureGaussian,
}


def structure_to_config(structure: KernelStructure) -> dict:
    """Serialize a structure to a plain dict (JSON-compatible)."""
    if isinstance(structure, Polynomial):
        return {"structure": "polynomial", "degree": structure.degree}
    if isinstance(structure, NarxFading):
        return {
            "structure": "narx_fading",
            "model_order": structure.model_order,
            "window": structure.window,
        }
    if isinstance(structure, SumKernel):
        return {"structure": "sum", "children": [structure_to_config(c) for c in structure.children]}
    if isinstance(structure, ProductWithStationary):
        return {
            "structure": "product_stationary",
            "left": structure_to_config(structure.left),
            "right": structure_to_config(structure.right),
        }
    if structure.name in _SIMPLE_STRUCTURES:
        return {"structure": structure.name}
    raise InputError(f"cannot serialize kernel structure {structure!r}")


def structure_from_config(cfg: dict) -> KernelStructure:
    """Parse a structure config produced by :func:`structure_to_config`.

    Unknown keys are rejected so that typos fail loudly.
    """
    if not isinstance(cfg, dict) or "structure" not in cfg:
        raise InputError(f"kernel structure config must be a dict with a 'structure' key, got {cfg!r}")
    name = cfg["structure"]
    if name == "polynomial":
        _reject_unknown(cfg, {"structure", "degree"})
        return Polynomial(degree=int(cfg.get("degree", 2)))
    if name == "narx_fading":
        _reject_unknown(cfg, {"structure", "model_order", "window"})
        if "model_order" not in cfg or "window" not in cfg:
            raise InputError("narx_fading config needs 'model_order' and 'window'")
        return NarxFading(model_order=int(cfg["model_order"]), window=int(cfg["window"]))
    if name == "sum":
        _reject_unknown(cfg, {"structure", "children"})
        children = cfg.get("children")
        if not isinstance(children, list) or not children:
            raise InputError("sum config needs a nonempty 'children' list")
        return SumKernel(children=tuple(structure_from_config(c) for c in children))
    if name == "product_stationary":
        _reject_unknown(cfg, {"structure", "left", "right"})
        if "left" not in cfg or "right" not in cfg:
            raise InputError("product_stationary config needs 'left' and 'right'")
        return ProductWithStationary(
            left=structure_from_config(cfg["left"]),
            right=structure_from_config(cfg["right"]),
        )
    if name in _SIMPLE_STRUCTURES:
        _reject_unknown(cfg, {"structure"})
        return _SIMPLE_STRUCTURES[name]()
    raise InputError(f"unknown kernel structure {name!r}")


def _reject_unknown(cfg: dict, allowed: set) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)}; allowed: {sorted(allowed)}")
