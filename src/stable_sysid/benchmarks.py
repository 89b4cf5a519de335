"""Benchmark systems, dataset generation, and the Monte-Carlo harness.

Three data-generating systems are provided:

* System A: ``y_t = 0.2 |p_t| sqrt(sin(|p_t|) + 1)``
* System B: ``y_t = 0.2 sin(|p_t|)^2``

with ``p_t = (y_{t-2}, y_{t-1}, u_{t-2}, u_{t-1})``, driven by i.i.d. standard
normal inputs and initial conditions, with additive Gaussian measurement
noise on the outputs; and

* System H: the potassium-channel gate of an excitable-cell membrane model,

      kappa' = (V+10)(1-kappa) / (100 (exp((V+10)/10) - 1))
               - exp(V/80)/8 * kappa,
      I      = 36 (V - 12) kappa^4,

  driven by a random multisine voltage and sampled every 0.1 s starting at
  t = 50 s.  The gate ODE is integrated by classical RK4 at the fixed step
  1e-3 s (every 100th state is a sample) in fixed-size blocks of steps, so
  memory beyond the gate array is bounded by the block; the ratio
  (V+10)/(exp((V+10)/10)-1) has a removable singularity at V = -10, handled
  by its limit value 10.

Noise levels default to standard deviations 0.05 (A) and 0.02 (B), which
puts the signal-to-noise ratio near 10 on both systems.

Monte-Carlo runs are seeded per (dataset seed, run index) and therefore
embarrassingly parallel; aggregation is a deterministic reduction.  The
harness's unit of work is the (run, system) group: one thread runs every
method of a group in turn, the group's dataset pair is drawn once and shared
read-only by those methods, so they are scored on the same data, and so is
one :class:`~stable_sysid.solver.RegressionData` per model order: EB
searches with identical inputs, such as H's unconstrained and deltaBIBS
methods, factor each Gram once (the memo of :mod:`stable_sysid.selection`).
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import _config_array, _config_fields, _config_flag, _config_instance, _config_int, _config_real
from .errors import InputError, NumericError, StableSysidError
from .kernels import FeatureGaussian, Gaussian, KernelInstance, KernelStructure
from .predictor import PredictorModel, run_model
from .selection import OptimizerConfig, SelectionConfig, _fit_threads, select_hyperparameters
from .solver import FitProblem, RegressionData, build_regression_data, solve_constrained
from .viability import StabilityTarget, feasible_parameterization

__all__ = [
    "SyntheticSystemSpec",
    "MultisineRealization",
    "Dataset",
    "MethodSpec",
    "MonteCarloConfig",
    "ResultRow",
    "FailureRow",
    "MonteCarloResult",
    "simulate_system_a",
    "simulate_system_b",
    "simulate_hh",
    "hh_alpha",
    "hh_beta",
    "generate_dataset",
    "run_monte_carlo",
    "summarize",
    "standard_methods",
    "benchmark_selection_config",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_results_csv",
]

DEFAULT_NOISE_STD = {"A": 0.05, "B": 0.02, "H": 0.0}
DEFAULT_N_TRAIN = {"A": 200, "B": 200, "H": 201}
DEFAULT_N_VALID = {"A": 200, "B": 200, "H": 1001}
FULL_SCALE_N_VALID = {"A": 200, "B": 200, "H": 5001}
FULL_SCALE_OPTIMIZER = OptimizerConfig(restarts=6, max_evals=900)
HH_SAMPLE_PERIOD = 0.1
HH_SAMPLE_OFFSET = 49.9
DEFAULT_HH_DT = 1e-3
_HH_STRIDE = round(HH_SAMPLE_PERIOD / DEFAULT_HH_DT)  # solver steps per sample
# solver steps per block of simulate_hh: a block's half-step grid, voltage,
# rates and RK4 coefficients take a few MB in all, whatever the horizon
_HH_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSystemSpec:
    """Which benchmark system to sample, at what size and noise level."""

    variant: str
    seed: int = 0
    n_train: int | None = None
    n_valid: int | None = None
    noise_std: float | None = None

    def __post_init__(self):
        if self.variant not in ("A", "B", "H"):
            raise InputError(f"unknown system variant {self.variant!r} (expected A, B, or H)")
        defaults = {"n_train": DEFAULT_N_TRAIN, "n_valid": DEFAULT_N_VALID, "noise_std": DEFAULT_NOISE_STD}
        for name, table in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, table[self.variant])
        # each set holds at least one regression row at the model order 2
        _config_fields(self, ints={"seed": 0, "n_train": 3, "n_valid": 3}, reals=("noise_std",))
        if self.noise_std < 0:
            raise InputError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass(frozen=True)
class MultisineRealization:
    """Concrete multisine V(t) = sum_i A_i sin(2 pi nu_i t + phi_i)."""

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        for name in ("amplitudes", "frequencies", "phases"):
            object.__setattr__(self, name, _config_array(getattr(self, name), f"multisine {name}", 1))
        if not self.amplitudes.shape == self.frequencies.shape == self.phases.shape:
            raise InputError("multisine amplitudes, frequencies and phases must have equal lengths")

    def __call__(self, t) -> np.ndarray:
        t = _config_array(t, "multisine t", None, finite=False)
        out = np.zeros(t.shape)
        w = np.empty(t.shape)
        # per sample and in the same sine order: out += a sin(omega t + phi)
        for a, nu, phi in zip(self.amplitudes, self.frequencies, self.phases):
            np.multiply(2.0 * math.pi * nu, t, out=w)
            w += phi
            np.sin(w, out=w)
            w *= a
            out += w
        return out


def draw_multisine(rng: np.random.Generator) -> MultisineRealization:
    n = 50
    return MultisineRealization(
        amplitudes=rng.uniform(0.1, 0.5, size=n),
        frequencies=rng.uniform(0.0, 1.0, size=n),
        phases=rng.uniform(0.0, 2.0 * math.pi, size=n),
    )


@dataclass(frozen=True)
class Dataset:
    """A sampled input/output pair (1-based time index in CSV dumps)."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = _config_array(self.u, "dataset u", 1, finite=False)
        y = _config_array(self.y, "dataset y", 1, finite=False)
        if y.shape != u.shape:
            raise InputError("dataset needs equal-length 1-D input and output")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.u.shape[0]


# ---------------------------------------------------------------------------
# difference-equation systems
# ---------------------------------------------------------------------------

# the largest magnitude of an input sample or start value at which the four
# squares of a regressor sum to a finite norm; every output stays below it
_AB_MAGNITUDE = math.sqrt(np.finfo(float).max) / 2.0


def _simulate_ab(u, y0, y1, length, output_fn):
    u = _config_array(u, "u", 1, finite=False)
    y0, y1 = _config_real(y0, "y0"), _config_real(y1, "y1")
    # a nan sample makes nan outputs; an infinite norm has no sine
    for what, values in (("u", u), ("y0", y0), ("y1", y1)):
        if np.any(np.abs(values) > _AB_MAGNITUDE):
            raise InputError(f"{what} must lie within +-{_AB_MAGNITUDE:.4g}, where the regressor norm is finite")
    length = _config_int(length, "length", 2)
    if u.shape[0] < length - 1:
        raise InputError(f"need at least {length - 1} input samples, got {u.shape[0]}")
    y = np.empty(length)
    y[0], y[1] = y0, y1
    for t in range(2, length):
        p_norm = math.sqrt(y[t - 2] ** 2 + y[t - 1] ** 2 + u[t - 2] ** 2 + u[t - 1] ** 2)
        y[t] = output_fn(p_norm)
    return y


def simulate_system_a(u, y0: float, y1: float, length: int) -> np.ndarray:
    """System A recursion; outputs satisfy 0 <= y_t <= 0.2 sqrt(2) |p_t|."""
    return _simulate_ab(u, y0, y1, length, lambda r: 0.2 * r * math.sqrt(math.sin(r) + 1.0))


def simulate_system_b(u, y0: float, y1: float, length: int) -> np.ndarray:
    """System B recursion; outputs stay in [0, 0.2]."""
    return _simulate_ab(u, y0, y1, length, lambda r: 0.2 * math.sin(r) ** 2)


# ---------------------------------------------------------------------------
# Hodgkin-Huxley potassium gate
# ---------------------------------------------------------------------------

def hh_alpha(V) -> np.ndarray:
    """Gate opening rate; the V = -10 singularity is removable with value 0.1."""
    V = _config_array(V, "V", None, finite=False)
    x = V + 10.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(x) < 1e-6, 10.0, x / np.expm1(x / 10.0))
    return ratio / 100.0


def hh_beta(V) -> np.ndarray:
    V = _config_array(V, "V", None, finite=False)
    return np.exp(V / 80.0) / 8.0


def _sized(make, n: int, what: str) -> np.ndarray:
    """``make(n)`` for an array of ``n`` values; a count numpy refuses, such
    as ``10**20``, or cannot allocate raises :class:`InputError`."""
    try:
        return make(n)
    except (ValueError, MemoryError) as exc:  # "Maximum allowed dimension exceeded", a failed allocation
        raise InputError(f"too many {what} for an array: {exc}") from exc


def simulate_hh(voltage, kappa0: float, t_end: float, dt_solver: float = DEFAULT_HH_DT) -> np.ndarray:
    """The gate at the ``round(t_end / dt_solver) + 1`` step boundaries of
    classical fixed-step RK4 started from ``kappa0`` at ``t = 0``.

    ``kappa0``, ``t_end`` and ``dt_solver`` are finite reals, the last two
    > 0; ``voltage`` is a vectorized callable ``t -> V(t)``.  Because the
    gate equation is affine in kappa, each RK4 step reduces to
    ``kappa <- p_k kappa + q_k`` with coefficients computed from the rates
    on a half-step grid; the coefficients are vectorized and only the scalar
    recursion runs as a loop.  The steps run in fixed-size blocks, each on
    its own slice of the half-step grid, so the memory beyond ``kappa`` is
    bounded by the block, not by the horizon; every value is as in one pass.
    """
    x = _config_real(kappa0, "kappa0")
    t_end = _config_real(t_end, "t_end")
    h = _config_real(dt_solver, "dt_solver")
    if not (h > 0 and t_end > 0 and t_end / h < math.inf):
        raise InputError(f"dt_solver and t_end must be > 0 with a finite ratio, got {h!r} and {t_end!r}")
    n_steps = int(round(t_end / h))
    if n_steps < 1:
        raise InputError("horizon shorter than one solver step")
    kappa = _sized(np.empty, n_steps + 1, "solver steps")
    kappa[0] = x
    for s0 in range(0, n_steps, _HH_BLOCK):
        s1 = min(s0 + _HH_BLOCK, n_steps)
        half_grid = 0.5 * h * np.arange(2 * s0, 2 * s1 + 1)
        values = voltage(half_grid)
        try:
            V = _config_array(values, "voltage grid", 1)
        except InputError:
            V = None
        if V is None or V.shape != half_grid.shape:
            raise NumericError("voltage input produced a malformed or non-finite sample grid")
        A = hh_alpha(V)
        B = A + hh_beta(V)  # kappa' = alpha - (alpha + beta) kappa
        A0, Ah, A1 = A[0:-1:2], A[1::2], A[2::2]
        B0, Bh, B1 = B[0:-1:2], B[1::2], B[2::2]

        c1 = A0
        d1 = -B0
        c2 = Ah - Bh * (h / 2.0) * c1
        d2 = -Bh * (1.0 + (h / 2.0) * d1)
        c3 = Ah - Bh * (h / 2.0) * c2
        d3 = -Bh * (1.0 + (h / 2.0) * d2)
        c4 = A1 - B1 * h * c3
        d4 = -B1 * (1.0 + h * d3)
        q = (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        p = 1.0 + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)

        # one slice store per block: an indexed numpy store per step costs
        # about as much as the recursion itself
        states = []
        for p_i, q_i in zip(p.tolist(), q.tolist()):
            x = p_i * x + q_i
            states.append(x)
        kappa[s0 + 1:s1 + 1] = states
    if not np.all(np.isfinite(kappa)):
        bad = int(np.argmax(~np.isfinite(kappa)))
        raise NumericError(f"gate integration produced a non-finite state at step {bad}")
    return kappa


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

# entries per harness memo: a group's cells run in turn on one thread, so
# each group in flight holds one pair and one training set however many runs
# a call has; with more than 8 groups in flight (n_jobs > 8) an entry can be
# evicted before its group is done and is then drawn again, with the same bits
_MEMO_SIZE = 8


def generate_dataset(spec: SyntheticSystemSpec, salt: tuple = ()) -> tuple:
    """Sample a (train, validation) dataset pair for one system spec.

    All randomness derives from ``(spec.seed, *salt)``; identical arguments
    produce identical datasets.  The validation set is an independent draw
    from the same distribution.  The arrays are read-only: a pair may be
    served from a memo that :func:`run_monte_carlo` empties on entry and
    exit, and is then shared by every caller that asks for it.
    """
    _config_instance(spec, SyntheticSystemSpec, "spec")
    salt = tuple(_config_int(s, "salt entry", 0) for s in salt)
    return _generate_pair(spec, salt)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _generate_pair(spec: SyntheticSystemSpec, salt: tuple) -> tuple:
    train = _generate_one(spec, spec.n_train, (*salt, 0))
    valid = _generate_one(spec, spec.n_valid, (*salt, 1))
    for data in (train, valid):
        data.u.flags.writeable = False
        data.y.flags.writeable = False
    return train, valid


def _generate_one(spec: SyntheticSystemSpec, n: int, salt: tuple) -> Dataset:
    rng = np.random.default_rng([spec.seed, *salt])
    if spec.variant in ("A", "B"):
        y0, y1 = rng.standard_normal(2)
        u = _sized(rng.standard_normal, n + 3, "samples")
        w = rng.standard_normal(n)
        sim = simulate_system_a if spec.variant == "A" else simulate_system_b
        y = sim(u, y0, y1, n + 3)
        return Dataset(u=u[3:], y=y[3:] + spec.noise_std * w)
    multisine = draw_multisine(rng)
    kappa0 = float(rng.standard_normal())
    w = _sized(rng.standard_normal, n, "samples")
    # kappa0 is imposed at the sampling epoch (absolute time 49.9 s), so each
    # dataset carries its own randomized gate-relaxation transient; the solver
    # runs in epoch-relative time with the multisine shifted to match, and
    # sample t, at absolute time 49.9 + 0.1 t, is solver state 100 t
    kappa = simulate_hh(lambda t: multisine(HH_SAMPLE_OFFSET + t), kappa0, HH_SAMPLE_PERIOD * n)
    u = multisine(HH_SAMPLE_OFFSET + HH_SAMPLE_PERIOD * np.arange(1, n + 1))
    y = 36.0 * (u - 12.0) * kappa[_HH_STRIDE::_HH_STRIDE] ** 4 + spec.noise_std * w
    return Dataset(u=u, y=y)


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    """One fitting method: a kernel structure and a selection, whose
    ``target`` is the method's stability target and whose ``chi`` is the
    norm budget ``m c'Kc <= chi`` of search and fit."""

    name: str
    structure: KernelStructure
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self):
        _config_instance(self.structure, KernelStructure, "method structure")
        _config_instance(self.selection, SelectionConfig, "method selection")

    # perfbench reads these two; they go with its tracer (ROADMAP Direction 7)
    @property
    def target(self) -> StabilityTarget:
        return self.selection.target

    def selection_config(self) -> SelectionConfig:
        return self.selection


@dataclass(frozen=True)
class MonteCarloConfig:
    runs: int
    systems: tuple
    methods: tuple
    model_order: int = 2
    n_jobs: int = 1

    def __post_init__(self):
        _config_fields(self, ints=dict.fromkeys(("runs", "model_order", "n_jobs"), 1))
        if not self.systems or not self.methods:
            raise InputError("MonteCarloConfig needs at least one system and one method")
        for system in self.systems:
            _config_instance(system, SyntheticSystemSpec, "MonteCarloConfig system")
        for method in self.methods:
            _config_instance(method, MethodSpec, "MonteCarloConfig method")


@dataclass(frozen=True)
class ResultRow:
    run: int
    system: str
    method: str
    q_pre: float
    q_sim: float
    feasible: bool
    fit_seconds: float


@dataclass(frozen=True)
class FailureRow:
    run: int
    system: str
    method: str
    error: str


@dataclass(frozen=True)
class MonteCarloResult:
    rows: tuple
    failures: tuple


def fit_method(data: RegressionData, method: MethodSpec) -> tuple:
    """Select hyperparameters, solve the fit, and build the predictor model.

    EB methods fitted on one shared data (as :func:`run_monte_carlo` does
    within a run) share the EB search's memo of spectra (see
    :mod:`stable_sysid.selection`); the results are those of fresh data.

    The final solve, :func:`~stable_sysid.solver.solve_constrained`, runs
    here under its search's thread rule (see the notes of
    :mod:`stable_sysid.selection`).
    """
    selection = method.selection
    sel = select_hyperparameters(selection, data, method.structure)
    kernel = KernelInstance(
        structure=method.structure, eta=sel.eta, input_dim=2 * data.model_order + 1
    )
    problem = FitProblem(
        data=data,
        kernel=kernel,
        beta=sel.beta,
        chi=selection.chi,
        constrained=selection.target.constrained,
    )
    with _fit_threads(selection.method):
        report = solve_constrained(problem)
    model = PredictorModel.from_fit(data, kernel, report, selection.target)
    return model, report, sel


# keyed on what draws the pair, since a Dataset (array fields) is unhashable
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _training_data(spec: SyntheticSystemSpec, salt: tuple, model_order: int) -> RegressionData:
    train, _ = _generate_pair(spec, salt)
    return build_regression_data(train.u, train.y, model_order)


def _run_cell(config: MonteCarloConfig, run: int, system: SyntheticSystemSpec, method: MethodSpec):
    _, valid = generate_dataset(system, salt=(run,))
    start = time.perf_counter()
    try:
        data = _training_data(system, (run,), config.model_order)
        model, _, sel = fit_method(data, method)
        result = run_model(model, valid.u, valid.y)
    except StableSysidError as exc:
        return None, FailureRow(run=run, system=system.variant, method=method.name, error=str(exc))
    elapsed = time.perf_counter() - start
    row = ResultRow(
        run=run,
        system=system.variant,
        method=method.name,
        q_pre=result.q_pre,
        q_sim=result.q_sim,
        feasible=sel.feasible,
        fit_seconds=elapsed,
    )
    return row, None


def run_monte_carlo(config: MonteCarloConfig) -> MonteCarloResult:
    """Run the full (runs x systems x methods) grid.

    Every method's (structure, target) pair is checked for feasibility up
    front; per-cell numeric failures are recorded in ``failures`` and
    excluded from ``rows``, never silently dropped.  One thread runs the
    methods of a (run, system) group in turn, ``n_jobs`` groups at once, on
    one dataset pair and one training ``RegressionData`` shared read-only:
    EB searches with identical inputs, such as Ha's and Hb's, factor each
    Gram once (see :func:`fit_method`).  With more than 8 groups in flight a
    pair can be evicted and drawn again, with the same bits; none outlives
    the call.  Rows come in cell order whatever ``n_jobs``.  How the
    groups' searches and final solves share the package's scipy lock, and
    how a search deals its restarts over helper processes, is the thread
    rule in the notes of :mod:`stable_sysid.selection`.
    """
    _config_instance(config, MonteCarloConfig, "config")
    for method in config.methods:
        feasible_parameterization(method.structure, method.selection.target)

    def run_group(group):
        return [_run_cell(config, *group, method) for method in config.methods]

    groups = [(run, system) for run in range(config.runs) for system in config.systems]
    _clear_memos()
    try:
        if config.n_jobs == 1:
            outcomes = [run_group(group) for group in groups]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=config.n_jobs) as pool:
                outcomes = list(pool.map(run_group, groups))
    finally:
        _clear_memos()

    outcomes = [outcome for group in outcomes for outcome in group]
    rows = tuple(row for row, _ in outcomes if row is not None)
    failures = tuple(fail for _, fail in outcomes if fail is not None)
    return MonteCarloResult(rows=rows, failures=failures)


def _clear_memos() -> None:
    _generate_pair.cache_clear()
    _training_data.cache_clear()


def summarize(rows) -> list:
    """Per (system, method, metric) five-number summaries, sorted."""
    groups: dict = {}
    for row in rows:
        _config_instance(row, ResultRow, "summary row")
        groups.setdefault((row.system, row.method), []).append(row)
    out = []
    for (system, method), members in sorted(groups.items()):
        for metric in ("q_pre", "q_sim"):
            values = np.array([getattr(r, metric) for r in members])
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            out.append(
                {
                    "system": system,
                    "method": method,
                    "metric": metric,
                    "count": len(members),
                    "min": float(values.min()),
                    "q1": float(q1),
                    "median": float(med),
                    "q3": float(q3),
                    "max": float(values.max()),
                }
            )
    return out


def benchmark_selection_config(method: str = "gcv") -> SelectionConfig:
    """Selection settings used by the benchmark harness.

    For A and B the default is GCV charged at the effective regularizer: it
    scores the estimator the constrained fit actually produces, which keeps
    the constrained methods competitive instead of collapsing them onto
    over-regularized corners.  For H the method set overrides this with the
    plain marginal-likelihood cost (see :func:`standard_methods`).  Desk
    scale trades optimizer budget for runtime; full scale restores a wider
    search (:data:`FULL_SCALE_OPTIMIZER`).
    """
    return SelectionConfig(
        method=method,
        iota=1e-10,
        cap_aware_cost=method != "eb",
        optimizer=OptimizerConfig(restarts=3, max_evals=360),
        seed=0,
    )


# per system: the default cost, the kernel structure and each method's (name, target)
_STANDARD_METHODS = {
    "A": ("gcv", FeatureGaussian(), (("Aa", StabilityTarget.unconstrained()), ("Ab", StabilityTarget.iss()))),
    "B": ("gcv", Gaussian(), (("Ba", StabilityTarget.unconstrained()), ("Bb", StabilityTarget.diss()))),
    "H": ("eb", Gaussian(), (
        ("Ha", StabilityTarget.unconstrained()), ("Hb", StabilityTarget.dbibs()), ("Hc", StabilityTarget.diss()),
    )),
}


def standard_methods(variant: str, selection: SelectionConfig | None = None) -> tuple:
    """The per-system method codes used in the benchmark tables.

    ``<system>a`` is the unconstrained baseline; ``b``/``c`` add stability
    targets: A uses the feature-times-Gaussian kernel with the ISS growth
    set, B the Gaussian kernel with the incremental (deltaISS) set, and H
    the Gaussian kernel with the deltaBIBS (b) and deltaISS (c) sets.  Each
    method is ``selection`` with its target in place of the given one.

    A and B default to the cap-aware GCV cost; H uses the plain
    marginal-likelihood cost, whose amplitude anchoring is what exposes the
    unconstrained baseline's free-run failure on that system.
    """
    if not isinstance(variant, str) or variant not in _STANDARD_METHODS:
        raise InputError(f"unknown system variant {variant!r}")
    cost, structure, targets = _STANDARD_METHODS[variant]
    if selection is None:
        selection = benchmark_selection_config(method=cost)
    _config_instance(selection, SelectionConfig, "selection")
    return tuple(MethodSpec(name, structure, replace(selection, target=target)) for name, target in targets)

# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """Write a header line and then the rows; an unwritable file raises InputError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise InputError(f"cannot write CSV {path}: {exc}") from exc


def _read_csv(path, columns: dict) -> list:
    """The rows of a CSV file whose header is ``columns``' keys, each cell
    parsed by its column's function.  A file that cannot be opened, decoded
    or parsed raises :class:`InputError`."""
    header = list(columns)
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != header:
            raise InputError(f"CSV {path} must have header {','.join(header)}, got {rows[0] if rows else None}")
        for row in rows[1:]:
            if len(row) != len(header):
                raise InputError(f"malformed row {row!r} in {path}")
        return [[parse(cell) for parse, cell in zip(columns.values(), row)] for row in rows[1:]]
    except (OSError, ValueError, csv.Error) as exc:
        raise InputError(f"cannot read CSV {path}: {exc}") from exc


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Dump a dataset as ``t,u,y`` rows (1-based time index)."""
    _config_instance(dataset, Dataset, "dataset")
    rows = ([t, _fmt(u), _fmt(y)] for t, (u, y) in enumerate(zip(dataset.u, dataset.y), start=1))
    _write_csv(path, ["t", "u", "y"], rows)


def read_dataset_csv(path) -> Dataset:
    rows = _read_csv(path, {"t": str, "u": float, "y": float})
    if not rows:
        raise InputError(f"dataset CSV {path} has no rows")
    _, u, y = zip(*rows)
    return Dataset(u=np.array(u), y=np.array(y))


RESULTS_HEADER = ["run", "system", "method", "q_pre", "q_sim", "feasible", "fit_seconds"]


def write_results_csv(rows, path, record_timing: bool = False) -> None:
    """Dump result rows; timings are zeroed unless ``record_timing`` so that
    re-runs with identical seeds produce byte-identical files."""
    rows = [_config_instance(row, ResultRow, "result row") for row in rows]
    _config_flag(record_timing, "record_timing")
    _write_csv(path, RESULTS_HEADER, (
        [row.run, row.system, row.method, _fmt(row.q_pre), _fmt(row.q_sim),
         str(bool(row.feasible)).lower(), _fmt(row.fit_seconds if record_timing else 0.0)]
        for row in rows
    ))
