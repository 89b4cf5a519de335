"""The learned predictor, its iterated simulation model, and metrics.

A :class:`PredictorModel` realizes ``f(z) = sum_i c_i k(z, z_i)`` over
stored centers.  One-step prediction feeds measured windows into ``f``;
free-run simulation closes the loop by feeding the model's own outputs back
through a shift register, which is algebraically the companion-form state
model of the iterated predictor.  Both sequences copy the measured outputs
for the first ``m`` samples so simulations start from a sensible state.

Models are immutable after construction; distinct trajectories can be
simulated concurrently, a single trajectory is inherently sequential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .kernels import (
    KernelInstance,
    eval_matrix,
    structure_from_config,
    structure_to_config,
)
from .solver import FitReport, RegressionData, build_regression_data
from .viability import StabilityTarget

__all__ = [
    "PredictorModel",
    "SimulationResult",
    "ProbeConfig",
    "ProbeReport",
    "evaluate_f",
    "one_step_predict",
    "simulate",
    "metrics",
    "run_model",
    "stability_probe",
    "save_model",
    "load_model",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class PredictorModel:
    """Model order, kernel, centers, coefficients, and the enforced target."""

    model_order: int
    kernel: KernelInstance
    centers: np.ndarray
    coefficients: np.ndarray
    stability_tag: StabilityTarget

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        coeff = np.asarray(self.coefficients, dtype=float)
        m = self.model_order
        if not isinstance(m, int) or m < 1:
            raise InputError(f"model order must be an integer >= 1, got {m!r}")
        if self.kernel.input_dim != 2 * m + 1:
            raise InputError(
                f"kernel input_dim {self.kernel.input_dim} does not match model order {m}"
            )
        if centers.ndim != 2 or centers.shape[1] != 2 * m + 1 or centers.shape[0] < 1:
            raise InputError(f"centers must be N x {2 * m + 1} with N >= 1, got {centers.shape}")
        if coeff.shape != (centers.shape[0],):
            raise InputError("coefficients must align one-to-one with centers")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(coeff))):
            raise InputError("model contains non-finite values")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coefficients", coeff)

    @classmethod
    def from_fit(
        cls,
        data: RegressionData,
        kernel: KernelInstance,
        report: FitReport,
        stability_tag: StabilityTarget,
    ) -> "PredictorModel":
        return cls(
            model_order=data.model_order,
            kernel=kernel,
            centers=data.regressors.copy(),
            coefficients=np.asarray(report.coefficients, dtype=float).copy(),
            stability_tag=stability_tag,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Prediction and simulation sequences with their error indexes."""

    predicted: np.ndarray
    simulated: np.ndarray
    q_pre: float
    q_sim: float
    horizon: int


def _f_batch(model: PredictorModel, Z: np.ndarray) -> np.ndarray:
    return eval_matrix(model.kernel, Z, model.centers) @ model.coefficients


def evaluate_f(model: PredictorModel, z) -> float:
    """Evaluate the predictor at one regressor vector of dimension 2m + 1."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * model.model_order + 1,):
        raise InputError(
            f"regressor must have dimension {2 * model.model_order + 1}, got shape {z.shape}"
        )
    return float(_f_batch(model, z[None, :])[0])


def one_step_predict(model: PredictorModel, u, y) -> np.ndarray:
    """One-step-ahead predictions from measured windows.

    The first ``m`` entries copy ``y``; entry ``t > m`` (1-based) is
    ``f(y_{t-m:t-1}, u_{t-m:t-1}, u_t)``.
    """
    m = model.model_order
    data = build_regression_data(u, y, m)
    out = np.empty(data.size + m)
    out[:m] = np.asarray(y, dtype=float)[:m]
    out[m:] = _f_batch(model, data.regressors)
    return out


def simulate(model: PredictorModel, u, y_seed) -> np.ndarray:
    """Free-run simulation: feed the model its own outputs.

    ``y_seed`` supplies the first ``m`` outputs.  Raises
    :class:`DivergenceError` (carrying the 1-based index of the first bad
    sample) when a value goes non-finite or beyond ``1e12``.
    """
    u = np.asarray(u, dtype=float)
    seed = np.asarray(y_seed, dtype=float)
    m = model.model_order
    if u.ndim != 1 or u.shape[0] <= m:
        raise InputError(f"u must be 1-D with more than m = {m} samples")
    if seed.shape != (m,):
        raise InputError(f"y_seed must hold exactly m = {m} values, got shape {seed.shape}")
    n = u.shape[0]
    out = np.empty(n)
    out[:m] = seed
    z = np.empty(2 * m + 1)
    for j in range(m, n):
        z[:m] = out[j - m:j]
        z[m:2 * m] = u[j - m:j]
        z[2 * m] = u[j]
        value = float(_f_batch(model, z[None, :])[0])
        if not math.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"simulation diverged at sample {j + 1}: value {value!r}", index=j + 1
            )
        out[j] = value
    return out


def metrics(y_true, predicted, simulated, m: int):
    """Mean absolute one-step and simulation errors over samples m+1..n."""
    y_true = np.asarray(y_true, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    simulated = np.asarray(simulated, dtype=float)
    if not (y_true.shape == predicted.shape == simulated.shape) or y_true.ndim != 1:
        raise InputError("metrics needs three equal-length 1-D sequences")
    if y_true.shape[0] <= m:
        raise InputError("sequences must be longer than the model order")
    q_pre = float(np.mean(np.abs(y_true[m:] - predicted[m:])))
    q_sim = float(np.mean(np.abs(y_true[m:] - simulated[m:])))
    return q_pre, q_sim


def run_model(model: PredictorModel, u, y) -> SimulationResult:
    """Predict and simulate against a measured pair, with metrics."""
    y = np.asarray(y, dtype=float)
    predicted = one_step_predict(model, u, y)
    simulated = simulate(model, u, y[:model.model_order])
    q_pre, q_sim = metrics(y, predicted, simulated, model.model_order)
    return SimulationResult(
        predicted=predicted,
        simulated=simulated,
        q_pre=q_pre,
        q_sim=q_sim,
        horizon=len(y),
    )


# ---------------------------------------------------------------------------
# empirical stability probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    """Empirical probe settings.

    ``mode="boundedness"`` drives the model with inputs and seed windows
    bounded by ``input_bound`` and records the largest output magnitude.
    ``mode="incremental"`` runs trajectory pairs with identical inputs but
    different seed windows and records the largest and final output gaps.
    """

    horizon: int = 1000
    input_bound: float = 1.0
    trials: int = 10
    mode: str = "boundedness"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in ("boundedness", "incremental"):
            raise InputError(f"unknown probe mode {self.mode!r}")
        if self.horizon < 1:
            raise InputError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class ProbeReport:
    mode: str
    horizon: int
    max_abs_output: tuple  # per trial; boundedness mode
    max_gap: tuple  # per trial; incremental mode
    final_gap: tuple  # per trial; incremental mode
    diverged: tuple  # per-trial flag


def stability_probe(model: PredictorModel, probe: ProbeConfig) -> ProbeReport:
    """Run randomized trajectories and summarize boundedness or contraction.

    Divergence is recorded per trial, never raised.
    """
    rng = np.random.default_rng(probe.seed)
    m = model.model_order
    n = probe.horizon + m
    q = probe.input_bound
    max_abs, max_gap, final_gap, diverged = [], [], [], []
    for _ in range(probe.trials):
        u = rng.uniform(-q, q, size=n)
        seed_a = rng.uniform(-q, q, size=m)
        if probe.mode == "boundedness":
            try:
                traj = simulate(model, u, seed_a)
                max_abs.append(float(np.max(np.abs(traj))))
                diverged.append(False)
            except DivergenceError:
                max_abs.append(math.inf)
                diverged.append(True)
        else:
            seed_b = rng.uniform(-q, q, size=m)
            try:
                ya = simulate(model, u, seed_a)
                yb = simulate(model, u, seed_b)
                gap = np.abs(ya - yb)
                max_gap.append(float(np.max(gap)))
                final_gap.append(float(gap[-1]))
                diverged.append(False)
            except DivergenceError:
                max_gap.append(math.inf)
                final_gap.append(math.inf)
                diverged.append(True)
    return ProbeReport(
        mode=probe.mode,
        horizon=probe.horizon,
        max_abs_output=tuple(max_abs),
        max_gap=tuple(max_gap),
        final_gap=tuple(final_gap),
        diverged=tuple(diverged),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_dict(model: PredictorModel) -> dict:
    kernel_cfg = structure_to_config(model.kernel.structure)
    kernel_cfg["eta"] = list(model.kernel.eta)
    kernel_cfg["input_dim"] = model.kernel.input_dim
    return {
        "model_order": model.model_order,
        "kernel": kernel_cfg,
        "stability_target": model.stability_tag.to_config(),
        "centers": model.centers.tolist(),
        "coefficients": model.coefficients.tolist(),
    }


def model_from_dict(payload: dict) -> PredictorModel:
    required = {"model_order", "kernel", "stability_target", "centers", "coefficients"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise InputError(f"model payload must have exactly the keys {sorted(required)}")
    kernel_cfg = dict(payload["kernel"])
    eta = kernel_cfg.pop("eta", None)
    input_dim = kernel_cfg.pop("input_dim", None)
    if eta is None or input_dim is None:
        raise InputError("model kernel block needs 'eta' and 'input_dim'")
    structure = structure_from_config(kernel_cfg)
    kernel = KernelInstance(structure=structure, eta=tuple(eta), input_dim=int(input_dim))
    return PredictorModel(
        model_order=int(payload["model_order"]),
        kernel=kernel,
        centers=np.asarray(payload["centers"], dtype=float),
        coefficients=np.asarray(payload["coefficients"], dtype=float),
        stability_tag=StabilityTarget.from_config(payload["stability_target"]),
    )


def save_model(model: PredictorModel, path) -> None:
    """Write the model as a self-contained, human-readable JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> PredictorModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(payload)
