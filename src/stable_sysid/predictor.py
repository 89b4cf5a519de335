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
from .kernels import KernelInstance, _config_fields, eval_matrix, kernel_from_config, kernel_to_config
from .solver import FitReport, RegressionData, build_regression_data
from .viability import StabilityTarget

__all__ = [
    "PredictorModel",
    "SimulationResult",
    "evaluate_f",
    "one_step_predict",
    "simulate",
    "metrics",
    "run_model",
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
        _config_fields(self, ints={"model_order": 1})
        m = self.model_order
        try:
            centers = np.asarray(self.centers, dtype=float)
            coeff = np.asarray(self.coefficients, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"centers and coefficients must be arrays of numbers: {exc}") from exc
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
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(seed))):
        raise InputError("u and y_seed must be finite")
    # inputs are checked once here and the model's centers at construction,
    # so each step evaluates the structure directly
    structure, eta = model.kernel.structure, model.kernel.eta
    centers, coefficients = model.centers, model.coefficients
    n = u.shape[0]
    out = np.empty(n)
    out[:m] = seed
    z = np.empty(2 * m + 1)
    for j in range(m, n):
        z[:m] = out[j - m:j]
        z[m:2 * m] = u[j - m:j]
        z[2 * m] = u[j]
        value = float((structure.cross_matrix(eta, z[None, :], centers) @ coefficients)[0])
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
    return SimulationResult(predicted=predicted, simulated=simulated, q_pre=q_pre, q_sim=q_sim)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_dict(model: PredictorModel) -> dict:
    return {
        "model_order": model.model_order,
        "kernel": kernel_to_config(model.kernel),
        "stability_target": model.stability_tag.to_config(),
        "centers": model.centers.tolist(),
        "coefficients": model.coefficients.tolist(),
    }


def model_from_dict(payload: dict) -> PredictorModel:
    required = {"model_order", "kernel", "stability_target", "centers", "coefficients"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise InputError(f"model payload must have exactly the keys {sorted(required)}")
    return PredictorModel(
        model_order=payload["model_order"],
        kernel=kernel_from_config(payload["kernel"]),
        centers=payload["centers"],
        coefficients=payload["coefficients"],
        stability_tag=StabilityTarget.from_config(payload["stability_target"]),
    )


def save_model(model: PredictorModel, path) -> None:
    """Write the model as a self-contained, human-readable JSON file."""
    _write_json(path, model_to_dict(model), sort_keys=False)


def load_model(path) -> PredictorModel:
    return model_from_dict(_read_json(path, "model file"))


def _write_json(path, payload, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def _read_json(path, what: str):
    """The value in a JSON file; a file that cannot be opened, decoded or
    parsed raises :class:`InputError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
