"""The learned predictor, its iterated simulation model, and metrics.

A :class:`PredictorModel` realizes ``f(z) = sum_i c_i k(z, z_i)`` over
stored centers.  One-step prediction feeds measured windows into ``f``;
free-run simulation closes the loop by feeding the model's own outputs back
through a shift register, which is algebraically the companion-form state
model of the iterated predictor.  Both sequences copy the measured outputs
for the first ``m`` samples so simulations start from a sensible state.
One-step prediction evaluates ``f`` in fixed-size row blocks, so its
memory is bounded by one block of windows against the centers, however
long the record.  Free run steps through the same evaluator, one window at
a time: the model's centers are checked at construction and the inputs once
per call, so the evaluator goes straight to the kernel structure.

Models are immutable after construction; distinct trajectories can be
simulated concurrently, a single trajectory is inherently sequential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import _config_array, _config_fields, _config_instance, _config_int
from .errors import DivergenceError, InputError
from .kernels import ROW_BLOCK, KernelInstance, PairTerms, kernel_from_config, kernel_to_config
from .solver import FitReport, RegressionData, build_regression_data
from .viability import StabilityTarget

__all__ = [
    "PredictorModel",
    "SimulationResult",
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
        _config_instance(self.kernel, KernelInstance, "kernel")
        _config_instance(self.stability_tag, StabilityTarget, "stability_tag")
        centers = _config_array(self.centers, "centers", 2)
        coeff = _config_array(self.coefficients, "coefficients", 1)
        if self.kernel.input_dim != 2 * m + 1:
            raise InputError(
                f"kernel input_dim {self.kernel.input_dim} does not match model order {m}"
            )
        if centers.shape[1] != 2 * m + 1 or centers.shape[0] < 1:
            raise InputError(f"centers must be N x {2 * m + 1} with N >= 1, got {centers.shape}")
        if coeff.shape != (centers.shape[0],):
            raise InputError("coefficients must align one-to-one with centers")
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
        _config_instance(data, RegressionData, "data")
        _config_instance(report, FitReport, "report")
        return cls(
            model_order=data.model_order,
            kernel=kernel,
            centers=data.regressors.copy(),
            coefficients=report.coefficients.copy(),
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
    """``f`` at each checked window (row) of ``Z``: the package's one
    evaluation of the predictor.  One block of windows x centers at a time,
    so memory is bounded by the block, not by the row count."""
    structure, eta = model.kernel.structure, model.kernel.eta
    out = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], ROW_BLOCK):
        cross = structure.from_terms(eta, PairTerms(Z[start:start + ROW_BLOCK], model.centers))
        out[start:start + ROW_BLOCK] = cross @ model.coefficients
    return out


def one_step_predict(model: PredictorModel, u, y) -> np.ndarray:
    """One-step-ahead predictions from measured windows.

    The first ``m`` entries copy ``y``; entry ``t > m`` (1-based) is
    ``f(y_{t-m:t-1}, u_{t-m:t-1}, u_t)``.  The windows are evaluated in
    blocks of :data:`~stable_sysid.kernels.ROW_BLOCK` rows, so beyond the
    windows and the output the memory is that of one block's cross matrix
    against the centers, whatever the record length: a 5,001-sample record
    against 199 Gaussian centers traces a peak of about 3.3 MB, against 16 MB
    for the whole cross matrix at once.
    """
    m = _config_instance(model, PredictorModel, "model").model_order
    data = build_regression_data(u, y, m)
    out = np.empty(data.size + m)
    out[:m] = data.regressors[0, :m]  # y_1..y_m
    out[m:] = _f_batch(model, data.regressors)
    return out


def simulate(model: PredictorModel, u, y_seed) -> np.ndarray:
    """Free-run simulation: feed the model its own outputs.

    ``y_seed`` supplies the first ``m`` outputs.  Raises
    :class:`DivergenceError` (carrying the 1-based index of the first bad
    sample) when a value goes non-finite or beyond ``1e12``.
    """
    u = _config_array(u, "u", 1)
    seed = _config_array(y_seed, "y_seed", 1)
    m = _config_instance(model, PredictorModel, "model").model_order
    if u.shape[0] <= m:
        raise InputError(f"u must be 1-D with more than m = {m} samples")
    if seed.shape != (m,):
        raise InputError(f"y_seed must hold exactly m = {m} values, got shape {seed.shape}")
    n = u.shape[0]
    out = np.empty(n)
    out[:m] = seed
    Z = np.empty((1, 2 * m + 1))
    z = Z[0]
    for j in range(m, n):
        z[:m] = out[j - m:j]
        z[m:2 * m] = u[j - m:j]
        z[2 * m] = u[j]
        value = float(_f_batch(model, Z)[0])
        if not math.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"simulation diverged at sample {j + 1}: value {value!r}", index=j + 1
            )
        out[j] = value
    return out


def metrics(y_true, predicted, simulated, m: int):
    """Mean absolute one-step and simulation errors over samples m+1..n."""
    m = _config_int(m, "model order m", 1)
    y_true = _config_array(y_true, "y_true", 1, finite=False)
    predicted = _config_array(predicted, "predicted", 1, finite=False)
    simulated = _config_array(simulated, "simulated", 1, finite=False)
    if not y_true.shape == predicted.shape == simulated.shape:
        raise InputError("metrics needs three equal-length 1-D sequences")
    if y_true.shape[0] <= m:
        raise InputError("sequences must be longer than the model order")
    q_pre = float(np.mean(np.abs(y_true[m:] - predicted[m:])))
    q_sim = float(np.mean(np.abs(y_true[m:] - simulated[m:])))
    return q_pre, q_sim


def run_model(model: PredictorModel, u, y) -> SimulationResult:
    """Predict and simulate against a measured pair, with metrics."""
    _config_instance(model, PredictorModel, "model")
    y = _config_array(y, "y", 1, finite=False)
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
    _config_instance(model, PredictorModel, "model")
    _write_json(path, model_to_dict(model), sort_keys=False)


def load_model(path) -> PredictorModel:
    return model_from_dict(_read_json(path, "model file"))


def _write_json(path, payload, sort_keys: bool = True) -> None:
    """Write ``payload`` as JSON; an unwritable file raises InputError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=sort_keys)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _read_json(path, what: str):
    """The value in a JSON file; a file that cannot be opened, decoded or
    parsed raises :class:`InputError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
