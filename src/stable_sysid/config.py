"""The boundary rules: each kind of value that enters the package (count,
real, ``rho``, ``chi``, ``eta``, flag, array, object of a config class,
config block) is checked by one rule here, which raises
:class:`~stable_sysid.errors.InputError` naming the value.  An array is read
once, where it enters; inside the package the checked float64 array is
passed on and not checked again.  Structure configs are parsed in
:mod:`stable_sysid.kernels`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InputError


def _as_float(value):
    """A real number other than a bool as a float, else None."""
    try:
        return float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else None
    except OverflowError:  # an integer beyond the float range
        return None


def _config_int(value, what: str, minimum: int | None = None) -> int:
    """A count: integers (numpy ones too) and integral floats pass; 2.7,
    ``"2"`` and ``True`` raise, and so does a count below ``minimum``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def _config_real(value, what: str) -> float:
    """A real as a float: finite numbers (numpy ones too) pass; ``"0.5"``,
    ``True``, nan and ±inf raise."""
    x = _as_float(value)
    if x is None or not math.isfinite(x):
        raise InputError(f"{what} must be a number with a finite value, got {value!r}")
    return x


def _config_nonnegative(value, what: str, rule: str = "must be >= 0") -> float:
    """A real in ``[0, inf]`` as a float; nan, negatives, bools and strings raise."""
    x = _as_float(value)
    if x is None or not x >= 0:
        raise InputError(f"{what} {rule}, got {value!r}")
    return x


def _config_rho(value, what: str) -> float:
    """A target's ``rho``: a real in ``[0, inf]``."""
    return _config_nonnegative(value, what, "needs rho in [0, inf]")


def _config_chi(value) -> float:
    """A norm budget ``chi`` as a float: finite reals in ``(0, 1)`` pass."""
    chi = _config_real(value, "chi")
    if not 0.0 < chi < 1.0:
        raise InputError(f"chi must lie in (0, 1), got {chi!r}")
    return chi


def _config_eta(value) -> tuple:
    """A hyperparameter vector as a tuple; the structure checks its entries."""
    try:
        return tuple(value)
    except TypeError as exc:
        raise InputError(f"eta must be a sequence of numbers, got {value!r}") from exc


def _config_array(value, what: str, ndim: int | None, finite: bool = True) -> np.ndarray:
    """An array of real numbers as float64: integer and real dtypes pass, and
    a float64 array comes back as the same object.  Strings, bools, complex
    values, objects and ragged nesting raise, and so do a rank other than
    ``ndim`` (None takes any) and, where ``finite``, nan and ±inf."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise InputError(f"{what} must be an array of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise InputError(f"{what} must be an array of numbers, got {arr.dtype} values")
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    arr = arr.astype(float, copy=False)
    if finite and not np.all(np.isfinite(arr)):
        raise InputError(f"{what} contains non-finite values")
    return arr


def _config_instance(value, cls, what: str):
    """An object of ``cls`` (or a subclass) as given; anything else raises."""
    if not isinstance(value, cls):
        raise InputError(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def _config_flag(value, what: str) -> None:
    """A flag: ``True`` and ``False`` pass; 1, ``"true"`` and None raise."""
    if not isinstance(value, bool):
        raise InputError(f"{what} must be true or false, got {value!r}")


def _config_fields(config, ints=None, reals=(), bools=()) -> None:
    """Check the named count, real and flag fields of a frozen config, and
    replace counts and reals by their checked values; ``ints`` maps each
    count field to its lower bound, or None."""
    for name, minimum in (ints or {}).items():
        object.__setattr__(config, name, _config_int(getattr(config, name), name, minimum))
    for name in reals:
        object.__setattr__(config, name, _config_real(getattr(config, name), name))
    for name in bools:
        _config_flag(getattr(config, name), name)


def _reject_unknown(cfg: dict, allowed: set, where: str) -> None:
    """A config block: a JSON object whose keys are all ``allowed``."""
    if not isinstance(cfg, dict):
        raise InputError(f"{where} must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - allowed
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")
