"""Shared error types, estimator plumbing and input validation."""
from __future__ import annotations

import math
from typing import Any

import numpy as np


class FairsampleError(Exception):
    """Base class for every error raised on purpose by this package."""


class InputError(FairsampleError):
    """A caller-supplied value violates a documented precondition."""


class SchemaError(FairsampleError):
    """Structural problem with a dataset: missing column, bad label value."""


class RowError(FairsampleError):
    """A single data row could not be parsed."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class PlanError(InputError):
    """Invalid balance parameters or quadrant counts."""


class InfeasibleError(FairsampleError):
    """A sampling request that no valid plan or sample can satisfy."""


class TrainingError(FairsampleError):
    """A classifier could not be fitted on the given data."""


class ConfigError(FairsampleError):
    """A run configuration document failed validation."""


class SearchError(FairsampleError):
    """A grid search cannot proceed (no valid points, empty front)."""


class NotFittedError(FairsampleError):
    """An estimator was used before fit."""


def check_int(value: Any, name: str, least: int = 0, bits: int = 63) -> int:
    """An integer in [least, 2**bits); the default is the signed 64-bit
    range that numpy's seeds and counts take. Bools and other types are
    rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not least <= value < 2**bits:
        raise InputError(f"{name} must be an integer in [{least}, 2**{bits}), got {value!r}")
    return int(value)


_NUMBER = (int, float, np.integer, np.floating)


def check_number(
    value: Any, name: str, low: float = -math.inf, high: float = math.inf, ends: str = "[]"
) -> float:
    """A finite number between low and high, as a float; ends holds the
    interval's brackets, "(" or ")" for an open end. Bools, other types,
    NaN, inf and ints too large for a float are rejected."""
    try:
        number = float(value) if isinstance(value, _NUMBER) and not isinstance(value, bool) else math.nan
    except OverflowError:
        number = math.nan
    if not (
        math.isfinite(number)
        and (low < number if ends[0] == "(" else low <= number)
        and (number < high if ends[1] == ")" else number <= high)
    ):
        raise InputError(
            f"{name} must be a finite number in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}"
        )
    return number


def check_fitted(est: Any, attr: str) -> None:
    if getattr(est, attr, None) is None:
        raise NotFittedError(f"{type(est).__name__} is not fitted yet")


def as_float_matrix(X: Any, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN and inf."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def as_fitted_matrix(X: Any, columns: int, name: str = "X") -> np.ndarray:
    """as_float_matrix, with the column count the model was fitted on."""
    arr = as_float_matrix(X, name)
    if arr.shape[1] != columns:
        raise InputError(
            f"{name} has {arr.shape[1]} columns, but the model was fitted on {columns}"
        )
    return arr


def as_label_vector(y: Any, n_rows: int, name: str = "y") -> np.ndarray:
    """Coerce to a 1-D 0/1 float vector of the expected length."""
    arr = np.asarray(y, dtype=float).ravel()
    if arr.shape[0] != n_rows:
        raise InputError(f"{name} has {arr.shape[0]} rows, expected {n_rows}")
    bad = ~((arr == 0.0) | (arr == 1.0))
    if arr.size and bad.any():
        raise InputError(f"{name} must contain only 0/1 labels")
    return arr

