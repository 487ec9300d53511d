"""Shared error types, estimator plumbing and input validation."""
from __future__ import annotations

import inspect
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


class ParamsMixin:
    """get_params/set_params over the constructor signature.

    Same duck-typed contract as sklearn estimators: every constructor
    argument is stored under its own name and is reachable by both
    methods. Kept local so the modelling code has no ML dependencies.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [n for n in sig.parameters if n != "self"]

    def get_params(self) -> dict[str, Any]:
        return {n: getattr(self, n) for n in self._param_names()}

    def set_params(self, **params: Any):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise InputError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self


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


def as_label_vector(y: Any, n_rows: int, name: str = "y") -> np.ndarray:
    """Coerce to a 1-D 0/1 float vector of the expected length."""
    arr = np.asarray(y, dtype=float).ravel()
    if arr.shape[0] != n_rows:
        raise InputError(f"{name} has {arr.shape[0]} rows, expected {n_rows}")
    bad = ~((arr == 0.0) | (arr == 1.0))
    if arr.size and bad.any():
        raise InputError(f"{name} must contain only 0/1 labels")
    return arr

