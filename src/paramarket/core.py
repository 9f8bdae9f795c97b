"""Shared parameter, dataset, and loss primitives.

Everything downstream (broker, market engine, analytics) works on the two
value types defined here: a flat parameter vector and a labeled dataset. The
loss is the mean squared residual over samples. Both types are immutable
after construction and every operation is a pure function, so they are safe
to share across threads.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "DivergenceError",
    "ParameterVector",
    "LabeledDataset",
    "residual",
    "empirical_loss",
    "loss_gradient",
    "gradient_step",
    "merge",
]


class DimensionMismatchError(ValueError):
    """Two objects that must share a dimension do not."""

    def __init__(self, expected: int, actual: int, context: str = ""):
        self.expected = expected
        self.actual = actual
        where = f" ({context})" if context else ""
        super().__init__(
            f"dimension mismatch{where}: expected {expected}, got {actual}"
        )


class DivergenceError(ArithmeticError):
    """A gradient update produced non-finite values (step size too large)."""

    def __init__(self, message: str, round_index: int | None = None):
        self.round_index = round_index
        if round_index is not None:
            message = f"{message} (round {round_index})"
        super().__init__(message)


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _check_weight(weight: float) -> None:
    if not (0.0 < weight <= 1.0):
        raise ValueError(f"merge weight must lie in (0, 1], got {weight}")


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """A flat real parameter set; the commodity that gets traded and merged.

    Takes ownership of a float64 C-contiguous array: it is frozen in place, not copied.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"parameters must be a non-empty 1-D vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("parameters contain non-finite entries")
        object.__setattr__(self, "values", _frozen(v, np.float64))

    @property
    def dimension(self) -> int:
        return self.values.size

    def require_dimension(self, expected: int, context: str = "") -> None:
        if self.dimension != expected:
            raise DimensionMismatchError(expected, self.dimension, context)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Design matrix plus labels: inputs is n-by-d, labels has length n.

    Takes ownership of its arrays like `ParameterVector`: a copy would hold a large design twice.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"inputs must be a non-empty n-by-d matrix, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionMismatchError(x.shape[0], y.shape[0], "label count vs input rows")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "inputs", _frozen(x, np.float64))
        object.__setattr__(self, "labels", _frozen(y, np.float64))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]


def residual(params: ParameterVector, data: LabeledDataset) -> np.ndarray:
    """``X theta - Y``, which the squared loss and its gradient both start from."""
    params.require_dimension(data.dimension, "parameters vs dataset columns")
    return data.inputs @ params.values - data.labels


def empirical_loss(
    params: ParameterVector, data: LabeledDataset, resid: np.ndarray | None = None
) -> float:
    """Mean squared residual of a linear predictor on a dataset, ``||X theta - Y||^2 / n``.

    ``resid`` is `residual` at ``params``, when the caller holds it already.
    """
    r = residual(params, data) if resid is None else resid
    return float(r @ r) / data.n_samples


def loss_gradient(
    params: ParameterVector, data: LabeledDataset, resid: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of `empirical_loss` at ``params``: ``2 X^T (X theta - Y) / n``."""
    r = residual(params, data) if resid is None else resid
    g = 2.0 * (data.inputs.T @ r)
    g /= data.n_samples
    return g


def gradient_step(
    params: ParameterVector,
    data: LabeledDataset,
    step_size: float,
    resid: np.ndarray | None = None,
) -> ParameterVector:
    """One plain gradient-descent update on the empirical loss.

    ``resid`` is passed on to `loss_gradient`. Raises DivergenceError if the
    update overflows to non-finite values; the market engine re-raises this
    with the offending round attached.
    """
    if not step_size > 0:
        raise ValueError(f"step size must be positive, got {step_size}")
    g = loss_gradient(params, data, resid)
    try:  # the shape is the input's, so only the constructor's finiteness check can fail
        return ParameterVector(params.values - step_size * g)
    except ValueError:
        raise DivergenceError("gradient update produced non-finite parameters") from None


def merge(buyer: ParameterVector, seller: ParameterVector, weight: float) -> ParameterVector:
    """Convex combination ``(1 - weight) * buyer + weight * seller``.

    ``weight`` is the seller's share and must lie in (0, 1]; weight 1 replaces
    the buyer's parameters outright.
    """
    seller.require_dimension(buyer.dimension, "seller vs buyer parameters")
    _check_weight(weight)
    return ParameterVector((1.0 - weight) * buyer.values + weight * seller.values)
