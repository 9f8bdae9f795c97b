"""Synthetic linear-regression tasks and linear-model analytics.

Covers task generation (standard-normal designs with optional Gaussian label
noise), squared parameter-estimation error, and the largest eigenvalue of the
Gram matrix, which sets an agent's automatic step size.
"""

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, ParameterVector

__all__ = [
    "LinearTask",
    "synthesize_task",
    "estimation_error",
    "gram_lambda_max",
]


@dataclass(frozen=True, eq=False)
class LinearTask:
    """One agent's endowment: data generated as ``Y = X theta_star + noise``."""

    data: LabeledDataset
    true_params: ParameterVector

    def __post_init__(self):
        self.true_params.require_dimension(self.data.dimension, "true params vs dataset")


def synthesize_task(
    dim: int,
    n: int,
    noise_variance: float,
    theta_star: ParameterVector,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> LinearTask:
    """Draw an i.i.d. standard-normal design and label it with ``theta_star``.

    Labels are ``X theta_star`` plus zero-mean Gaussian noise of the given
    variance; with variance 0 the true parameters fit the data exactly.
    Deterministic given the generator state. The design is drawn into
    ``out`` (a C-contiguous n-by-dim float64 array, frozen afterwards) when
    given; the draws are the same either way.
    """
    if dim < 1 or n < 1:
        raise ValueError(f"need dim >= 1 and n >= 1, got dim={dim}, n={n}")
    if noise_variance < 0:
        raise ValueError(f"noise variance must be non-negative, got {noise_variance}")
    theta_star.require_dimension(dim, "theta_star vs requested dim")
    x = rng.standard_normal((n, dim), out=out)
    y = x @ theta_star.values
    if noise_variance > 0:
        y = y + np.sqrt(noise_variance) * rng.standard_normal(n)
    return LinearTask(LabeledDataset(x, y), theta_star)


def estimation_error(params: ParameterVector, theta_star: ParameterVector) -> float:
    """Squared Euclidean distance to the true parameters, ``||theta - theta*||^2``."""
    params.require_dimension(theta_star.dimension, "params vs theta_star")
    d = params.values - theta_star.values
    return float(d @ d)


def gram_lambda_max(data: LabeledDataset) -> float:
    """Largest eigenvalue of X^T X.

    X X^T has the same nonzero eigenvalues, so the smaller of the two Gram
    matrices is formed and only its top eigenvalue is solved for.
    """
    import scipy.linalg  # loaded on first use: importing paramarket loads no SciPy
    x = data.inputs
    gram = x @ x.T if data.n_samples < data.dimension else x.T @ x
    top = gram.shape[0] - 1
    return float(scipy.linalg.eigvalsh(gram, subset_by_index=[top, top])[0])
