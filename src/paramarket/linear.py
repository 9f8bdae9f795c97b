"""Synthetic linear-regression tasks and linear-model analytics.

Covers task generation (standard-normal designs with optional Gaussian label
noise), squared parameter-estimation error, and the largest eigenvalue of the
Gram matrix, which sets an agent's automatic step size.
"""

import math

import numpy as np

from .core import LabeledDataset, ParameterVector

__all__ = [
    "synthesize_task",
    "estimation_error",
    "gram_lambda_max",
]


def synthesize_task(
    dim: int,
    n: int,
    noise_variance: float,
    theta_star: ParameterVector,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Draw an i.i.d. standard-normal design and label it with ``theta_star``.

    Labels are ``X theta_star`` plus zero-mean Gaussian noise of the given
    variance; with variance 0 the true parameters fit the data exactly.
    Deterministic given the generator state.
    """
    if dim < 1 or n < 1:
        raise ValueError(f"need dim >= 1 and n >= 1, got dim={dim}, n={n}")
    if not 0 <= noise_variance < math.inf:
        raise ValueError(f"noise variance must be finite and >= 0, got {noise_variance}")
    theta_star.require_dimension(dim, "theta_star vs requested dim")
    x = rng.standard_normal((n, dim))
    y = x @ theta_star.values
    if noise_variance > 0:
        y = y + np.sqrt(noise_variance) * rng.standard_normal(n)
    return LabeledDataset(x, y)


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
