"""Synthetic linear-regression tasks and linear-model analytics.

Covers task generation (standard-normal designs with optional Gaussian label
noise), squared parameter-estimation error, eigen-extremes of the Gram matrix
by a direct symmetric eigen-solve, and the condition-number interval that
relates an agent's post-merge loss to its pre-merge loss.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import LabeledDataset, ParameterVector

__all__ = [
    "SingularityError",
    "LinearTask",
    "SpectrumSummary",
    "synthesize_task",
    "estimation_error",
    "gram_lambda_max",
    "spectrum",
    "loss_ratio_bounds",
]

class SingularityError(ValueError):
    """The Gram matrix X^T X is not positive definite."""


@dataclass(frozen=True, eq=False)
class LinearTask:
    """One agent's endowment: data generated as ``Y = X theta_star + noise``."""

    data: LabeledDataset
    true_params: ParameterVector
    noise_variance: float

    def __post_init__(self):
        if self.noise_variance < 0:
            raise ValueError(f"noise variance must be non-negative, got {self.noise_variance}")
        self.true_params.require_dimension(self.data.dimension, "true params vs dataset")


@dataclass(frozen=True)
class SpectrumSummary:
    """Extreme eigenvalues of X^T X and their ratio (the condition number)."""

    lambda_max: float
    lambda_min: float
    rho: float


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
    theta_star.require_dimension(dim, "theta_star vs requested dim")
    x = rng.standard_normal((n, dim), out=out)
    y = x @ theta_star.values
    if noise_variance > 0:
        y = y + np.sqrt(noise_variance) * rng.standard_normal(n)
    return LinearTask(LabeledDataset(x, y), theta_star, float(noise_variance))


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
    x = data.inputs
    gram = x @ x.T if data.n_samples < data.dimension else x.T @ x
    top = gram.shape[0] - 1
    return float(scipy.linalg.eigvalsh(gram, subset_by_index=[top, top])[0])


def spectrum(data: LabeledDataset) -> SpectrumSummary:
    """Eigen-extremes of X^T X and the condition number rho = lambda_max / lambda_min.

    Both extremes come from one symmetric eigen-solve of the Gram matrix.
    Raises SingularityError when the Gram matrix is numerically singular (for
    instance when n < d).
    """
    x = data.inputs
    eigs = scipy.linalg.eigvalsh(x.T @ x)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= 1e-12 * lam_max:
        raise SingularityError(
            f"smallest eigenvalue {lam_min:.3e} is below tolerance; matrix treated as singular"
        )
    return SpectrumSummary(lambda_max=lam_max, lambda_min=lam_min, rho=lam_max / lam_min)


def loss_ratio_bounds(gain: float, rho: float, loss_before: float) -> tuple[float, float]:
    """Interval for the post-merge loss given the gain ratio and condition number.

    For a noiseless linear task the loss is the Gram-weighted squared distance
    to the true parameters, so a merge whose estimation-error ratio is ``gain``
    lands within ``[loss_before / (rho * gain), rho * loss_before / gain]``.
    """
    if not gain > 0:
        raise ValueError(f"gain ratio must be positive, got {gain}")
    if not rho >= 1:
        raise ValueError(f"condition number must be >= 1, got {rho}")
    if loss_before < 0:
        raise ValueError(f"loss must be non-negative, got {loss_before}")
    return loss_before / (rho * gain), rho * loss_before / gain
