"""Broker-side machinery: try-before-purchase merge optimization and gains.

The broker is the trusted third party. Before any money moves it merges a
prospective buyer/seller pair at the loss-minimizing weight on its own
validation data, and reports each agent's gain-from-trade confidentially.
Two gain notions are supported: the loss difference before/after the merge
(no knowledge of true parameters needed) and the squared estimation-error
ratio (broker knows the true parameters).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._search import grid_then_golden
from .core import DivergenceError, ParameterVector
from .linear import estimation_error

__all__ = [
    "WEIGHT_FLOOR",
    "GainKind",
    "GainReport",
    "MergeProposal",
    "optimal_weight_from_residuals",
    "optimize_merge_weight_searched",
    "gain_loss_difference",
    "gain_error_ratio",
    "fedavg_weight",
]

# Stand-in for the open endpoint of the (0, 1] weight interval.
WEIGHT_FLOOR = 1e-6


class GainKind(Enum):
    LOSS_DIFFERENCE = "loss-difference"
    ERROR_RATIO = "error-ratio"


@dataclass(frozen=True)
class GainReport:
    """One agent's gain-from-trade as disclosed by the broker.

    A loss-difference gain is beneficial when positive; an error-ratio gain is
    beneficial when it exceeds one.
    """

    kind: GainKind
    value: float
    trade_beneficial: bool


@dataclass(frozen=True, eq=False)
class MergeProposal:
    """Outcome of the broker's try-before-purchase weight search."""

    weight: float
    merged: ParameterVector
    broker_loss_before: float
    broker_loss_after: float


def optimal_weight_from_residuals(buyer_residual: np.ndarray, delta_pred: np.ndarray) -> float:
    """Loss-minimizing merge weight for a linear model, in residual space.

    With ``r = X theta_buyer - Y`` and ``s = X (theta_seller - theta_buyer)``
    the broker loss along the merge path is ``||r + nu * s||^2``, a quadratic
    whose unconstrained minimizer is ``-<r, s> / ||s||^2``. Clamped into
    ``[WEIGHT_FLOOR, 1]``; a flat direction (``s = 0``) resolves to the floor,
    the least-intervention choice.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        ss = float(delta_pred @ delta_pred)
        if not math.isfinite(ss):
            raise DivergenceError("merge-weight optimization hit non-finite predictions")
        if ss == 0.0:
            return WEIGHT_FLOOR
        nu = -float(buyer_residual @ delta_pred) / ss
    if not math.isfinite(nu):
        raise DivergenceError("merge-weight optimization hit non-finite predictions")
    return min(max(nu, WEIGHT_FLOOR), 1.0)


def optimize_merge_weight_searched(loss_at_weight) -> tuple[float, float]:
    """Weight search for non-quadratic losses (neural merges).

    Grid scan over [WEIGHT_FLOOR, 1] followed by golden-section refinement;
    the result is never worse than any probed grid point, and grid ties break
    toward the smaller weight. The refinement stops at a bracket of width 1e-6.
    """
    return grid_then_golden(loss_at_weight, WEIGHT_FLOOR, 1.0, 1e-6)


def gain_loss_difference(proposal: MergeProposal) -> GainReport:
    """Gain-from-trade as the proposal's broker loss before the merge minus after."""
    value = proposal.broker_loss_before - proposal.broker_loss_after
    return GainReport(GainKind.LOSS_DIFFERENCE, value, trade_beneficial=value > 0.0)


def gain_error_ratio(
    dot: ParameterVector,
    merged: ParameterVector,
    theta_star: ParameterVector,
) -> GainReport:
    """Gain-from-trade as the ratio of squared estimation errors, before over after.

    Merged parameters that coincide with the truth give an unbounded gain,
    reported as +inf (always beneficial).
    """
    err_after = estimation_error(merged, theta_star)
    if err_after <= 1e-15:
        return GainReport(GainKind.ERROR_RATIO, math.inf, trade_beneficial=True)
    value = estimation_error(dot, theta_star) / err_after
    return GainReport(GainKind.ERROR_RATIO, value, trade_beneficial=value > 1.0)


def fedavg_weight(n_buyer: int, n_seller: int) -> float:
    """Fixed interpolation weight set by data shares alone (no broker search)."""
    if n_buyer < 1 or n_seller < 1:
        raise ValueError(f"sample counts must be >= 1, got {n_buyer} and {n_seller}")
    return n_seller / (n_buyer + n_seller)
