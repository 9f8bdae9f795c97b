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

    @property
    def trade_beneficial(self) -> bool:  # +inf is beneficial and NaN is not
        return self.value > (0.0 if self.kind is GainKind.LOSS_DIFFERENCE else 1.0)


@dataclass(frozen=True, eq=False)
class MergeProposal:
    """The broker's try-before-purchase merge, with the buyer's gain scored by the broker's rule."""

    weight: float
    merged: ParameterVector
    broker_loss_after: float
    gain: GainReport


def optimal_weight_from_residuals(buyer_residual: np.ndarray, delta_pred: np.ndarray) -> float:
    """Loss-minimizing merge weight for a linear model, in residual space.

    With ``r = X theta_buyer - Y`` and ``s = X (theta_seller - theta_buyer)``
    the broker loss along the merge path is ``||r + nu * s||^2``, a quadratic
    whose unconstrained minimizer is ``-<r, s> / ||s||^2``. Clamped into
    ``[WEIGHT_FLOOR, 1]``; a flat direction (``s = 0``) resolves to the floor,
    the least-intervention choice.
    """
    ss = float(delta_pred @ delta_pred)
    if not math.isfinite(ss):
        raise DivergenceError("merge-weight optimization hit non-finite predictions")
    if ss == 0.0:
        return WEIGHT_FLOOR
    nu = -float(buyer_residual @ delta_pred) / ss
    if not math.isfinite(nu):
        raise DivergenceError("merge-weight optimization hit non-finite predictions")
    return min(max(nu, WEIGHT_FLOOR), 1.0)


# One-dimensional minimization for the searched merge weight: a grid scan,
# then golden-section refinement around the best grid cell.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo: float, hi: float, tol: float, f_lo: float, f_hi: float) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (argmin, value). The bracket is shrunk until its width is at most
    ``tol``; ties inside the bracket resolve toward the smaller argument.
    ``f_lo`` and ``f_hi`` are ``f(lo)`` and ``f(hi)``. The values at the
    bracket ends move along with them, so ``f`` is never evaluated at an end.
    """
    a, b = float(lo), float(hi)
    fa, fb = f_lo, f_hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (a, fa) if fa <= fb else (b, fb)


def grid_then_golden(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Scan of a 33-point grid followed by golden-section refinement around the best cell.

    Robust for losses that are not unimodal on the interval. The returned value
    never exceeds the loss at any probed grid point; among grid ties the
    smallest argument wins. The refinement reuses the grid values at its bracket ends.
    """
    n = 33
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    fs = [f(x) for x in xs]
    k = min(range(n), key=lambda i: (fs[i], xs[i]))
    a, b = max(k - 1, 0), min(k + 1, n - 1)
    x, fx = golden_section_min(f, xs[a], xs[b], tol, fs[a], fs[b])
    if fs[k] < fx or (fs[k] == fx and xs[k] < x):
        return xs[k], fs[k]
    return x, fx


def optimize_merge_weight_searched(loss_at_weight) -> tuple[float, float]:
    """Weight search for non-quadratic losses (neural merges).

    Grid scan over [WEIGHT_FLOOR, 1] followed by golden-section refinement;
    the result is never worse than any probed grid point, and grid ties break
    toward the smaller weight. The refinement stops at a bracket of width 1e-6.
    """
    return grid_then_golden(loss_at_weight, WEIGHT_FLOOR, 1.0, 1e-6)


def gain_loss_difference(before: float, after: float) -> GainReport:
    """Gain-from-trade as the broker loss before the merge minus after."""
    return GainReport(GainKind.LOSS_DIFFERENCE, before - after)


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
        return GainReport(GainKind.ERROR_RATIO, math.inf)
    return GainReport(GainKind.ERROR_RATIO, estimation_error(dot, theta_star) / err_after)


def fedavg_weight(n_buyer: int, n_seller: int) -> float:
    """Fixed interpolation weight set by data shares alone (no broker search)."""
    if n_buyer < 1 or n_seller < 1:
        raise ValueError(f"sample counts must be >= 1, got {n_buyer} and {n_seller}")
    return n_seller / (n_buyer + n_seller)
