"""Statistics, parameter views, prior densities and reference searches that only the tests use."""

import itertools
import math

import numpy as np
from scipy import stats

from paramarket._search import golden_section_min
from paramarket.mlp import LayerPermutations, MlpParams
from paramarket.pricing import PriorDistribution, PriorKind


def spearman(xs, ys) -> float:
    """Spearman rank correlation (scipy two-sided, statistic only)."""
    value = stats.spearmanr(xs, ys).statistic
    return float(value) if not math.isnan(value) else 0.0


def flatten(params: MlpParams) -> np.ndarray:
    """All weights and biases of a net as one vector, layer by layer, weights first."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten(vector: np.ndarray, layer_sizes) -> MlpParams:
    """The net with the given layer sizes whose `flatten` is ``vector``."""
    vector = np.asarray(vector, dtype=np.float64)
    ws, bs, k = [], [], 0
    for h_in, h_out in itertools.pairwise(layer_sizes):
        ws.append(vector[k : k + h_out * h_in].reshape(h_out, h_in))
        k += h_out * h_in
        bs.append(vector[k : k + h_out])
        k += h_out
    if k != vector.size:
        raise ValueError(f"vector of size {vector.size} does not fit layer sizes {tuple(layer_sizes)}")
    return MlpParams(tuple(ws), tuple(bs))


def inverse(perms: LayerPermutations) -> LayerPermutations:
    return LayerPermutations(tuple(np.argsort(p) for p in perms.perms))


def is_identity(perms: LayerPermutations) -> bool:
    return all(np.array_equal(p, np.arange(p.size)) for p in perms.perms)


def identity_perms(hidden_sizes) -> LayerPermutations:
    return LayerPermutations(tuple(np.arange(h, dtype=np.intp) for h in hidden_sizes))


def pdf(prior: PriorDistribution, p: float) -> float:
    """Density of the prior at ``p``."""
    if prior.kind is PriorKind.UNIFORM:
        inside = prior.lo <= p <= prior.hi and prior.hi > prior.lo
        return 1.0 / (prior.hi - prior.lo) if inside else 0.0
    return prior.rate * math.exp(-prior.rate * p) if p >= 0 else 0.0


def myerson_price_numeric(prior: PriorDistribution, tol: float = 1e-10) -> float:
    """Golden-section maximizer of expected revenue; cross-check for the closed forms."""
    if prior.kind is PriorKind.UNIFORM:
        if prior.hi == prior.lo:
            return prior.lo
        lo, hi = prior.lo, prior.hi
    else:
        lo, hi = 0.0, 20.0 / prior.rate
    revenue = lambda p: -p * (1.0 - prior.cdf(p))  # noqa: E731
    price, _ = golden_section_min(revenue, lo, hi, tol=tol * max(hi - lo, 1.0))
    return price


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def reference_golden_section_min(f, lo, hi, tol=1e-6):
    # The golden-section search before it carried the values at the bracket
    # ends: it evaluates both final ends again.
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    fa, fb = f(a), f(b)
    return (a, fa) if fa <= fb else (b, fb)


def reference_grid_then_golden(f, lo, hi, tol=1e-6, grid_points=33):
    # The grid scan whose refinement re-evaluates the grid points at its ends.
    n = max(grid_points, 3)
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    fs = [f(x) for x in xs]
    k = min(range(n), key=lambda i: (fs[i], xs[i]))
    x, fx = reference_golden_section_min(f, xs[max(k - 1, 0)], xs[min(k + 1, n - 1)], tol)
    if fs[k] < fx or (fs[k] == fx and xs[k] < x):
        return xs[k], fs[k]
    return x, fx
