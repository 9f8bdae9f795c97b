"""Internal 1-D minimization helpers (grid scan plus golden-section refine)."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (argmin, value). The bracket is shrunk until its width is at most
    ``tol``; ties inside the bracket resolve toward the smaller argument.
    """
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


def grid_then_golden(
    f, lo: float, hi: float, tol: float = 1e-6, grid_points: int = 33
) -> tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement around the best cell.

    Robust for losses that are not unimodal on the interval. The returned value
    never exceeds the loss at any probed grid point; among grid ties the
    smallest argument wins.
    """
    n = max(grid_points, 3)
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    fs = [f(x) for x in xs]
    k = min(range(n), key=lambda i: (fs[i], xs[i]))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, n - 1)]
    x, fx = golden_section_min(f, a, b, tol)
    if fs[k] < fx or (fs[k] == fx and xs[k] < x):
        return xs[k], fs[k]
    return x, fx
