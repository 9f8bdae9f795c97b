"""Internal 1-D minimization helpers (grid scan plus golden-section refine)."""

import math

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
