"""One BLAS thread for the length of a market build or run.

OpenBLAS splits a product or a factorization differently at each thread
count, so its results, and a market's output bytes, change in the last bits
with the host's thread count. numpy and SciPy wheels each bundle an OpenBLAS;
`one_thread` sets both to one thread and gives back the caller's counts on
exit, also when the body raises. It nests, and it is process-wide: markets
must not run concurrently from threads. A BLAS that lacks these entry points
(another build, or one linked by the system) runs at its own thread count.
"""

import contextlib
import ctypes
import glob
import importlib.util
import os

# Each package's bundled OpenBLAS, with the suffix of its exported names.
_BUNDLED = (("numpy", "64_"), ("scipy", ""))
_counts = None  # [(get, set)] thread-count calls, looked up on the first pin


def _entry_points(package: str, suffix: str) -> list:
    # find_spec locates a top-level package without importing it, so looking
    # up SciPy's library loads no SciPy module.
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return []
    libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), f"{package}.libs")
    found = []
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return found


@contextlib.contextmanager
def one_thread():
    """Run the body (or, as a decorator, each call) at one BLAS thread."""
    global _counts
    if _counts is None:
        _counts = [calls for package, suffix in _BUNDLED for calls in _entry_points(package, suffix)]
    counts = _counts
    saved = [get() for get, _ in counts]
    for _, set_ in counts:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(counts, saved):
            set_(n)
