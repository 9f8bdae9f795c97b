"""Span tracing around the public calls of each paramarket layer.

Wrappers are installed from outside the program: every paramarket module
namespace (and class) that bound a wrapped name gets the wrapper, so calls
made through ``from .x import f`` bindings are traced as well. Spans are kept
as in-memory aggregates: calls and self time per span name, and call counts
per (parent span, child span) edge.
"""

import functools
import importlib
import sys
import time
from collections import Counter

# Wrapped public calls per layer, as ``module: (attribute path, ...)``.
# ``mlp.linear_sum_assignment`` is SciPy's solver as mlp binds it.
LAYERS = {
    "config": ("load_config", "load_sweep"),
    "core": ("gradient_step", "empirical_loss", "merge"),
    "linear": ("gram_lambda_max", "synthesize_task", "estimation_error"),
    "broker": ("optimal_weight_from_residuals", "optimize_merge_weight_searched", "gain_error_ratio"),
    "bounds": ("buyer_gain_bounds", "perf_ratio_bounds", "soundness_sweep"),
    "pricing": ("seller_virtual_valuation", "settle"),
    "mlp": (
        "weight_matching_alignment",
        "linear_assignment",
        "linear_sum_assignment",
        "apply_permutation",
        "subset_merge",
        "mlp_forward_loss",
        "mlp_gradient_step",
    ),
    "engine": (
        "build_market",
        "run_round",
        "LinearBrokerEngine.begin_round",
        "MlpBrokerEngine.begin_round",
        "LinearRoundView.propose",
        "MlpRoundView.propose",
    ),
    "experiments": ("run_with_twin", "relative_improvement"),
    "io": ("write_run_outputs", "trades_csv", "curves_csv", "summary_dict"),
}

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attrs in LAYERS.items() for attr in attrs)


class Tracer:
    """Aggregated spans: self time is a span's duration minus its child spans'.

    ``stats[name]`` is ``[calls, self seconds]``; ``edges[parent, child]``
    counts calls of ``child`` made directly under ``parent`` ("" at top level).
    """

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}  # [calls, self seconds]
        self.edges = Counter()
        # Frames are [span name, time covered by child spans]; the root frame
        # collects the durations of top-level spans.
        self._stack = [["", 0.0]]

    @property
    def top_level_s(self) -> float:
        """Total duration of all top-level spans so far."""
        return self._stack[0][1]

    def wrap(self, name: str, fn):
        stack, stat, edges = self._stack, self.stats[name], self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                edges[parent[0], name] += 1

        return span


def _paramarket_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "paramarket" or n.startswith("paramarket.")]


def install(tracer: Tracer):
    """Wrap every call in LAYERS wherever paramarket bound it; returns an undo function.

    Raises RuntimeError if any paramarket namespace still holds an unwrapped
    original afterwards.
    """
    patched = []  # (owner, attribute, original)
    originals = {}
    for module_name, attrs in LAYERS.items():
        module = importlib.import_module(f"paramarket.{module_name}")
        for path in attrs:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(f"{module_name}.{path}", original)
            originals[id(original)] = f"{module_name}.{path}"
            targets = [(owner, attr)]
            if owner is module:
                targets += [
                    (m, key)
                    for m in _paramarket_modules()
                    for key, value in vars(m).items()
                    if value is original and not (m is module and key == attr)
                ]
            for target, key in targets:
                patched.append((target, key, original))
                setattr(target, key, wrapper)

    def undo():
        for target, key, original in reversed(patched):
            setattr(target, key, original)

    stale = [
        f"{m.__name__}.{key} ({originals[id(value)]})"
        for m in _paramarket_modules()
        for key, value in vars(m).items()
        if id(value) in originals
    ]
    if stale:
        undo()
        raise RuntimeError(f"unwrapped bindings remain: {', '.join(stale)}")
    return undo
