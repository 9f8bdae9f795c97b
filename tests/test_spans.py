"""The benchmark's own checks hold on this code.

``perfbench/spans.py`` wraps paramarket calls by name for traced benchmark
runs; a name that no longer resolves would break every one of them. A
benchmark run also fails on outputs that `workloads.check` rejects (trade
counts exact, finals within 1e-6 of ``refs.json``) and, when traced, on a
layer of `run.EXPECTED_LAYERS` that recorded no call. The perfbench files are
loaded from their paths and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from paramarket.broker import GainKind
from paramarket.config import AgentSpec, BrokerSpec, MarketConfig
from paramarket.engine import run_simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("linear-desk", "mlp-layers", "competitive-small", "bounds-audit")


def load(name: str):
    """``perfbench/<name>.py`` as a fresh module; ``sys.path`` is as before once it is loaded.

    perfbench's own directory is on the path while it loads (``run.py``
    imports ``hostspeed`` from there), and ``workloads.py`` puts ``src/`` first.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def resolve(span: str):
    module, *path = span.split(".")
    owner = importlib.import_module(f"paramarket.{module}")
    for part in path:
        owner = getattr(owner, part)
    return owner


def test_every_span_installs_traces_and_undoes():
    spans = load("spans")
    originals = {name: resolve(name) for name in spans.SPAN_NAMES}
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert all(resolve(name) is not fn for name, fn in originals.items())
        cfg = MarketConfig(
            seed=0, rounds=3, gain_kind=GainKind.ERROR_RATIO,
            agents=(AgentSpec("a", dim=4, n_samples=20), AgentSpec("b", dim=4, n_samples=10)),
            broker=BrokerSpec(n_samples=40),
        )
        run_simulation(cfg)
    finally:
        undo()
    assert all(resolve(name) is fn for name, fn in originals.items())
    assert tracer.stats["engine.run_round"][0] == cfg.rounds + 1  # round 0 included
    assert tracer.stats["engine.LinearRoundView.propose"][0] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_pool_item_passes_the_benchmark_check(name, tmp_path):
    workloads = load("workloads")
    item = workloads.pool(name)[0]
    result = workloads.run_item(item, str(tmp_path))
    assert workloads.check(item, result, workloads.load_refs()) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_warmup_records_a_call_in_every_expected_layer(name, tmp_path):
    # As a traced run checks its pass: building the item loads its config.
    spans, workloads, run = load("spans"), load("workloads"), load("run")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        workloads.run_item(workloads.WORKLOADS[name].warmup(), str(tmp_path))
    finally:
        undo()
    calls = {layer: 0 for layer in spans.LAYERS}
    for span, (n, _) in tracer.stats.items():
        calls[span.split(".")[0]] += n
    assert [layer for layer in run.EXPECTED_LAYERS[name] if not calls[layer]] == []
