"""The benchmark's span list names calls that exist.

``perfbench/spans.py`` wraps paramarket calls by name for traced benchmark
runs; a name that no longer resolves would break every one of them. The file
is loaded from its path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from paramarket.broker import GainKind
from paramarket.config import AgentSpec, BrokerSpec, MarketConfig
from paramarket.engine import run_simulation

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(span: str):
    module, *path = span.split(".")
    owner = importlib.import_module(f"paramarket.{module}")
    for part in path:
        owner = getattr(owner, part)
    return owner


def test_every_span_installs_traces_and_undoes():
    spans = load_spans()
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
    assert tracer.stats["engine.run_round"][0] == cfg.rounds
    assert tracer.stats["engine.LinearRoundView.propose"][0] > 0
