"""The one-thread BLAS pin around market builds and runs."""

from dataclasses import replace

import pytest

from paramarket import _blas, engine
from paramarket.broker import GainKind
from paramarket.config import AgentSpec, BrokerSpec, MarketConfig, cell_config
from paramarket.core import DivergenceError
from paramarket.engine import run_simulation
from paramarket.experiments import run_with_twin


def small_cfg(step_size=None):
    return MarketConfig(
        seed=3,
        rounds=4,
        gain_kind=GainKind.ERROR_RATIO,
        agents=(
            AgentSpec("a", dim=8, n_samples=40, step_size=step_size),
            AgentSpec("b", dim=8, n_samples=20, noise_variance=0.3, step_size=step_size),
        ),
        broker=BrokerSpec(n_samples=300),
        pricing=True,
    )


@pytest.fixture
def threads():
    """Both bundled libraries at two threads for the test; returns a reader of their counts."""
    calls = [c for package, suffix in _blas._BUNDLED for c in _blas._entry_points(package, suffix)]
    if not calls:
        pytest.skip("no bundled OpenBLAS exports its thread-count calls")
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(2)
    yield lambda: [get() for get, _ in calls]
    for (_, set_), n in zip(calls, saved):
        set_(n)


def spy(monkeypatch, module, name, read) -> list:
    """Record the thread counts at every call of ``module.name``."""
    real = getattr(module, name)
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(read())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_market_runs_at_one_thread_and_restores_the_callers_count(threads, monkeypatch):
    # The broker engine is built at the end of every linear build.
    built = spy(monkeypatch, engine, "LinearBrokerEngine", threads)
    rounds = spy(monkeypatch, engine, "run_round", threads)
    run_simulation(small_cfg())
    ones = [1] * len(threads())
    assert built == [ones] and rounds == [ones] * 5
    assert threads() == [2] * len(ones)


def test_divergence_restores_the_callers_count(threads, monkeypatch):
    rounds = spy(monkeypatch, engine, "run_round", threads)
    with pytest.raises(DivergenceError):
        run_simulation(small_cfg(step_size=1e80))
    assert rounds and all(set(seen) == {1} for seen in rounds)
    assert set(threads()) == {2}


def test_endowment_cell_builds_and_runs_at_one_thread(threads, monkeypatch):
    # An endowment cell's agents share n and noise.
    a, b = small_cfg().agents
    cfg = cell_config(replace(small_cfg(), agents=(a, replace(b, n_samples=40, noise_variance=0.0))),
                      "endowment", 0.5)
    built = spy(monkeypatch, engine, "LinearBrokerEngine", threads)
    rounds = spy(monkeypatch, engine, "run_round", threads)
    run_with_twin(cfg)
    ones = [1] * len(threads())
    assert built == [ones] and rounds == [ones] * 10
    assert threads() == [2] * len(ones)


def test_nested_pin_restores_the_callers_count(threads):
    ones = [1] * len(threads())
    with _blas.one_thread():
        with _blas.one_thread():
            assert threads() == ones
        assert threads() == ones  # the inner pin gives back the outer one's count
    assert threads() == [2] * len(ones)


def test_missing_symbols_run_unpinned(threads, monkeypatch):
    monkeypatch.setattr(_blas, "_BUNDLED", (("numpy", "_missing"), ("scipy", "_missing")))
    monkeypatch.setattr(_blas, "_counts", None)
    rounds = spy(monkeypatch, engine, "run_round", threads)
    log = run_simulation(small_cfg())
    assert _blas._counts == []
    assert len(log.curves) == 10 and all(set(seen) == {2} for seen in rounds)
