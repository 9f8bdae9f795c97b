"""The one-thread BLAS pin around market builds and runs."""

import pytest

from paramarket import _blas, engine, experiments
from paramarket.broker import GainKind
from paramarket.core import DivergenceError
from paramarket.engine import AgentSpec, BrokerSpec, MarketConfig, run_simulation


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
    built = spy(monkeypatch, engine, "linear_market", threads)
    rounds = spy(monkeypatch, engine, "run_round", threads)
    run_simulation(small_cfg())
    ones = [1] * len(threads())
    assert built == [ones] and rounds == [ones] * 4
    assert threads() == [2] * len(ones)


def test_divergence_restores_the_callers_count(threads, monkeypatch):
    rounds = spy(monkeypatch, engine, "run_round", threads)
    with pytest.raises(DivergenceError):
        run_simulation(small_cfg(step_size=1e80))
    assert rounds and all(set(seen) == {1} for seen in rounds)
    assert set(threads()) == {2}


def test_nested_pin_of_an_endowment_cell_restores_the_callers_count(threads, monkeypatch):
    # The cell pins its build; each run inside it pins again. Between the
    # market and its twin the outer pin still holds.
    rounds = spy(monkeypatch, engine, "run_round", threads)
    between = spy(monkeypatch, experiments, "never_trade_variant", threads)
    experiments._run_cell((small_cfg(), "endowment", 0, 0.5, 11))
    assert len(rounds) == 8 and all(set(seen) == {1} for seen in rounds + between)
    assert set(threads()) == {2}


def test_missing_symbols_run_unpinned(threads, monkeypatch):
    monkeypatch.setattr(_blas, "_BUNDLED", (("numpy", "_missing"), ("scipy", "_missing")))
    monkeypatch.setattr(_blas, "_counts", None)
    rounds = spy(monkeypatch, engine, "run_round", threads)
    log = run_simulation(small_cfg())
    assert _blas._counts == []
    assert len(log.curves) == 10 and all(set(seen) == {2} for seen in rounds)
