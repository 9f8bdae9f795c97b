"""Whole-market properties: markets drawn in code, each run checked for the invariants every market keeps."""

import math
from dataclasses import fields

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from paramarket.broker import GainKind
from paramarket.config import AgentSpec, BrokerSpec, MarketConfig, MlpMarketSpec, Policy, PolicyKind, cell_config
from paramarket.core import DivergenceError
from paramarket.engine import wants_to_buy
from paramarket.experiments import run_with_twin
from paramarket.io import curves_csv, trades_csv

# Every policy but fedavg, which is a market-wide pair of its own.
POLICIES = st.one_of(
    st.sampled_from([Policy(k) for k in (PolicyKind.TRADE_WHEN_BENEFICIAL, PolicyKind.ALWAYS_TRADE,
                                         PolicyKind.NEVER_TRADE)]),
    st.integers(0, 3).map(lambda delay: Policy(PolicyKind.ASYNCHRONOUS, delay)),
)


def schedule(draw) -> dict:
    return dict(seed=draw(st.integers(0, 2**16)), rounds=draw(st.integers(1, 6)),
                trade_every=draw(st.integers(1, 3)), trade_start=draw(st.integers(1, 4)))


@st.composite
def linear_markets(draw):
    """2-3 agents of dims 1-6: every policy, fedavg pairs, both gains and asks, distance and endowment cells."""
    ids = "abc"[: draw(st.integers(2, 3))]
    dim = draw(st.integers(1, 6))
    cell = draw(st.sampled_from(["base", "distance", "endowment"]))
    # Pricing needs the error-ratio gain, so one shared truth, and no fedavg.
    pricing = draw(st.booleans())
    fedavg = not pricing and len(ids) == 2 and draw(st.booleans())
    # An endowment cell's agents split one pool, so they share n and noise.
    shared = draw(st.integers(1, 30)), draw(st.floats(0.0, 1.0))
    agents = []
    for u in ids:
        n, noise = shared if cell == "endowment" else (draw(st.integers(1, 30)), draw(st.floats(0.0, 1.0)))
        agents.append(AgentSpec(u, dim, n, noise, Policy(PolicyKind.FEDAVG) if fedavg else draw(POLICIES),
                                draw(st.none() | st.floats(1e-3, 0.02))))
    distance = draw(st.floats(0.0, 2.0)) if cell == "distance" and not pricing else 0.0
    # Distinct truths need the loss-difference gain.
    if pricing:
        gain = GainKind.ERROR_RATIO
    else:
        gain = GainKind.LOSS_DIFFERENCE if distance > 0 else draw(st.sampled_from(GainKind))
    base = MarketConfig(gain_kind=gain, agents=tuple(agents),
                        broker=BrokerSpec(draw(st.integers(len(ids), 40))), pricing=pricing,
                        seller_pricing=draw(st.sampled_from(["myerson", "lower-bound"])), **schedule(draw))
    if cell == "distance":
        return cell_config(base, "distance", distance)
    if cell == "endowment":
        return cell_config(base, "endowment", draw(st.floats(0.05, 1.0)))
    return base


@st.composite
def mlp_markets(draw):
    """2-3 agents with 0-2 hidden layers of width 1-5, any layer set, class imbalance and step size."""
    hidden = tuple(draw(st.lists(st.integers(1, 5), max_size=2)))
    layer_set = draw(st.none() | st.lists(st.integers(0, len(hidden)), min_size=1, unique=True).map(tuple))
    agents = tuple(
        AgentSpec(u, 0, draw(st.integers(2, 30)), policy=draw(POLICIES),
                  step_size=draw(st.none() | st.floats(1e-3, 1.0)),
                  favored_classes=tuple(draw(st.lists(st.integers(0, 1), max_size=2, unique=True))),
                  deprived_fraction=draw(st.floats(0.05, 1.0)))
        for u in "abc"[: draw(st.integers(2, 3))]
    )
    return MarketConfig(gain_kind=GainKind.LOSS_DIFFERENCE, agents=agents,
                        broker=BrokerSpec(draw(st.integers(2, 40))), mlp=MlpMarketSpec(hidden, layer_set),
                        **schedule(draw))


def assert_market_invariants(cfg: MarketConfig) -> None:
    try:
        log, twin = run_with_twin(cfg)
    except DivergenceError:  # exit 3, a documented outcome rather than a broken invariant
        reject()
    for first, rerun in zip((log, twin), run_with_twin(cfg)):
        assert trades_csv(first).encode() == trades_csv(rerun).encode()
        assert curves_csv(first).encode() == curves_csv(rerun).encode()
    assert not twin.trades  # never-trade buyers are skipped before any offer
    policy = {a.agent_id: a.policy for a in cfg.agents}
    for r in log.trades:
        assert 0.0 < r.merge_weight <= 1.0, r
        wants = wants_to_buy(policy[r.buyer], r.gain)
        if not cfg.pricing:
            assert r.indicator == wants, r
        else:
            assert wants or not r.indicator, r
            if r.payment is not None and math.isfinite(r.buyer_valuation):
                assert r.seller_valuation <= r.payment <= r.buyer_valuation, r
    balances = [log.final_row(u).cum_payment for u in log.agent_ids]
    assert abs(math.fsum(balances)) <= 1e-9 * math.fsum(map(abs, balances))


# Each example runs a market, its twin and both again: about 4 s for both
# tests together on a 2-vCPU SkylakeX host.
@settings(max_examples=150, deadline=None)
@given(linear_markets())
def test_linear_market_invariants(cfg):
    assert_market_invariants(cfg)


@settings(max_examples=50, deadline=None)
@given(mlp_markets())
def test_mlp_market_invariants(cfg):
    assert_market_invariants(cfg)


def setting_fields(cfg: MarketConfig) -> dict:
    """Every setting of a market: its own fields, each agent's by position and its mlp spec's."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("agents", "mlp")}
    for i, a in enumerate(cfg.agents):
        out |= {(i, f.name): getattr(a, f.name) for f in fields(a)}
    if cfg.mlp is not None:
        out |= {("mlp", f.name): getattr(cfg.mlp, f.name) for f in fields(cfg.mlp)}
    return out


@st.composite
def sweep_cells(draw):
    """(base, axis, value, the settings that cell sets): a valid cell of every axis."""
    axis = draw(st.sampled_from(["distance", "endowment", "frequency", "start", "layers"]))
    if axis == "layers":
        base = draw(mlp_markets())
        n_layers = len(base.mlp.hidden) + 1
        value = draw(st.none() | st.lists(st.integers(0, n_layers - 1), min_size=1, unique=True).map(tuple))
        return base, axis, value, {("mlp", "layer_set")}
    # Agents that share n and noise under the loss-difference gain admit every linear cell.
    n, noise = draw(st.integers(1, 30)), draw(st.floats(0.0, 1.0))
    agents = tuple(AgentSpec(u, 2, n, noise) for u in "abc"[: draw(st.integers(2, 3))])
    base = MarketConfig(gain_kind=GainKind.LOSS_DIFFERENCE, agents=agents, broker=BrokerSpec(10), **schedule(draw))
    value, fields_set = {
        "distance": (st.floats(0.0, 2.0), {(i, "theta_offset") for i in range(1, len(agents))}),
        "endowment": (st.floats(0.05, 1.0), {"endowment"}),
        "frequency": (st.integers(1, 5), {"trade_every"}),
        "start": (st.integers(1, 5), {"trade_start"}),
    }[axis]
    return base, axis, draw(value), fields_set


@settings(max_examples=100, deadline=None)
@given(sweep_cells())
def test_each_axis_sets_only_its_own_settings(drawn):
    base, axis, value, fields_set = drawn
    before, after = setting_fields(base), setting_fields(cell_config(base, axis, value))
    assert {k for k in before if before[k] != after[k]} <= fields_set
    assert all(after[k] == value for k in fields_set)
