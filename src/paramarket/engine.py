"""Round-driven market engine over N >= 2 agents.

Each round every agent takes one local gradient step, then the broker runs
try-before-purchase for every prospective buyer: it merges the pair at the
loss-minimizing weight on its validation data and reports the buyer's gain
confidentially. Beneficial gains turn into quotation requests; in competitive
mode the buyer bids its gain and `pricing.quote` settles the offer (the
seller's ask from the trade bounds, its measure-zero corners and the
midpoint payment), in collaborative mode the merge ships for free. Baseline
policies (never trade, always trade, fixed-weight averaging) and per-agent
start delays slot into the same loop.

The engine owns the market mechanics; the settings, and every rule on them,
live in `config.MarketConfig`. `build_market` is the only code that draws a
market, an endowment cell's shared data pool included, and it fixes the
broker's rules: fedavg's data-share weights, the truth that only an
error-ratio market scores merges against, and the broker loss of each
agent's truth. Each agent's model resolves its own step size. The round loop
has one path for every market: it reads each agent's policy and start round
from the config, takes each offer and its gain from the broker, decides and
settles.

Every round, round 0 included, is one `run_round` call. Round 0 steps no
agent and opens no trading window, so its curve rows report the starting
parameters. A merge ships exactly when its trade record carries a payment.
The broker engine opens one round view per round, and every broker loss the
market reports is read through a view. Every view offers ``dot_loss``
(broker loss before a merge, computed once per agent per round) and
``propose``: the merge at the searched weight, or at the broker's fixed
data-share weight for fedavg, with the buyer's gain scored by the broker's
rule (the error ratio against its truth, else the broker-loss difference).
The linear view also offers ``merged_loss`` along a merge, from cached
residuals; the mlp view scores each searched weight on the merge path
(``mlp.merge_path_loss``) and builds a network only for the merge it
proposes. Each neural agent's and the broker's data is one
``mlp.ClassMajorSet`` of `mlp.two_moons`, its labels checked when the market
is built. A linear broker's validation set is one design draw, each agent's
block of rows labelled noiselessly with ``X theta`` of that agent's truth.
The ``MergeProposal`` a buyer settles on is the merge that ships: its
``merged`` parameters and ``broker_loss_after`` become the agent's new state
and curve row.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import mlp as mlp_mod
from ._blas import one_thread
from .broker import (
    GainKind,
    GainReport,
    MergeProposal,
    fedavg_weight,
    gain_error_ratio,
    gain_loss_difference,
    optimal_weight_from_residuals,
    optimize_merge_weight_searched,
)
from .core import (
    DivergenceError,
    LabeledDataset,
    ParameterVector,
    empirical_loss,
    gradient_step,
    merge,
    residual,
)
from .config import MarketConfig, Policy, PolicyKind
from .linear import estimation_error, gram_lambda_max, synthesize_task
from .pricing import quote

__all__ = [
    "InvariantError",
    "AgentState",
    "TradeRecord",
    "CurveRow",
    "MarketLog",
    "LinearBrokerEngine",
    "MlpBrokerEngine",
    "build_market",
    "run_round",
    "run_simulation",
    "run_prepared_simulation",
    "convergence_metrics",
]


class InvariantError(RuntimeError):
    """A market invariant checked at the end of a run does not hold."""


def wants_to_buy(policy: Policy, gain: GainReport) -> bool:
    """Whether a buyer asks for the merge on offer.

    Sees only the buyer's own policy and gain: the broker reports gains
    confidentially, so the counterparty's gain never reaches the decision.
    Never-trade buyers are skipped before any offer is evaluated.
    """
    return policy.kind in (PolicyKind.ALWAYS_TRADE, PolicyKind.FEDAVG) or gain.trade_beneficial


@dataclass(frozen=True, eq=False)
class AgentState:
    agent_id: str
    params: object  # ParameterVector | MlpParams
    model: object  # backend with step / own_loss / est_error


@dataclass(frozen=True)
class TradeRecord:
    """One buyer-side evaluation in one round; the merge shipped exactly when a payment is set."""

    round_index: int
    buyer: str
    seller: str
    merge_weight: float
    gain: GainReport
    buyer_valuation: float | None
    seller_valuation: float | None
    payment: float | None

    @property
    def indicator(self) -> bool:
        return self.payment is not None


@dataclass(frozen=True)
class CurveRow:
    round_index: int
    agent: str
    broker_loss: float
    own_loss: float
    est_error: float
    cum_payment: float


@dataclass
class MarketLog:
    config: MarketConfig
    step_sizes: dict  # agent id -> the step size its model resolved to
    agent_ids: tuple
    curves: list
    trades: list
    truth_broker_loss: dict

    def final_row(self, agent_id: str) -> CurveRow:
        return next(r for r in reversed(self.curves) if r.agent == agent_id)


class LinearModel:
    """Per-agent training backend for a linear task: its data, its true parameters and its step size.

    Holds the residual of its latest `own_loss`: a round ends on the loss of
    the parameters the next round steps from, so the step reuses it.
    """

    def __init__(self, data: LabeledDataset, truth: ParameterVector, step_size: float | None):
        self.data = data
        self.truth = truth
        if step_size is None:  # auto: 0.9 / L, L = 2 lambda_max / n the training loss's smoothness
            step_size = 0.9 / (2.0 * (gram_lambda_max(data) / data.n_samples))
        self.step_size = step_size
        self._last = (None, None)  # (params, residual) of the latest own_loss

    def step(self, params: ParameterVector) -> ParameterVector:
        last, r = self._last
        return gradient_step(params, self.data, self.step_size, r if last is params else None)

    def own_loss(self, params: ParameterVector) -> float:
        r = residual(params, self.data)
        self._last = (params, r)
        return empirical_loss(params, self.data, r)

    def est_error(self, params: ParameterVector) -> float:
        return estimation_error(params, self.truth)


class MlpModel:
    """Per-agent training backend for a neural task."""

    def __init__(self, data: LabeledDataset, step_size: float | None):
        self.scored = mlp_mod.ClassMajorSet(data, mlp_mod.MOONS_CLASSES)  # labels checked once
        self.step_size = 0.1 if step_size is None else step_size

    def step(self, params):
        return mlp_mod.mlp_gradient_step(params, self.scored, self.step_size)

    def own_loss(self, params) -> float:
        return mlp_mod.mlp_forward_loss(params, self.scored)

    def est_error(self, params) -> float:
        return math.nan


class LinearBrokerEngine:
    """Broker over a held-out linear validation set.

    Keeps only ``(A, t, b, c)`` with ``||X theta - y||^2 = ||A (theta - t) - b||^2 + c``:
    ``(R, least-squares fit, 0, its squared residual)``, R the Cholesky factor
    of ``X^T X``, when X has more rows than columns, else ``(X, 0, y, 0)``.
    The broker loss is that sum divided by the set's n samples, like `empirical_loss`.
    Round views hold each agent's residual once, so every merge-path loss in
    the round is a vector combination instead of a matrix product.
    """

    def __init__(self, data: LabeledDataset, truth: ParameterVector | None, truths: dict, fedavg=None):
        self.truth = truth  # the shared true parameters an error-ratio market scores merges against
        self.fedavg = fedavg  # (buyer, seller) -> fedavg's fixed weight; None: weights are searched
        self._n = data.n_samples
        self._a, self._t, self._b, self._c = _least_squares_form(data)
        # agent id -> broker loss of that agent's true parameters
        self.truth_loss = {u: self.resid_loss(self.residual(p)) for u, p in truths.items()}

    def begin_round(self, dots: dict) -> "LinearRoundView":
        return LinearRoundView(self, dots)

    def residual(self, params: ParameterVector) -> np.ndarray:
        """``A (theta - t) - b``, linear in theta; the broker loss is its `resid_loss`."""
        return self._a @ (params.values - self._t) - self._b

    def resid_loss(self, r: np.ndarray) -> float:
        return (float(r @ r) + self._c) / self._n


def _least_squares_form(data: LabeledDataset) -> tuple:
    """`LinearBrokerEngine`'s form; ``(X, 0, y, 0)`` also when ``X^T X`` is not numerically positive definite."""
    x, y = data.inputs, data.labels
    if data.n_samples <= data.dimension:
        return x, 0.0, y, 0.0
    import scipy.linalg  # loaded on first use: importing paramarket loads no SciPy

    # X^T X is symmetric, so its transpose is the same matrix in Fortran
    # order, which LAPACK factors in place instead of copying.
    try:
        r = scipy.linalg.cholesky((x.T @ x).T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return x, 0.0, y, 0.0

    def normal_solve(rhs):  # (R^T R)^-1 rhs
        w = scipy.linalg.solve_triangular(r, rhs, trans="T", check_finite=False)
        return scipy.linalg.solve_triangular(r, w, check_finite=False)

    # The normal equations square X's conditioning: one refinement step
    # against X (corrected semi-normal equations) and the shift by t keep
    # near-zero losses as accurate as X theta - y. c is summed directly, as
    # ||y||^2 - ||R t||^2 cancels to noise when y fits exactly.
    t = normal_solve(x.T @ y)
    t += normal_solve(x.T @ (y - x @ t))
    fit = y - x @ t
    return r, t, 0.0, float(fit @ fit)


class LinearRoundView:
    def __init__(self, engine: LinearBrokerEngine, dots: dict):
        self.engine = engine
        self.dots = dots
        self._resid = {u: engine.residual(p) for u, p in dots.items()}

    def dot_loss(self, u: str) -> float:
        return self.engine.resid_loss(self._resid[u])

    def merged_loss(self, buyer: str, seller: str, weight: float) -> float:
        r = (1.0 - weight) * self._resid[buyer] + weight * self._resid[seller]
        return self.engine.resid_loss(r)

    def propose(self, buyer: str, seller: str) -> MergeProposal:
        """Merge at the loss-minimizing weight, or at the broker's fixed fedavg weight.

        The buyer's gain is its error ratio against the broker's truth, else its broker-loss difference.
        """
        if self.engine.fedavg is None:
            rb = self._resid[buyer]
            weight = optimal_weight_from_residuals(rb, self._resid[seller] - rb)
        else:
            weight = self.engine.fedavg[buyer, seller]
        merged = merge(self.dots[buyer], self.dots[seller], weight)
        after = self.merged_loss(buyer, seller, weight)
        if self.engine.truth is None:
            gain = gain_loss_difference(self.dot_loss(buyer), after)
        else:
            gain = gain_error_ratio(self.dots[buyer], merged, self.engine.truth)
        return MergeProposal(weight, merged, after, gain)


class MlpBrokerEngine:
    """Broker over a held-out classification set for neural agents."""

    def __init__(self, data: LabeledDataset, layer_set: tuple | None):
        self.scored = mlp_mod.ClassMajorSet(data, mlp_mod.MOONS_CLASSES)  # labels checked once
        self.layer_set = layer_set
        self.truth_loss = {}  # neural agents have no known true parameters

    def begin_round(self, dots: dict) -> "MlpRoundView":
        return MlpRoundView(self, dots)


class MlpRoundView:
    def __init__(self, engine: MlpBrokerEngine, dots: dict):
        self.engine = engine
        self.dots = dots
        self._dot_loss = {u: mlp_mod.mlp_forward_loss(p, engine.scored) for u, p in dots.items()}

    def dot_loss(self, u: str) -> float:
        return self._dot_loss[u]

    def propose(self, buyer: str, seller: str) -> MergeProposal:
        eng = self.engine
        perms = mlp_mod.weight_matching_alignment(self.dots[buyer], self.dots[seller])
        aligned = mlp_mod.apply_permutation(self.dots[seller], perms)
        layers = eng.layer_set or tuple(range(self.dots[buyer].n_layers))
        loss_at = mlp_mod.merge_path_loss(self.dots[buyer], aligned, layers, eng.scored)
        weight, after = optimize_merge_weight_searched(loss_at)
        merged = mlp_mod.subset_merge(self.dots[buyer], aligned, layers, weight)
        return MergeProposal(weight, merged, after, gain_loss_difference(self.dot_loss(buyer), after))


# An overflow is found by the check on the value it reaches, not by a numpy warning: a stepped
# vector or net, the weight solve, the alignment similarities or a curve row's losses.
@np.errstate(over="ignore", invalid="ignore")
def run_round(states: tuple, broker, cfg: MarketConfig, round_index: int, cum_payments: dict) -> tuple:
    """Execute one full market round; returns (new states, trade records, curve rows).

    Every agent steps, except in round 0, which reports the starting
    parameters: no trading window is open then, as ``trade_start >= 1``.
    Each active buyer takes the offer with the largest gain, and a merge
    ships exactly when a payment is set. Each agent ends on its shipped
    merge, else on its parameters in the round view, and logs one curve row.
    ``cum_payments`` (agent id -> balance) is mutated in place. Divergence
    anywhere in the round aborts with the offending round attached.
    """
    try:
        policy = {a.agent_id: a.policy for a in cfg.agents}
        dots = {s.agent_id: s.model.step(s.params) if round_index else s.params for s in states}
        view = broker.begin_round(dots)
        # Within the trading window every trade_every-th round is a market round,
        # the first being start + trade_every - 1, so a frequency beyond the
        # horizon disables trading entirely. An agent joins its policy's delay
        # after the window opens.
        start = cfg.trade_start
        trading = round_index >= start and (round_index - start + 1) % cfg.trade_every == 0
        active = {u: trading and round_index >= start + policy[u].delay for u in dots}

        records: list[TradeRecord] = []
        chosen: dict = {}  # agent id -> the MergeProposal that ships
        buyers = [u for u in dots if active[u] and policy[u].kind is not PolicyKind.NEVER_TRADE]
        if buyers:  # a round where nobody can buy builds no offer cache
            evaluate = cache(view.propose)  # each (buyer, seller) offer and its gain, proposed once per round
        for u in buyers:
            sellers = [v for v in dots if v != u and active[v]]
            if not sellers:
                continue
            offers = [(v, evaluate(u, v)) for v in sorted(sellers)]
            # Target the seller offering the largest gain; ties take the lowest id.
            seller, proposal = min(offers, key=lambda e: (-e[1].gain.value, e[0]))
            bid = ask = payment = None
            if wants_to_buy(policy[u], proposal.gain):
                if cfg.pricing:
                    # Competitive settlement: the buyer bids its gain; the seller
                    # quotes from its own reverse gain and both weights.
                    bid = proposal.gain.value
                    reverse = evaluate(seller, u)
                    ask, payment = quote(cfg.seller_pricing, bid, reverse.gain.value,
                                         reverse.weight, proposal.weight)
                else:
                    payment = 0.0  # collaborative: the merge ships for free
            if payment is not None:
                chosen[u] = proposal
                cum_payments[u] -= payment
                cum_payments[seller] += payment
            records.append(TradeRecord(round_index, u, seller, proposal.weight, proposal.gain,
                                       bid, ask, payment))

        new_states = []
        rows = []
        for st in states:
            u = st.agent_id
            shipped = chosen.get(u)
            if shipped is None:
                final, broker_loss = dots[u], view.dot_loss(u)
            else:
                final, broker_loss = shipped.merged, shipped.broker_loss_after
            new_states.append(AgentState(u, final, st.model))
            # The round's one own loss, on the parameters the next round steps from.
            own_loss = st.model.own_loss(final)
            if not (math.isfinite(broker_loss) and math.isfinite(own_loss)):
                raise DivergenceError(f"non-finite loss for agent {u}")
            rows.append(CurveRow(round_index, u, broker_loss, own_loss,
                                 st.model.est_error(final), cum_payments[u]))
        return tuple(new_states), records, rows
    except DivergenceError as exc:
        raise DivergenceError(str(exc), round_index) from exc


def _imbalanced_subset(
    data: LabeledDataset, favored: tuple, fraction: float, rng: np.random.Generator
) -> LabeledDataset:
    """Keep favored classes in full and the given fraction of every other class."""
    labels = data.labels.astype(np.intp)
    keep = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if int(cls) in favored or fraction >= 1.0:
            keep.append(idx)
        else:
            k = max(1, int(round(fraction * idx.size)))
            keep.append(rng.choice(idx, size=k, replace=False))
    order = np.sort(np.concatenate(keep))
    return LabeledDataset(data.inputs[order], data.labels[order])


@one_thread()
def build_market(cfg: MarketConfig):
    """Synthesize tasks, broker data, and initial states from a config.

    Returns (states, broker_engine), drawn from ``default_rng(cfg.seed)``.
    Draw order is fixed, so two configs differing only in policies see
    identical tasks; states carry no policy, and a twin never trades, so it
    runs on the market's own build. This is the only code that draws a market.
    """
    agents = tuple(sorted(cfg.agents, key=lambda a: a.agent_id))
    rng = np.random.default_rng(cfg.seed)
    if cfg.model == "linear":
        return _build_linear_market(cfg, agents, rng)
    return _build_mlp_market(cfg, agents, rng)


def _build_linear_market(cfg: MarketConfig, agents: tuple, rng: np.random.Generator):
    """The linear market's draws, in a fixed order after the base truth.

    Without an endowment: each agent's truth and task, then the broker set.
    With one: the shared pool, the broker set, then each agent's subset of the pool.
    """
    dim = agents[0].dim
    theta_base = rng.standard_normal(dim)
    models = {}

    def broker_set(blocks: list) -> LabeledDataset:
        # Noiseless validation samples: one design draw, its rows labelled block by block, (n, truth) each.
        inputs = rng.standard_normal((cfg.broker.n_samples, dim))
        labels, lo = [], 0
        for n, truth in blocks:
            labels.append(inputs[lo:lo + n] @ truth.values)
            lo += n
        return LabeledDataset(inputs, np.concatenate(labels))

    if cfg.endowment is None:
        for spec in agents:
            theta = theta_base
            if spec.theta_offset > 0.0:
                direction = rng.standard_normal(dim)
                direction /= np.linalg.norm(direction)
                theta = theta_base + spec.theta_offset * direction
            truth = ParameterVector(theta)
            # Each model resolves its step size before the broker set exists,
            # which keeps the Gram matrices out of the build's memory peak.
            data = synthesize_task(dim, spec.n_samples, spec.noise_variance, truth, rng)
            models[spec.agent_id] = LinearModel(data, truth, spec.step_size)
        # The broker holds validation samples from every agent's distribution.
        per_agent, extra = divmod(cfg.broker.n_samples, len(agents))
        broker_data = broker_set([(per_agent + (extra if i == 0 else 0), models[spec.agent_id].truth)
                                  for i, spec in enumerate(agents)])
    else:
        # Each agent keeps the fraction `endowment` of one shared pool, drawn
        # without replacement; `MarketConfig` sees that the agents share n,
        # noise and the truth, so at fraction 1 they hold identical data.
        truth = ParameterVector(theta_base)
        pool_n = agents[0].n_samples
        pool = synthesize_task(dim, pool_n, agents[0].noise_variance, truth, rng)
        broker_data = broker_set([(cfg.broker.n_samples, truth)])
        k = max(1, int(round(cfg.endowment * pool_n)))
        for spec in agents:
            idx = np.sort(rng.choice(pool_n, size=k, replace=False))
            data = LabeledDataset(pool.inputs[idx], pool.labels[idx])
            models[spec.agent_id] = LinearModel(data, truth, spec.step_size)

    # Every agent starts at zero. An error-ratio market's agents share one
    # truth (`MarketConfig` sees to it), which its broker compares merges against.
    init = ParameterVector(np.zeros(dim))
    states = tuple(AgentState(spec.agent_id, init, models[spec.agent_id]) for spec in agents)
    truth = models[agents[0].agent_id].truth if cfg.gain_kind is GainKind.ERROR_RATIO else None
    fedavg = None
    if agents[0].policy.kind is PolicyKind.FEDAVG:  # the agents' data shares, whatever the gain kind
        n = {u: m.data.n_samples for u, m in models.items()}
        truth, fedavg = None, {(u, v): fedavg_weight(n[u], n[v]) for u in n for v in n if u != v}
    return states, LinearBrokerEngine(broker_data, truth, {u: m.truth for u, m in models.items()}, fedavg)


def _build_mlp_market(cfg: MarketConfig, agents: tuple, rng: np.random.Generator):
    spec = cfg.mlp
    sizes = (mlp_mod.MOONS_FEATURES, *spec.hidden, mlp_mod.MOONS_CLASSES)
    tasks = {}
    for a in agents:
        full = mlp_mod.two_moons(a.n_samples, rng)
        tasks[a.agent_id] = _imbalanced_subset(full, a.favored_classes, a.deprived_fraction, rng)
    broker_data = mlp_mod.two_moons(cfg.broker.n_samples, rng)

    states = tuple(
        AgentState(
            agent_id=a.agent_id,
            params=mlp_mod.MlpParams.random_init(sizes, rng),
            model=MlpModel(tasks[a.agent_id], a.step_size),
        )
        for a in agents
    )
    return states, MlpBrokerEngine(broker_data, spec.layer_set)


def run_simulation(cfg: MarketConfig) -> MarketLog:
    """Run the configured market for its full horizon; deterministic given the seed."""
    return run_prepared_simulation(cfg, *build_market(cfg))


@one_thread()
def run_prepared_simulation(cfg: MarketConfig, states: tuple, broker_engine) -> MarketLog:
    """Market loop over the states and broker that `build_market` returns.

    A market and its twin run on one build (`experiments.run_with_twin`).
    Every round is one `run_round` call, round 0 included, which reports the
    starting parameters. Raises `InvariantError` when the curve rows'
    balances do not replay the settled payments, or when a settlement lies
    outside its ask and bid.
    """
    cum = {s.agent_id: 0.0 for s in states}
    trades: list[TradeRecord] = []
    curves: list[CurveRow] = []
    for t in range(cfg.rounds + 1):
        states, records, rows = run_round(states, broker_engine, cfg, t, cum)
        trades.extend(records)
        curves.extend(rows)
    _replay_ledger(trades, curves)
    return MarketLog(
        config=cfg,
        step_sizes={s.agent_id: s.model.step_size for s in states},
        agent_ids=tuple(s.agent_id for s in states),
        curves=curves,
        trades=trades,
        truth_broker_loss=dict(broker_engine.truth_loss),
    )


def _replay_ledger(trades: list, curves: list) -> None:
    """Replay the settled payments in engine order against every row's ``cum_payment``.

    The replay repeats the round loop's float operations in its order, so
    the balances must match exactly. Every priced settlement must lie between
    its ask and its bid, which `pricing.settle` guarantees in floats too.
    """
    cum = {row.agent: 0.0 for row in curves}
    pending = iter(trades)
    record = next(pending, None)
    for row in curves:
        while record is not None and record.round_index <= row.round_index:
            if record.indicator:
                ask, bid = record.seller_valuation, record.buyer_valuation
                if bid is not None and not ask <= record.payment <= bid:
                    raise InvariantError(
                        f"settlement: round {record.round_index}, buyer {record.buyer} pays seller "
                        f"{record.seller} {record.payment!r} outside its ask {ask!r} and bid {bid!r}"
                    )
                cum[record.buyer] -= record.payment
                cum[record.seller] += record.payment
            record = next(pending, None)
        if row.cum_payment != cum[row.agent]:
            raise InvariantError(
                f"ledger: agent {row.agent}'s cum_payment {row.cum_payment!r} in round "
                f"{row.round_index} does not replay the settled payments ({cum[row.agent]!r})"
            )


def convergence_metrics(log: MarketLog, epsilon: float) -> dict:
    """Earliest round at which each agent's broker-evaluated excess loss is <= epsilon.

    Excess is measured against the broker loss of the agent's true parameters:
    zero (to rounding) on the noiseless broker labels unless the agents' truths
    differ. Agents that never reach the threshold map to None.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    out: dict = {}
    for u in log.agent_ids:
        base = log.truth_broker_loss.get(u, 0.0)
        out[u] = None
        for row in log.curves:
            if row.agent == u and row.broker_loss - base <= epsilon:
                out[u] = row.round_index
                break
    return out
