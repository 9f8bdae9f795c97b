"""Round-driven market engine over N >= 2 agents.

Each round every agent takes one local gradient step, then the broker runs
try-before-purchase for every prospective buyer: it merges the pair at the
loss-minimizing weight on its validation data and reports the buyer's gain
confidentially. Beneficial gains turn into quotation requests; in competitive
mode the seller answers with a virtual valuation built from the trade bounds
and the broker settles at the midpoint, in collaborative mode the merge ships
for free. Baseline policies (never trade, always trade, fixed-weight
averaging) and per-agent start delays slot into the same loop.

The broker engine opens one round view per round over the agents'
post-step parameters. The view offers ``dot_loss`` and ``merged_loss`` (broker
loss before and along a merge), ``propose`` (the merge at the searched
weight, or at a fixed one for fedavg) and ``gain``. The ``MergeProposal`` a
buyer settles on is the merge that ships: its ``merged`` parameters and
``broker_loss_after`` become the agent's new state and curve row.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import mlp as mlp_mod
from .bounds import buyer_gain_bounds
from .broker import (
    GainKind,
    GainReport,
    MergeProposal,
    PerfectMergeError,
    fedavg_weight,
    gain_error_ratio,
    gain_loss_difference,
    optimal_weight_from_residuals,
    optimize_merge_weight_searched,
)
from .core import (
    DivergenceError,
    LabeledDataset,
    LossSpec,
    ParameterVector,
    empirical_loss,
    gradient_step,
    merge,
)
from .linear import LinearTask, estimation_error, gram_lambda_max, synthesize_task
from .pricing import seller_virtual_valuation, settle

__all__ = [
    "PolicyKind",
    "Policy",
    "DecisionContext",
    "AgentSpec",
    "BrokerSpec",
    "MlpMarketSpec",
    "MarketConfig",
    "AgentState",
    "TradeRecord",
    "CurveRow",
    "MarketLog",
    "LinearBrokerEngine",
    "MlpBrokerEngine",
    "build_market",
    "policy_fields",
    "run_round",
    "run_simulation",
    "run_prepared_simulation",
    "convergence_metrics",
    "geometric_decay_check",
    "DecayReport",
]


class PolicyKind(Enum):
    TRADE_WHEN_BENEFICIAL = "trade-when-beneficial"
    NEVER_TRADE = "never-trade"
    ALWAYS_TRADE = "always-trade"
    ASYNCHRONOUS = "asynchronous"
    FEDAVG = "fedavg"


@dataclass(frozen=True)
class Policy:
    """Buying behavior plus an optional start delay (asynchronous trading)."""

    kind: PolicyKind
    delay: int = 0

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.delay > 0 and self.kind is not PolicyKind.ASYNCHRONOUS:
            raise ValueError("only the asynchronous policy takes a delay")

    @staticmethod
    def parse(text: str) -> "Policy":
        text = text.strip()
        if text.startswith("asynchronous:"):
            return Policy(PolicyKind.ASYNCHRONOUS, delay=int(text.split(":", 1)[1]))
        return Policy(PolicyKind(text))


@dataclass(frozen=True)
class DecisionContext:
    """Everything a buying decision may look at.

    Deliberately excludes the counterparty's gain report: the broker reveals
    gains confidentially, so a decision sees its own gain and the weight it
    would purchase at, nothing else.
    """

    round_index: int
    gain: GainReport
    merge_weight: float
    policy: Policy


def default_decision(ctx: DecisionContext) -> bool:
    if ctx.policy.kind in (PolicyKind.ALWAYS_TRADE, PolicyKind.FEDAVG):
        return True
    if ctx.policy.kind is PolicyKind.NEVER_TRADE:
        return False
    return ctx.gain.trade_beneficial


@dataclass(frozen=True)
class AgentSpec:
    """Declarative description of one agent; the engine builds state from it."""

    agent_id: str
    dim: int
    n_samples: int
    noise_variance: float = 0.0
    policy: Policy = Policy(PolicyKind.TRADE_WHEN_BENEFICIAL)
    step_size: float | None = None  # None: 0.9 / smoothness of the training loss
    theta_offset: float = 0.0  # distance of this agent's truth from the shared base
    favored_classes: tuple = ()  # mlp only: classes kept in full
    deprived_fraction: float = 1.0  # mlp only: fraction kept of the other classes
    decision: object = None  # test hook; None uses the policy default


@dataclass(frozen=True)
class BrokerSpec:
    n_samples: int
    noise_variance: float = 0.0


@dataclass(frozen=True)
class MlpMarketSpec:
    """Network and data shape for neural markets."""

    hidden: tuple = (16, 16, 16)
    input_dim: int = 2
    n_classes: int = 2
    data_noise: float = 0.15
    layer_set: tuple | None = None  # None trades every layer
    align_sweeps: int = 10


@dataclass(frozen=True)
class MarketConfig:
    seed: int
    rounds: int
    gain_kind: GainKind
    agents: tuple
    broker: BrokerSpec
    trade_every: int = 1
    trade_start: int = 1
    pricing: bool = False
    loss_spec: LossSpec = LossSpec.MEAN_PER_SAMPLE
    init: str = "zeros"  # or "normal:<scale>"
    convergence_epsilon: float | None = None
    model: str = "linear"  # or "mlp"
    mlp: MlpMarketSpec | None = None
    # Seller-side ask in competitive rounds: the Bayesian-optimal price on the
    # gain interval, or its lower endpoint (trades settle whenever beneficial).
    seller_pricing: str = "myerson"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.trade_every < 1:
            raise ValueError(f"trade_every must be >= 1, got {self.trade_every}")
        if self.trade_start < 0:
            raise ValueError(f"trade_start must be >= 0, got {self.trade_start}")
        if len(self.agents) < 2:
            raise ValueError("a market needs at least two agents")
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate agent ids: {ids}")
        dims = {a.dim for a in self.agents}
        if self.model == "linear" and len(dims) != 1:
            raise ValueError(f"all agents must share one parameter dimension, got {sorted(dims)}")
        if self.model not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.model == "mlp":
            if self.mlp is None:
                object.__setattr__(self, "mlp", MlpMarketSpec())
            if self.gain_kind is not GainKind.LOSS_DIFFERENCE:
                raise ValueError("neural markets have no known true parameters; use loss-difference gain")
            if self.pricing:
                raise ValueError("pricing requires the error-ratio gain of the linear market")
        if self.pricing and self.gain_kind is not GainKind.ERROR_RATIO:
            raise ValueError("competitive pricing builds on the error-ratio gain; configure gain_kind accordingly")
        if self.seller_pricing not in ("myerson", "lower-bound"):
            raise ValueError(f"seller_pricing must be 'myerson' or 'lower-bound', got {self.seller_pricing!r}")
        fedavg = [a.policy.kind is PolicyKind.FEDAVG for a in self.agents]
        if any(fedavg):
            if not all(fedavg):
                raise ValueError("fedavg is a market-wide baseline; every agent must use it")
            if len(self.agents) != 2 or self.pricing or self.model != "linear":
                raise ValueError("fedavg baseline supports exactly two linear agents without pricing")


@dataclass(frozen=True, eq=False)
class AgentState:
    agent_id: str
    params: object  # ParameterVector | MlpParams
    model: object  # backend with step / own_loss / est_error
    policy: Policy
    start_round: int
    n_samples: int
    decision: object = None


@dataclass(frozen=True)
class TradeRecord:
    """One buyer-side evaluation in one round (executed or declined)."""

    round_index: int
    buyer: str
    seller: str
    merge_weight: float
    gain: GainReport
    buyer_valuation: float | None
    seller_valuation: float | None
    payment: float | None
    indicator: bool


@dataclass(frozen=True)
class CurveRow:
    round_index: int
    agent: str
    broker_loss: float
    own_loss: float
    est_error: float
    cum_payment: float
    dot_own_loss: float  # own loss right after the gradient step, before any merge


@dataclass
class MarketLog:
    config_echo: dict
    agent_ids: tuple
    curves: list
    trades: list
    truth_broker_loss: dict
    gain_kind: GainKind

    def agent_curves(self, agent_id: str) -> list:
        return [r for r in self.curves if r.agent == agent_id]

    def final_row(self, agent_id: str) -> CurveRow:
        return self.agent_curves(agent_id)[-1]


class LinearModel:
    """Per-agent training backend for a linear task."""

    def __init__(self, task: LinearTask, step_size: float, loss_spec: LossSpec):
        self.task = task
        self.step_size = step_size
        self.loss_spec = loss_spec

    def step(self, params: ParameterVector) -> ParameterVector:
        return gradient_step(params, self.task.data, self.step_size, self.loss_spec)

    def own_loss(self, params: ParameterVector) -> float:
        return empirical_loss(params, self.task.data, self.loss_spec)

    def est_error(self, params: ParameterVector) -> float:
        return estimation_error(params, self.task.true_params)


class MlpModel:
    """Per-agent training backend for a neural task."""

    def __init__(self, data: LabeledDataset, step_size: float, task_kind: mlp_mod.TaskKind):
        self.data = data
        self.step_size = step_size
        self.task_kind = task_kind

    def step(self, params):
        return mlp_mod.mlp_gradient_step(params, self.data, self.step_size, self.task_kind)

    def own_loss(self, params) -> float:
        return mlp_mod.mlp_forward_loss(params, self.data, self.task_kind)

    def est_error(self, params) -> float:
        return math.nan


class LinearBrokerEngine:
    """Broker over a held-out linear validation set.

    Round views cache each agent's predictions once, so every merge-path loss
    in the round costs a vector combination instead of a matrix product.
    """

    def __init__(
        self,
        data: LabeledDataset,
        loss_spec: LossSpec,
        gain_kind: GainKind,
        truth: ParameterVector | None,
    ):
        if gain_kind is GainKind.ERROR_RATIO and truth is None:
            raise ValueError("error-ratio gain needs the true parameters")
        self.data = data
        self.loss_spec = loss_spec
        self.gain_kind = gain_kind
        self.truth = truth
        self._scale = 1.0 / data.n_samples if loss_spec is LossSpec.MEAN_PER_SAMPLE else 1.0

    def begin_round(self, dots: dict) -> "LinearRoundView":
        return LinearRoundView(self, dots)

    def loss(self, params: ParameterVector) -> float:
        return empirical_loss(params, self.data, self.loss_spec)


class LinearRoundView:
    def __init__(self, engine: LinearBrokerEngine, dots: dict):
        self.engine = engine
        self.dots = dots
        x, y = engine.data.inputs, engine.data.labels
        self._resid = {u: x @ p.values - y for u, p in dots.items()}

    def _resid_loss(self, r: np.ndarray) -> float:
        return float(r @ r) * self.engine._scale

    def dot_loss(self, u: str) -> float:
        return self._resid_loss(self._resid[u])

    def merged_loss(self, buyer: str, seller: str, weight: float) -> float:
        r = (1.0 - weight) * self._resid[buyer] + weight * self._resid[seller]
        return self._resid_loss(r)

    def propose(self, buyer: str, seller: str, weight: float | None = None) -> MergeProposal:
        """Merge at the loss-minimizing weight, or at ``weight`` when one is fixed."""
        rb = self._resid[buyer]
        if weight is None:
            weight = optimal_weight_from_residuals(rb, self._resid[seller] - rb)
        merged = merge(self.dots[buyer], self.dots[seller], weight)
        return MergeProposal(
            weight=weight,
            merged=merged,
            broker_loss_before=self.dot_loss(buyer),
            broker_loss_after=self.merged_loss(buyer, seller, weight),
        )

    def gain(self, buyer: str, proposal: MergeProposal) -> GainReport:
        if self.engine.gain_kind is GainKind.LOSS_DIFFERENCE:
            return gain_loss_difference(proposal)
        try:
            return gain_error_ratio(self.dots[buyer], proposal.merged, self.engine.truth)
        except PerfectMergeError:
            return GainReport(GainKind.ERROR_RATIO, math.inf, trade_beneficial=True)


class MlpBrokerEngine:
    """Broker over a held-out classification/regression set for neural agents."""

    def __init__(
        self,
        data: LabeledDataset,
        task_kind: mlp_mod.TaskKind,
        layer_set: tuple | None,
        align_sweeps: int = 10,
    ):
        self.data = data
        self.task_kind = task_kind
        self.layer_set = layer_set
        self.align_sweeps = align_sweeps
        self.gain_kind = GainKind.LOSS_DIFFERENCE

    def begin_round(self, dots: dict) -> "MlpRoundView":
        return MlpRoundView(self, dots)

    def loss(self, params) -> float:
        return mlp_mod.mlp_forward_loss(params, self.data, self.task_kind)


class MlpRoundView:
    def __init__(self, engine: MlpBrokerEngine, dots: dict):
        self.engine = engine
        self.dots = dots

    def dot_loss(self, u: str) -> float:
        return self.engine.loss(self.dots[u])

    def propose(self, buyer: str, seller: str) -> MergeProposal:
        eng = self.engine
        perms = mlp_mod.weight_matching_alignment(
            self.dots[buyer], self.dots[seller], eng.align_sweeps
        )
        aligned = mlp_mod.apply_permutation(self.dots[seller], perms)
        layers = eng.layer_set or tuple(range(self.dots[buyer].n_layers))

        def loss_at(w: float) -> float:
            return eng.loss(mlp_mod.subset_merge(self.dots[buyer], aligned, layers, w))

        weight, loss_after = optimize_merge_weight_searched(loss_at)
        return MergeProposal(
            weight=weight,
            merged=mlp_mod.subset_merge(self.dots[buyer], aligned, layers, weight),
            broker_loss_before=self.dot_loss(buyer),
            broker_loss_after=loss_after,
        )

    def gain(self, buyer: str, proposal: MergeProposal) -> GainReport:
        return gain_loss_difference(proposal)


def _is_trade_round(cfg: MarketConfig, round_index: int) -> bool:
    # Within the trading window every trade_every-th round is a market round,
    # the first being trade_start + trade_every - 1. A frequency beyond the
    # horizon therefore disables trading entirely.
    start = max(cfg.trade_start, 1)
    if round_index < start:
        return False
    return (round_index - start + 1) % cfg.trade_every == 0


def run_round(
    states: tuple,
    broker,
    cfg: MarketConfig,
    round_index: int,
    cum_payments: dict | None = None,
) -> tuple:
    """Execute one full market round; returns (new states, trade records, curve rows).

    ``cum_payments`` is mutated in place when given (competitive bookkeeping).
    Divergence anywhere in the round aborts with the offending round attached.
    """
    try:
        return _round_body(states, broker, cfg, round_index, cum_payments)
    except DivergenceError as exc:
        if exc.round_index is None:
            raise DivergenceError(str(exc), round_index) from exc
        raise


def _round_body(states, broker, cfg, round_index, cum_payments):
    if cum_payments is None:
        cum_payments = {s.agent_id: 0.0 for s in states}
    by_id = {s.agent_id: s for s in states}

    dots = {s.agent_id: s.model.step(s.params) for s in states}
    view = broker.begin_round(dots)
    trading = _is_trade_round(cfg, round_index)
    active = {
        s.agent_id: trading and round_index >= s.start_round for s in states
    }
    fedavg = states[0].policy.kind is PolicyKind.FEDAVG

    records: list[TradeRecord] = []
    chosen: dict = {s.agent_id: None for s in states}  # the MergeProposal that ships
    evaluated: dict = {}  # (buyer, seller) -> (proposal, gain)

    def evaluate(buyer: str, seller: str):
        if (buyer, seller) not in evaluated:
            if fedavg:
                # Fixed data-share weight, no search; the logged gain is the
                # realized broker-loss difference whatever the configured kind.
                w = fedavg_weight(by_id[buyer].n_samples, by_id[seller].n_samples)
                p = view.propose(buyer, seller, w)
                evaluated[(buyer, seller)] = p, gain_loss_difference(p)
            else:
                p = view.propose(buyer, seller)
                evaluated[(buyer, seller)] = p, view.gain(buyer, p)
        return evaluated[(buyer, seller)]

    for st in states:
        u = st.agent_id
        if not active[u] or st.policy.kind is PolicyKind.NEVER_TRADE:
            continue
        sellers = [v for v in by_id if v != u and active[v]]
        if not sellers:
            continue
        offers = [(v, *evaluate(u, v)) for v in sorted(sellers)]
        # Target the seller offering the largest gain; ties take the lowest id.
        seller, proposal, gain = min(offers, key=lambda e: (-e[2].value, e[0]))
        decide = st.decision or default_decision
        wants = decide(DecisionContext(round_index, gain, proposal.weight, st.policy))
        if not wants:
            records.append(
                TradeRecord(round_index, u, seller, proposal.weight, gain,
                            None, None, None, False)
            )
            continue
        if not cfg.pricing:
            chosen[u] = proposal
            records.append(
                TradeRecord(round_index, u, seller, proposal.weight, gain,
                            None, None, 0.0, True)
            )
            continue
        # Competitive settlement: the buyer bids its gain; the seller asks
        # the virtual valuation built from its own reverse gain and both
        # quoted weights, never from the buyer's numbers.
        buyer_valuation = gain.value
        reverse, reverse_gain = evaluate(seller, u)
        if math.isfinite(reverse_gain.value):
            if cfg.seller_pricing == "lower-bound":
                seller_valuation = buyer_gain_bounds(
                    reverse_gain.value, reverse.weight, proposal.weight
                ).lower
            else:
                seller_valuation = seller_virtual_valuation(
                    reverse_gain.value, reverse.weight, proposal.weight
                )
        else:
            # Measure-zero corner: the seller's own merge hit the truth
            # exactly, so its reverse gain carries no information.
            seller_valuation = buyer_valuation if math.isfinite(buyer_valuation) else 0.0
        if math.isfinite(buyer_valuation):
            payment = settle(buyer_valuation, seller_valuation)
        else:
            # Unbounded bid (perfect merge for the buyer): buy at the ask.
            payment = seller_valuation
        executed = payment is not None
        if executed:
            chosen[u] = proposal
            cum_payments[u] -= payment
            cum_payments[seller] += payment
        records.append(
            TradeRecord(round_index, u, seller, proposal.weight, gain,
                        buyer_valuation, seller_valuation,
                        payment if executed else None, executed)
        )

    new_states = []
    rows = []
    for st in states:
        u = st.agent_id
        shipped = chosen[u]
        if shipped is None:
            final, broker_loss = dots[u], view.dot_loss(u)
        else:
            final, broker_loss = shipped.merged, shipped.broker_loss_after
        new_states.append(replace(st, params=final))
        own_loss = st.model.own_loss(final)
        dot_own = st.model.own_loss(dots[u])
        if not (math.isfinite(broker_loss) and math.isfinite(own_loss)):
            raise DivergenceError(f"non-finite loss for agent {u}", round_index)
        rows.append(
            CurveRow(round_index, u, broker_loss, own_loss,
                     st.model.est_error(final), cum_payments[u], dot_own)
        )
    return tuple(new_states), records, rows


def _parse_init(init: str, rng: np.random.Generator, dim: int) -> np.ndarray:
    if init == "zeros":
        return np.zeros(dim)
    if init.startswith("normal"):
        scale = float(init.split(":", 1)[1]) if ":" in init else 1.0
        return scale * rng.standard_normal(dim)
    raise ValueError(f"unknown init {init!r}")


def _linear_step_size(spec: AgentSpec, task: LinearTask, loss_spec: LossSpec) -> float:
    # The configured step, else 0.9 / L with L the smoothness constant of the
    # configured training loss.
    if spec.step_size is not None:
        return spec.step_size
    lam = gram_lambda_max(task.data)
    if loss_spec is LossSpec.MEAN_PER_SAMPLE:
        lam /= task.data.n_samples
    return 0.9 / (2.0 * lam)


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


def policy_fields(cfg: MarketConfig, spec: AgentSpec) -> dict:
    """The AgentState fields an agent's policy fixes: policy, start_round, decision.

    Every other field depends only on the market's draws, so states built for
    one config take another config's policies by replacing just these.
    """
    return {
        "policy": spec.policy,
        "start_round": max(cfg.trade_start, 1) + spec.policy.delay,
        "decision": spec.decision,
    }


def build_market(cfg: MarketConfig, rng: np.random.Generator):
    """Synthesize tasks, broker data, and initial states from a config.

    Returns (states, broker_engine, truth_broker_loss). Draw order is fixed,
    so two configs differing only in policies see identical tasks: that is
    what makes out-of-market twin runs exactly matched.
    """
    agents = tuple(sorted(cfg.agents, key=lambda a: a.agent_id))
    if cfg.model == "linear":
        return _build_linear_market(cfg, agents, rng)
    return _build_mlp_market(cfg, agents, rng)


def _build_linear_market(cfg: MarketConfig, agents: tuple, rng: np.random.Generator):
    dim = agents[0].dim
    theta_base = rng.standard_normal(dim)
    tasks = {}
    truths = {}
    for spec in agents:
        theta = theta_base
        if spec.theta_offset > 0.0:
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            theta = theta_base + spec.theta_offset * direction
        truth = ParameterVector(theta)
        truths[spec.agent_id] = truth
        tasks[spec.agent_id] = synthesize_task(
            dim, spec.n_samples, spec.noise_variance, truth, rng
        )
    # Step sizes draw nothing; resolving them before the broker set exists
    # keeps the Gram matrices out of the build's memory peak.
    steps = {
        spec.agent_id: _linear_step_size(spec, tasks[spec.agent_id], cfg.loss_spec)
        for spec in agents
    }

    # The broker holds validation samples from every agent's distribution,
    # drawn block by block straight into one array.
    per_agent = cfg.broker.n_samples // len(agents)
    inputs = np.empty((cfg.broker.n_samples, dim))
    labels = np.empty(cfg.broker.n_samples)
    lo = 0
    for i, spec in enumerate(agents):
        n = per_agent + (cfg.broker.n_samples % len(agents) if i == 0 else 0)
        block = synthesize_task(
            dim, n, cfg.broker.noise_variance, truths[spec.agent_id], rng, out=inputs[lo:lo + n]
        )
        labels[lo:lo + n] = block.data.labels
        lo += n
    broker_data = LabeledDataset(inputs, labels)

    init = ParameterVector(_parse_init(cfg.init, rng, dim))
    states = tuple(
        AgentState(
            agent_id=spec.agent_id,
            params=init,
            model=LinearModel(tasks[spec.agent_id], steps[spec.agent_id], cfg.loss_spec),
            n_samples=spec.n_samples,
            **policy_fields(cfg, spec),
        )
        for spec in agents
    )

    shared_truth = all(
        np.array_equal(truths[a.agent_id].values, truths[agents[0].agent_id].values)
        for a in agents
    )
    broker_truth = truths[agents[0].agent_id] if shared_truth else None
    if cfg.gain_kind is GainKind.ERROR_RATIO and broker_truth is None:
        raise ValueError("error-ratio gain needs one shared true parameter vector")
    broker_engine = LinearBrokerEngine(broker_data, cfg.loss_spec, cfg.gain_kind, broker_truth)
    truth_loss = {
        a.agent_id: empirical_loss(truths[a.agent_id], broker_data, cfg.loss_spec)
        for a in agents
    }
    return states, broker_engine, truth_loss


def _build_mlp_market(cfg: MarketConfig, agents: tuple, rng: np.random.Generator):
    spec = cfg.mlp
    sizes = (spec.input_dim, *spec.hidden, spec.n_classes)
    tasks = {}
    for a in agents:
        full = mlp_mod.two_moons(a.n_samples, spec.data_noise, rng)
        tasks[a.agent_id] = _imbalanced_subset(full, a.favored_classes, a.deprived_fraction, rng)
    broker_data = mlp_mod.two_moons(cfg.broker.n_samples, spec.data_noise, rng)

    states = tuple(
        AgentState(
            agent_id=a.agent_id,
            params=mlp_mod.MlpParams.random_init(sizes, rng),
            model=MlpModel(
                tasks[a.agent_id],
                0.1 if a.step_size is None else a.step_size,
                mlp_mod.TaskKind.CLASSIFICATION,
            ),
            n_samples=a.n_samples,
            **policy_fields(cfg, a),
        )
        for a in agents
    )
    broker_engine = MlpBrokerEngine(
        broker_data, mlp_mod.TaskKind.CLASSIFICATION, spec.layer_set, spec.align_sweeps
    )
    truth_loss = {a.agent_id: 0.0 for a in agents}
    return states, broker_engine, truth_loss


def _config_echo(cfg: MarketConfig) -> dict:
    echo = {
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "gain_kind": cfg.gain_kind.value,
        "trade_every": cfg.trade_every,
        "trade_start": cfg.trade_start,
        "pricing": "on" if cfg.pricing else "off",
        "seller_pricing": cfg.seller_pricing,
        "loss": cfg.loss_spec.value,
        "init": cfg.init,
        "model": cfg.model,
        "broker": {"n": cfg.broker.n_samples, "noise": cfg.broker.noise_variance},
        "agents": {
            a.agent_id: {
                "dim": a.dim,
                "n": a.n_samples,
                "noise": a.noise_variance,
                "policy": a.policy.kind.value
                + (f":{a.policy.delay}" if a.policy.delay else ""),
                "step_size": a.step_size if a.step_size is not None else "auto",
                "theta_offset": a.theta_offset,
            }
            for a in cfg.agents
        },
    }
    if cfg.model == "mlp":
        echo["mlp"] = {
            "hidden": list(cfg.mlp.hidden),
            "input_dim": cfg.mlp.input_dim,
            "n_classes": cfg.mlp.n_classes,
            "data_noise": cfg.mlp.data_noise,
            "layer_set": list(cfg.mlp.layer_set) if cfg.mlp.layer_set else "all",
        }
    if cfg.convergence_epsilon is not None:
        echo["convergence_epsilon"] = cfg.convergence_epsilon
    return echo


def run_simulation(cfg: MarketConfig) -> MarketLog:
    """Run the configured market for its full horizon; deterministic given the seed."""
    return run_prepared_simulation(cfg, *build_market(cfg, np.random.default_rng(cfg.seed)))


def run_prepared_simulation(
    cfg: MarketConfig, states: tuple, broker_engine, truth_loss: dict
) -> MarketLog:
    """Market loop over pre-built states; entry point for custom endowments."""
    echo = _config_echo(cfg)
    echo["resolved_step_sizes"] = {s.agent_id: s.model.step_size for s in states}
    cum = {s.agent_id: 0.0 for s in states}

    curves: list[CurveRow] = []
    for st in states:
        curves.append(
            CurveRow(
                0,
                st.agent_id,
                broker_engine.loss(st.params),
                st.model.own_loss(st.params),
                st.model.est_error(st.params),
                0.0,
                math.nan,
            )
        )

    trades: list[TradeRecord] = []
    for t in range(1, cfg.rounds + 1):
        states, records, rows = run_round(states, broker_engine, cfg, t, cum)
        trades.extend(records)
        curves.extend(rows)
    return MarketLog(
        config_echo=echo,
        agent_ids=tuple(s.agent_id for s in states),
        curves=curves,
        trades=trades,
        truth_broker_loss=truth_loss,
        gain_kind=cfg.gain_kind,
    )


def convergence_metrics(log: MarketLog, epsilon: float) -> dict:
    """Earliest round at which each agent's broker-evaluated excess loss is <= epsilon.

    Excess is measured against the broker loss of the agent's true parameters
    (zero for a noiseless broker set). Agents that never reach the threshold
    map to None.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    out: dict = {}
    for u in log.agent_ids:
        base = log.truth_broker_loss.get(u, 0.0)
        out[u] = None
        for row in log.agent_curves(u):
            if row.broker_loss - base <= epsilon:
                out[u] = row.round_index
                break
    return out


@dataclass(frozen=True)
class DecayReport:
    """Per-round geometric decay audit for an always-buying linear agent."""

    applicable: bool
    reason: str
    agent_id: str | None = None
    rounds_checked: int = 0
    max_round_factor: float | None = None  # max loss_t / loss_{t-1} over trade rounds
    max_merge_factor: float | None = None  # max loss(merged) / loss(post-step) over trade rounds
    max_bound_ratio: float | None = None  # max observed factor relative to rho / gain_t
    violations: tuple = ()


def geometric_decay_check(
    log: MarketLog, rho: float, agent_id: str | None = None, slack: float = 1e-9
) -> DecayReport:
    """Verify the per-trade-round contraction of an agent's own-data loss.

    Every executed trade must satisfy ``loss_t / loss_{t-1} <= rho / gain_t +
    slack`` (and the merge step alone ``loss_t / dot_loss_t <= rho / gain_t +
    slack``); with a perfectly conditioned design the merge factor equals the
    reciprocal gain exactly. Not applicable to loss-difference logs or logs
    without executed trades.
    """
    if log.gain_kind is not GainKind.ERROR_RATIO:
        return DecayReport(False, "decay audit needs the error-ratio gain")
    traders = sorted({r.buyer for r in log.trades if r.indicator})
    if not traders:
        return DecayReport(False, "no executed trades in the log")
    if agent_id is None:
        if len(traders) > 1:
            return DecayReport(False, f"several agents traded ({traders}); pass agent_id")
        agent_id = traders[0]
    gain_by_round = {
        r.round_index: r.gain.value for r in log.trades if r.buyer == agent_id and r.indicator
    }
    rows = {r.round_index: r for r in log.agent_curves(agent_id)}
    violations = []
    max_round_factor = max_merge_factor = max_bound_ratio = 0.0
    checked = 0
    for t, gain in sorted(gain_by_round.items()):
        prev, cur = rows.get(t - 1), rows.get(t)
        if prev is None or cur is None or prev.own_loss <= 0.0 or not math.isfinite(gain):
            continue
        checked += 1
        bound = rho / gain
        round_factor = cur.own_loss / prev.own_loss
        merge_factor = cur.own_loss / cur.dot_own_loss if cur.dot_own_loss > 0 else math.inf
        max_round_factor = max(max_round_factor, round_factor)
        max_merge_factor = max(max_merge_factor, merge_factor)
        max_bound_ratio = max(max_bound_ratio, round_factor / bound, merge_factor / bound)
        if round_factor > bound + slack or merge_factor > bound + slack:
            violations.append(
                {"round": t, "round_factor": round_factor, "merge_factor": merge_factor, "bound": bound}
            )
    if checked == 0:
        return DecayReport(False, "no checkable trade rounds", agent_id=agent_id)
    return DecayReport(
        True,
        "ok" if not violations else f"{len(violations)} violations",
        agent_id=agent_id,
        rounds_checked=checked,
        max_round_factor=max_round_factor,
        max_merge_factor=max_merge_factor,
        max_bound_ratio=max_bound_ratio,
        violations=tuple(violations),
    )
