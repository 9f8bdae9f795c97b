"""Deterministic multi-agent parameter-trading market simulator."""

from .bounds import GainBounds, TradeScenario, buyer_gain_bounds, perf_ratio_bounds
from .broker import (
    GainKind,
    GainReport,
    MergeProposal,
    fedavg_weight,
    gain_error_ratio,
    gain_loss_difference,
)
from .config import AgentSpec, BrokerSpec, MarketConfig, Policy, PolicyKind
from .core import (
    DimensionMismatchError,
    DivergenceError,
    LabeledDataset,
    ParameterVector,
    empirical_loss,
    gradient_step,
    merge,
)
from .engine import MarketLog, TradeRecord, convergence_metrics, run_round, run_simulation
from .linear import estimation_error, synthesize_task
from .pricing import (
    PriorDistribution,
    ValuationQuadruple,
    cobb_douglas_revenue,
    myerson_price,
    nash_price_difference,
    seller_virtual_valuation,
    settle,
)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BrokerSpec",
    "GainBounds",
    "TradeScenario",
    "buyer_gain_bounds",
    "perf_ratio_bounds",
    "DimensionMismatchError",
    "DivergenceError",
    "GainKind",
    "GainReport",
    "LabeledDataset",
    "MarketConfig",
    "MarketLog",
    "MergeProposal",
    "ParameterVector",
    "Policy",
    "PolicyKind",
    "PriorDistribution",
    "TradeRecord",
    "ValuationQuadruple",
    "cobb_douglas_revenue",
    "convergence_metrics",
    "empirical_loss",
    "estimation_error",
    "fedavg_weight",
    "gain_error_ratio",
    "gain_loss_difference",
    "gradient_step",
    "merge",
    "myerson_price",
    "nash_price_difference",
    "run_round",
    "run_simulation",
    "seller_virtual_valuation",
    "settle",
    "synthesize_task",
    "__version__",
]
