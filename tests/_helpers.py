"""Statistics, parameter views, prior densities, reference searches, a reference broker and audits that only the tests use."""

import decimal
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
import scipy.linalg
from scipy import stats

from paramarket.broker import golden_section_min
from paramarket.broker import GainKind
from paramarket.core import LabeledDataset, empirical_loss
from paramarket.engine import LinearRoundView, MarketLog
from paramarket.mlp import LayerPermutations, MlpParams
from paramarket.pricing import PriorDistribution, PriorKind


def spearman(xs, ys) -> float:
    """Spearman rank correlation (scipy two-sided, statistic only)."""
    value = stats.spearmanr(xs, ys).statistic
    return float(value) if not math.isnan(value) else 0.0


def flatten(params: MlpParams) -> np.ndarray:
    """All weights and biases of a net as one vector, layer by layer, weights first."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten(vector: np.ndarray, layer_sizes) -> MlpParams:
    """The net with the given layer sizes whose `flatten` is ``vector``."""
    vector = np.asarray(vector, dtype=np.float64)
    ws, bs, k = [], [], 0
    for h_in, h_out in itertools.pairwise(layer_sizes):
        ws.append(vector[k : k + h_out * h_in].reshape(h_out, h_in))
        k += h_out * h_in
        bs.append(vector[k : k + h_out])
        k += h_out
    if k != vector.size:
        raise ValueError(f"vector of size {vector.size} does not fit layer sizes {tuple(layer_sizes)}")
    return MlpParams(tuple(ws), tuple(bs))


def inverse(perms: LayerPermutations) -> LayerPermutations:
    return LayerPermutations(tuple(np.argsort(p) for p in perms.perms))


def is_identity(perms: LayerPermutations) -> bool:
    return all(np.array_equal(p, np.arange(p.size)) for p in perms.perms)


def identity_perms(hidden_sizes) -> LayerPermutations:
    return LayerPermutations(tuple(np.arange(h, dtype=np.intp) for h in hidden_sizes))


class RawLinearBroker:
    """The linear broker on its raw validation set: every residual is the n-vector ``X theta - y``.

    Takes `LinearBrokerEngine`'s arguments and serves the same round views,
    for checking the factored broker against.
    """

    def __init__(self, data: LabeledDataset, truth, truths: dict, fedavg=None):
        self.data = data
        self.truth = truth
        self.fedavg = fedavg
        self.truth_loss = {u: self.resid_loss(self.residual(p)) for u, p in truths.items()}

    def begin_round(self, dots: dict) -> LinearRoundView:
        return LinearRoundView(self, dots)

    def residual(self, params) -> np.ndarray:
        return self.data.inputs @ params.values - self.data.labels

    def resid_loss(self, r: np.ndarray) -> float:
        return float(r @ r) / self.data.n_samples


def exact_perf_ratios(theta, dot_a, dot_b, alpha: float, beta: float) -> list:
    """``perf_ratio_bounds``' four intervals and the ratios they bound, in decimal at 60 digits.

    Takes the exact values of float draws: the truth and both agents'
    estimates as sequences of floats, and both merge weights. Both merges,
    the squared errors, the buyer's gain and the closed forms are computed
    with every operation rounded to 60 digits.
    Returns ``(lower, upper, realized)`` per scenario, in
    ``perf_ratio_bounds``' order; the realized ratios are the audit's.
    """
    with decimal.localcontext(decimal.Context(prec=60)):
        t, da, db = ([Decimal(v) for v in vec] for vec in (theta, dot_a, dot_b))
        a, b = Decimal(alpha), Decimal(beta)
        bar_a = [(1 - a) * x + a * y for x, y in zip(da, db)]
        bar_b = [(1 - b) * y + b * x for x, y in zip(da, db)]
        err_dot_a, err_dot_b, err_bar_a, err_bar_b = (
            sum((v - c) ** 2 for v, c in zip(vec, t)) for vec in (da, db, bar_a, bar_b))
        gain = err_dot_a / err_bar_a
        inv, spread = 1 / (a * gain.sqrt()), (1 - a) / a
        e_minus, e_plus = inv - spread, inv + spread
        no_sell = max(e_minus, Decimal(0)) ** 2, e_plus ** 2
        sell = max((1 - b) * e_minus - b, Decimal(0)) ** 2, ((1 - b) * e_plus + b) ** 2
        return [
            (*no_sell, err_dot_b / err_dot_a),
            (no_sell[0] * gain, no_sell[1] * gain, err_dot_b / err_bar_a),
            (*sell, err_bar_b / err_dot_a),
            (sell[0] * gain, sell[1] * gain, err_bar_b / err_bar_a),
        ]


def cdf(prior: PriorDistribution, p: float) -> float:
    """Distribution function of the prior at ``p``."""
    if prior.kind is PriorKind.UNIFORM:
        if prior.hi == prior.lo:
            return 0.0 if p < prior.lo else 1.0
        return min(max((p - prior.lo) / (prior.hi - prior.lo), 0.0), 1.0)
    return 1.0 - math.exp(-prior.rate * max(p, 0.0))


def pdf(prior: PriorDistribution, p: float) -> float:
    """Density of the prior at ``p``."""
    if prior.kind is PriorKind.UNIFORM:
        inside = prior.lo <= p <= prior.hi and prior.hi > prior.lo
        return 1.0 / (prior.hi - prior.lo) if inside else 0.0
    return prior.rate * math.exp(-prior.rate * p) if p >= 0 else 0.0


def myerson_price_numeric(prior: PriorDistribution, tol: float = 1e-10) -> float:
    """Golden-section maximizer of expected revenue; cross-check for the closed forms."""
    if prior.kind is PriorKind.UNIFORM:
        if prior.hi == prior.lo:
            return prior.lo
        lo, hi = prior.lo, prior.hi
    else:
        lo, hi = 0.0, 20.0 / prior.rate
    revenue = lambda p: -p * (1.0 - cdf(prior, p))  # noqa: E731
    price, _ = golden_section_min(revenue, lo, hi, tol * max(hi - lo, 1.0), revenue(lo), revenue(hi))
    return price


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def reference_golden_section_min(f, lo, hi, tol, *_end_values):
    # The golden-section search before it carried the values at the bracket
    # ends: it ignores any it is given and evaluates both final ends again.
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    fa, fb = f(a), f(b)
    return (a, fa) if fa <= fb else (b, fb)


def reference_grid_then_golden(f, lo, hi, tol):
    # The grid scan whose refinement re-evaluates the grid points at its ends.
    n = 33
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    fs = [f(x) for x in xs]
    k = min(range(n), key=lambda i: (fs[i], xs[i]))
    x, fx = reference_golden_section_min(f, xs[max(k - 1, 0)], xs[min(k + 1, n - 1)], tol)
    if fs[k] < fx or (fs[k] == fx and xs[k] < x):
        return xs[k], fs[k]
    return x, fx


class SingularityError(ValueError):
    """The Gram matrix X^T X is not positive definite."""


@dataclass(frozen=True)
class SpectrumSummary:
    """Extreme eigenvalues of X^T X and their ratio (the condition number)."""

    lambda_max: float
    lambda_min: float
    rho: float


def spectrum(data: LabeledDataset) -> SpectrumSummary:
    """Eigen-extremes of X^T X and the condition number rho = lambda_max / lambda_min.

    Raises SingularityError when the Gram matrix is numerically singular (for
    instance when n < d).
    """
    x = data.inputs
    eigs = scipy.linalg.eigvalsh(x.T @ x)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= 1e-12 * lam_max:
        raise SingularityError(
            f"smallest eigenvalue {lam_min:.3e} is below tolerance; matrix treated as singular"
        )
    return SpectrumSummary(lambda_max=lam_max, lambda_min=lam_min, rho=lam_max / lam_min)


def loss_ratio_bounds(gain: float, rho: float, loss_before: float) -> tuple[float, float]:
    """Interval for the post-merge loss given the gain ratio and condition number.

    For a noiseless linear task the loss is the Gram-weighted squared distance
    to the true parameters, so a merge whose estimation-error ratio is ``gain``
    lands within ``[loss_before / (rho * gain), rho * loss_before / gain]``.
    """
    if not gain > 0:
        raise ValueError(f"gain ratio must be positive, got {gain}")
    if not rho >= 1:
        raise ValueError(f"condition number must be >= 1, got {rho}")
    if loss_before < 0:
        raise ValueError(f"loss must be non-negative, got {loss_before}")
    return loss_before / (rho * gain), rho * loss_before / gain


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


def record_post_step_params(engine) -> list:
    """Wrap a built broker's ``begin_round``; the returned list gains each round's view parameters.

    Entry 0 holds the starting parameters of round 0, entry t the post-step
    parameters of round t.
    """
    rounds = []
    inner = engine.begin_round

    def begin_round(dots):
        rounds.append(dots)
        return inner(dots)

    engine.begin_round = begin_round
    return rounds


def post_step_losses(rounds: list, states) -> dict:
    """Each linear agent's own loss right after its gradient step, keyed ``(round, agent)``.

    Round 0 has no step: its entries are the losses at the starting parameters.
    """
    data = {s.agent_id: s.model.data for s in states}
    return {
        (t, u): empirical_loss(p, data[u])
        for t, dots in enumerate(rounds)
        for u, p in dots.items()
    }


def geometric_decay_check(
    log: MarketLog, rho: float, post_step: dict, agent_id: str | None = None, slack: float = 1e-9
) -> DecayReport:
    """Verify the per-trade-round contraction of an agent's own-data loss.

    Every executed trade must satisfy ``loss_t / loss_{t-1} <= rho / gain_t +
    slack`` (and the merge step alone ``loss_t / dot_loss_t <= rho / gain_t +
    slack``, with ``dot_loss_t`` the `post_step_losses` entry of round t);
    with a perfectly conditioned design the merge factor equals the
    reciprocal gain exactly. Not applicable to loss-difference logs or logs
    without executed trades.
    """
    if log.config.gain_kind is not GainKind.ERROR_RATIO:
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
    rows = {r.round_index: r for r in log.curves if r.agent == agent_id}
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
        dot_loss = post_step[t, agent_id]
        merge_factor = cur.own_loss / dot_loss if dot_loss > 0 else math.inf
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
