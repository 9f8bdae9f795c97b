"""Tiny multilayer perceptrons: training, permutation alignment, subset merging.

Two nets trained from different initializations label their hidden units in
arbitrary order, so naive interpolation mixes unrelated features. Alignment
re-indexes the candidate's hidden units to match a reference via layer-wise
weight matching: coordinate descent where each pass solves an exact linear
assignment on inner-product similarities. Re-indexing never changes the
function the net computes, which is what makes post-alignment merging safe.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import DimensionMismatchError, LabeledDataset

__all__ = [
    "TaskKind",
    "MlpParams",
    "LayerPermutations",
    "mlp_forward",
    "mlp_forward_loss",
    "mlp_loss_gradients",
    "mlp_gradient_step",
    "linear_assignment",
    "weight_matching_alignment",
    "align_with_trace",
    "matching_objective",
    "apply_permutation",
    "subset_merge",
    "two_moons",
]


class TaskKind(Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Layered weights and biases of a rectifier network.

    ``weights[i]`` has shape (h_out, h_in) and consecutive layers chain;
    ReLU sits between layers, the last layer is linear.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        ws = tuple(_frozen(np.atleast_2d(w)) for w in self.weights)
        bs = tuple(_frozen(np.atleast_1d(b)) for b in self.biases)
        if not ws or len(ws) != len(bs):
            raise ValueError("need equally many weight matrices and bias vectors")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not agree")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise DimensionMismatchError(ws[i - 1].shape[0], w.shape[1], f"layer {i} fan-in")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite entries")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> tuple:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def hidden_sizes(self) -> tuple:
        return self.layer_sizes[1:-1]

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, vector: np.ndarray, layer_sizes) -> "MlpParams":
        vector = np.asarray(vector, dtype=np.float64)
        ws, bs, k = [], [], 0
        for h_in, h_out in itertools.pairwise(layer_sizes):
            ws.append(vector[k : k + h_out * h_in].reshape(h_out, h_in))
            k += h_out * h_in
            bs.append(vector[k : k + h_out])
            k += h_out
        if k != vector.size:
            raise ValueError(f"vector of size {vector.size} does not fit layer sizes {tuple(layer_sizes)}")
        return cls(tuple(ws), tuple(bs))

    @classmethod
    def random_init(cls, layer_sizes, rng: np.random.Generator) -> "MlpParams":
        """He-style scaled Gaussian init."""
        ws, bs = [], []
        for h_in, h_out in itertools.pairwise(layer_sizes):
            ws.append(rng.standard_normal((h_out, h_in)) * np.sqrt(2.0 / h_in))
            bs.append(rng.standard_normal(h_out) * 0.1)
        return cls(tuple(ws), tuple(bs))

    def same_architecture(self, other: "MlpParams") -> bool:
        return self.layer_sizes == other.layer_sizes


@dataclass(frozen=True, eq=False)
class LayerPermutations:
    """One permutation per hidden-unit group; input and output stay fixed.

    ``perms[i][r]`` is the candidate unit sitting at slot ``r`` after
    alignment of hidden layer ``i``.
    """

    perms: tuple

    def __post_init__(self):
        checked = []
        for i, p in enumerate(self.perms):
            p = np.asarray(p, dtype=np.intp)
            if sorted(p.tolist()) != list(range(p.size)):
                raise ValueError(f"hidden layer {i}: not a permutation of 0..{p.size - 1}")
            checked.append(_frozen_perm(p))
        object.__setattr__(self, "perms", tuple(checked))

    @classmethod
    def identity(cls, hidden_sizes) -> "LayerPermutations":
        return cls(tuple(np.arange(h, dtype=np.intp) for h in hidden_sizes))

    def inverse(self) -> "LayerPermutations":
        return LayerPermutations(tuple(np.argsort(p) for p in self.perms))

    def is_identity(self) -> bool:
        return all(np.array_equal(p, np.arange(p.size)) for p in self.perms)


def _frozen_perm(p: np.ndarray) -> np.ndarray:
    p = np.ascontiguousarray(p, dtype=np.intp)
    p.setflags(write=False)
    return p


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Outputs of the net on a batch of row-vector inputs."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != params.layer_sizes[0]:
        raise DimensionMismatchError(params.layer_sizes[0], x.shape[1], "input features")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w.T + b
        if i < params.n_layers - 1:
            x = np.maximum(x, 0.0)
    return x


def _softmax_log(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def mlp_forward_loss(params: MlpParams, data: LabeledDataset, task_kind: TaskKind) -> float:
    """Training/evaluation loss of the net on a dataset.

    Regression: total squared error against the scalar labels (single output
    unit), mirroring the linear path. Classification: mean softmax
    cross-entropy against integer class labels.
    """
    out = mlp_forward(params, data.inputs)
    if task_kind is TaskKind.REGRESSION:
        if out.shape[1] != 1:
            raise DimensionMismatchError(1, out.shape[1], "regression output units")
        r = out[:, 0] - data.labels
        return float(r @ r)
    classes = data.labels.astype(np.intp)
    if classes.min() < 0 or classes.max() >= out.shape[1]:
        raise ValueError(f"class labels must lie in [0, {out.shape[1] - 1}]")
    logp = _softmax_log(out)
    return float(-logp[np.arange(len(classes)), classes].mean())


def mlp_loss_gradients(params: MlpParams, data: LabeledDataset, task_kind: TaskKind):
    """Backpropagated gradients of `mlp_forward_loss`: (dWs, dbs) lists."""
    x = data.inputs
    acts = [x]
    pre = []
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < params.n_layers - 1 else z
        acts.append(h)
    out = acts[-1]
    n = x.shape[0]
    if task_kind is TaskKind.REGRESSION:
        grad_out = 2.0 * (out - data.labels[:, None])
    else:
        classes = data.labels.astype(np.intp)
        p = np.exp(_softmax_log(out))
        p[np.arange(n), classes] -= 1.0
        grad_out = p / n
    d_ws, d_bs = [], []
    delta = grad_out
    for i in range(params.n_layers - 1, -1, -1):
        d_ws.append(delta.T @ acts[i])
        d_bs.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ params.weights[i]) * (pre[i - 1] > 0.0)
    d_ws.reverse()
    d_bs.reverse()
    return d_ws, d_bs


def mlp_gradient_step(
    params: MlpParams, data: LabeledDataset, step_size: float, task_kind: TaskKind
) -> MlpParams:
    if not step_size > 0:
        raise ValueError(f"step size must be positive, got {step_size}")
    d_ws, d_bs = mlp_loss_gradients(params, data, task_kind)
    ws = tuple(w - step_size * dw for w, dw in zip(params.weights, d_ws))
    bs = tuple(b - step_size * db for b, db in zip(params.biases, d_bs))
    return MlpParams(ws, bs)


def linear_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment with a deterministic tie rule.

    Returns ``perm`` with row ``i`` assigned to column ``perm[i]``. Among all
    assignments within ``1e-9 * max(1, |best|)`` of the optimum the
    lexicographically smallest permutation is returned, so a flat (all-ties)
    cost matrix yields the identity.

    One SciPy solve gives an optimal assignment. Shortest paths in its
    residual graph (the dual view of the problem) then give, for every edge
    (i, j), the cost of the cheapest assignment that uses it. Rows are placed
    in order, each at the smallest column that still completes a near-optimal
    assignment, and only edges whose cheapest assignment is near-optimal are
    tried. A lone such column is taken as is; several are checked in
    ascending order by solving the remaining rows exactly.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    n = c.shape[0]
    rows, cols = linear_sum_assignment(c)
    best = float(c[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    # Only near-optimal edges can qualify. The slack (twice the tolerance plus
    # a bound on the rounding of n-term path sums) keeps every column that the
    # exact check below would accept.
    rounding = 4.0 * n * n * np.finfo(np.float64).eps * float(np.abs(c).max(initial=0.0))
    tight = _forcing_costs(c, cols) <= 2.0 * tol + rounding

    perm = np.empty(n, dtype=np.intp)
    remaining = list(range(n))
    prefix = 0.0
    for i in range(n):
        candidates = [j for j in remaining if tight[i, j]]
        if len(candidates) == 1:  # some column always qualifies, so this one does
            j = candidates[0]
        else:
            for j in candidates:  # ascending: first feasible column is the lex choice
                rest = [k for k in remaining if k != j]
                if rest:
                    sub = c[i + 1 :][:, rest]
                    r, s = linear_sum_assignment(sub)
                    tail = float(sub[r, s].sum())
                else:
                    tail = 0.0
                if prefix + c[i, j] + tail <= best + tol:
                    break
            else:  # pragma: no cover - the optimal column always qualifies
                raise AssertionError("assignment refinement failed to place a row")
        perm[i] = j
        prefix += c[i, j]
        remaining.remove(j)
    return perm


def _forcing_costs(c: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Extra cost, over the optimal assignment ``cols``, of the cheapest one using each edge.

    Moving row ``i`` from column ``cols[i]`` to ``j`` costs
    ``w[i, j] = c[i, j] - c[i, cols[i]]`` and frees ``cols[i]``. So edge (i, j)
    costs its own move plus the cheapest chain of moves from ``j`` back to
    ``cols[i]``: a shortest path in the graph on columns whose edge ``cols[k]
    -> j`` weighs ``w[k, j]``. Optimality rules out negative cycles, so
    Floyd-Warshall gives all such paths; the assigned edges cost 0.
    """
    w = c - c[np.arange(c.shape[0]), cols][:, None]
    dist = w[np.argsort(cols)]  # row a: the moves of the row holding column a
    for k in range(c.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return w + dist[:, cols].T


def matching_objective(
    reference: MlpParams, candidate: MlpParams, perms: LayerPermutations
) -> float:
    """Total inner-product similarity between the reference and the permuted candidate."""
    total = 0.0
    boundary = np.arange(reference.layer_sizes[0], dtype=np.intp)
    ps = (boundary,) + perms.perms + (np.arange(reference.layer_sizes[-1], dtype=np.intp),)
    for i, (aw, ab) in enumerate(zip(reference.weights, reference.biases)):
        cw = candidate.weights[i][np.ix_(ps[i + 1], ps[i])]
        cb = candidate.biases[i][ps[i + 1]]
        total += float(np.sum(aw * cw)) + float(ab @ cb)
    return total


def _descend(
    reference: MlpParams, candidate: MlpParams, sweeps: int, order: list
) -> list:
    """One coordinate descent in the given layer order.

    Returns the permutations before the first update and after every update;
    the last entry is the result.
    """
    hidden = reference.hidden_sizes
    perms = [np.arange(h, dtype=np.intp) for h in hidden]
    in_ident = np.arange(reference.layer_sizes[0], dtype=np.intp)
    out_ident = np.arange(reference.layer_sizes[-1], dtype=np.intp)
    states = [LayerPermutations(tuple(perms))]
    for _ in range(sweeps):
        changed = False
        for i in order:
            prev = perms[i - 1] if i > 0 else in_ident
            nxt = perms[i + 1] if i + 1 < len(hidden) else out_ident
            sim = reference.weights[i] @ candidate.weights[i][:, prev].T
            sim += np.outer(reference.biases[i], candidate.biases[i])
            sim += reference.weights[i + 1].T @ candidate.weights[i + 1][nxt, :]
            new_p = linear_assignment(-sim)
            if not np.array_equal(new_p, perms[i]):
                changed = True
            perms[i] = new_p
            states.append(LayerPermutations(tuple(perms)))
        if not changed:
            break
    return states


def _descents(reference: MlpParams, candidate: MlpParams, sweeps: int) -> tuple:
    """Forward descent states and backward ones (None below two hidden layers)."""
    if not reference.same_architecture(candidate):
        raise ValueError(
            f"architecture mismatch: {reference.layer_sizes} vs {candidate.layer_sizes}"
        )
    if sweeps < 1:
        raise ValueError(f"need at least one sweep, got {sweeps}")
    n_hidden = len(reference.hidden_sizes)
    forward = _descend(reference, candidate, sweeps, list(range(n_hidden)))
    if n_hidden < 2:
        return forward, None
    return forward, _descend(reference, candidate, sweeps, list(range(n_hidden - 1, -1, -1)))


def align_with_trace(
    reference: MlpParams, candidate: MlpParams, sweeps: int = 10
) -> tuple[LayerPermutations, list]:
    """Coordinate-descent weight matching; also returns the objective after every update.

    Each update re-solves one hidden layer's assignment holding the others
    fixed, so the objective trace is non-decreasing; a sweep that changes
    nothing stops the descent early. The layer order of the first sweep can
    decide which local optimum the descent lands in, so two deterministic
    descents run (first-to-last and last-to-first) and the one ending at the
    higher matching objective wins; ties keep the forward result.
    """
    forward, backward = _descents(reference, candidate, sweeps)
    result = forward[-1], [matching_objective(reference, candidate, p) for p in forward]
    if backward is not None:
        trace = [matching_objective(reference, candidate, p) for p in backward]
        if trace[-1] > result[1][-1]:
            result = backward[-1], trace
    return result


def weight_matching_alignment(
    reference: MlpParams, candidate: MlpParams, sweeps: int = 10
) -> LayerPermutations:
    """Permutations re-indexing the candidate's hidden units to match the reference.

    The result of `align_with_trace`, scoring only the final state of each descent.
    """
    forward, backward = _descents(reference, candidate, sweeps)
    if backward is None:
        return forward[-1]
    f, b = (matching_objective(reference, candidate, states[-1]) for states in (forward, backward))
    return backward[-1] if b > f else forward[-1]


def apply_permutation(params: MlpParams, perms: LayerPermutations) -> MlpParams:
    """Re-index hidden units; the returned net computes the identical function."""
    hidden = params.hidden_sizes
    if tuple(p.size for p in perms.perms) != hidden:
        raise ValueError(
            f"permutation widths {tuple(p.size for p in perms.perms)} do not match hidden sizes {hidden}"
        )
    boundary_in = np.arange(params.layer_sizes[0], dtype=np.intp)
    boundary_out = np.arange(params.layer_sizes[-1], dtype=np.intp)
    ps = (boundary_in,) + perms.perms + (boundary_out,)
    ws = tuple(
        w[np.ix_(ps[i + 1], ps[i])] for i, w in enumerate(params.weights)
    )
    bs = tuple(b[ps[i + 1]] for i, b in enumerate(params.biases))
    return MlpParams(ws, bs)


def subset_merge(
    buyer: MlpParams,
    seller_aligned: MlpParams,
    layer_set,
    weight: float,
) -> MlpParams:
    """Merge only the listed layers at the given weight; keep the rest of the buyer.

    A layer's weight matrix and bias travel together. The full layer set
    reproduces an ordinary whole-network merge.
    """
    if not buyer.same_architecture(seller_aligned):
        raise ValueError(
            f"architecture mismatch: {buyer.layer_sizes} vs {seller_aligned.layer_sizes}"
        )
    layers = sorted(set(int(i) for i in layer_set))
    if not layers:
        raise ValueError("layer set must be non-empty")
    if layers[0] < 0 or layers[-1] >= buyer.n_layers:
        raise ValueError(f"layer indices {layers} out of range for {buyer.n_layers} layers")
    if not (0.0 < weight <= 1.0):
        raise ValueError(f"merge weight must lie in (0, 1], got {weight}")
    chosen = set(layers)
    ws, bs = [], []
    for i in range(buyer.n_layers):
        if i in chosen:
            ws.append((1.0 - weight) * buyer.weights[i] + weight * seller_aligned.weights[i])
            bs.append((1.0 - weight) * buyer.biases[i] + weight * seller_aligned.biases[i])
        else:
            ws.append(buyer.weights[i])
            bs.append(buyer.biases[i])
    return MlpParams(tuple(ws), tuple(bs))


def two_moons(n: int, noise: float, rng: np.random.Generator) -> LabeledDataset:
    """Seeded two-interleaving-half-circles classification set with 0/1 labels."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    x0 = np.column_stack([np.cos(t0), np.sin(t0)])
    x1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([x0, x1]) + noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n0), np.ones(n1)])
    order = rng.permutation(n)
    return LabeledDataset(x[order], y[order])
