"""Tiny multilayer perceptrons: training, permutation alignment, subset merging.

Two nets trained from different initializations label their hidden units in
arbitrary order, so naive interpolation mixes unrelated features. Alignment
re-indexes the candidate's hidden units to match a reference via layer-wise
weight matching: coordinate descent where each pass solves an exact linear
assignment on inner-product similarities. Re-indexing never changes the
function the net computes, which is what makes post-alignment merging safe.

`mlp_forward`, `mlp_forward_loss` and `merge_path_loss` run one forward
chain on class-major activations, (features, n) in and (classes, n) out,
each layer a product ``w @ h`` of contiguous operands. Only the gradients
run row-major. The loss, its gradients and the merge path take a labeled set
as one `ClassMajorSet`, whose labels are checked once, when it is built.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, DivergenceError, LabeledDataset, _check_weight, _frozen

__all__ = [
    "MlpParams",
    "LayerPermutations",
    "ClassMajorSet",
    "mlp_forward",
    "mlp_forward_loss",
    "mlp_loss_gradients",
    "mlp_gradient_step",
    "linear_assignment",
    "weight_matching_alignment",
    "matching_objective",
    "apply_permutation",
    "subset_merge",
    "merge_path_loss",
    "MOONS_FEATURES",
    "MOONS_CLASSES",
    "MOONS_NOISE",
    "ALIGN_SWEEPS",
    "two_moons",
]

MOONS_FEATURES = 2  # input features of every `two_moons` point
MOONS_CLASSES = 2  # `two_moons` labels every point 0 or 1
MOONS_NOISE = 0.15  # standard deviation of the Gaussian noise on every `two_moons` input
# At most this many sweeps per alignment descent. The cap does not bind on
# the bundled layer-subset sweep: each of its 2,300 descents stops after 2 to
# 8 sweeps, on a sweep that changes nothing.
ALIGN_SWEEPS = 10


def _check_finite(i: int, w: np.ndarray, b: np.ndarray) -> None:
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise ValueError(f"layer {i} contains non-finite entries")


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Layered weights and biases of a rectifier network.

    ``weights[i]`` has shape (h_out, h_in) and consecutive layers chain;
    ReLU sits between layers, the last layer is linear.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        ws = tuple(_frozen(np.atleast_2d(w), np.float64) for w in self.weights)
        bs = tuple(_frozen(np.atleast_1d(b), np.float64) for b in self.biases)
        if not ws or len(ws) != len(bs):
            raise ValueError("need equally many weight matrices and bias vectors")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not agree")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise DimensionMismatchError(ws[i - 1].shape[0], w.shape[1], f"layer {i} fan-in")
            _check_finite(i, w, b)
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

    @classmethod
    def random_init(cls, layer_sizes, rng: np.random.Generator) -> "MlpParams":
        """He-style scaled Gaussian init."""
        ws, bs = [], []
        for h_in, h_out in itertools.pairwise(layer_sizes):
            ws.append(rng.standard_normal((h_out, h_in)) * np.sqrt(2.0 / h_in))
            bs.append(rng.standard_normal(h_out) * 0.1)
        return cls(tuple(ws), tuple(bs))

    def require_same_architecture(self, other: "MlpParams") -> None:
        if self.layer_sizes != other.layer_sizes:
            raise ValueError(f"architecture mismatch: {self.layer_sizes} vs {other.layer_sizes}")


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
            checked.append(_frozen(p, np.intp))
        object.__setattr__(self, "perms", tuple(checked))


class ClassMajorSet:
    """A labeled set laid out for the net's passes; raises ValueError unless
    its labels are integer classes below ``n_classes``.

    ``rows`` is the dataset's own (n, features) inputs, read by the gradients,
    ``inputs`` their contiguous (features, n) copy and ``targets[row]`` the flat
    index ``class * n + row`` of the row's class in (classes, n) outputs.
    """

    def __init__(self, data: LabeledDataset, n_classes: int):
        self.rows = data.inputs
        self.inputs = _frozen(data.inputs.T, np.float64)
        self.targets = _loss_targets(data.labels, n_classes)
        self.n_classes = n_classes


def _class_major(params: MlpParams, data: ClassMajorSet) -> ClassMajorSet:
    """``data``, once its feature and class counts match the net's input and output widths."""
    sizes = params.layer_sizes[0], params.layer_sizes[-1]
    if (data.inputs.shape[0], data.n_classes) != sizes:
        raise DimensionMismatchError(sizes, (data.inputs.shape[0], data.n_classes), "input features, classes")
    return data


def _chain(h: np.ndarray, weights, biases, n_relu: int) -> np.ndarray:
    """Run consecutive layers over class-major activations ``h``, (features, n);
    the first ``n_relu`` outputs pass a ReLU.

    Each layer is ``w @ h`` on two contiguous operands: the sums of the
    row-major ``x @ w.T``, though on some kernels not bit for bit at every
    row count (README). The product is fresh, so its bias and ReLU are
    applied in place. With no layers ``h`` itself comes back, and nothing
    writes to it.
    """
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = w @ h
        h += b[:, None]
        if i < n_relu:
            np.maximum(h, 0.0, out=h)
    return h


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Outputs of the net on a batch of row-vector inputs, one row per input."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != params.layer_sizes[0]:
        raise DimensionMismatchError(params.layer_sizes[0], x.shape[1], "input features")
    return _chain(np.ascontiguousarray(x.T), params.weights, params.biases, params.n_layers - 1).T


def _shifted_log_sum_exp(z: np.ndarray) -> tuple:
    """Class-major ``z`` (classes, n) shifted by each point's maximum, and the log of its exp sum.

    The maximum is a fold over the class rows, which equals the per-point
    reduction bit for bit at any class count, since max is exact. The sum is
    such a fold only below 8 classes; from 8 on, a fold is not the pairwise
    sum, so each point's classes are summed as one contiguous row.
    """
    z = z - functools.reduce(np.maximum, z)
    e = np.exp(z)
    sums = functools.reduce(np.add, e) if z.shape[0] < 8 else np.ascontiguousarray(e.T).sum(axis=1)
    return z, np.log(sums)


def _softmax_log(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of row-major ``z``, through its class-major view."""
    s, lse = _shifted_log_sum_exp(z.T)
    s -= lse
    return np.ascontiguousarray(s.T)


def mlp_forward_loss(params: MlpParams, data: ClassMajorSet) -> float:
    """Mean softmax cross-entropy of the net against the set's class labels."""
    s = _class_major(params, data)
    return _output_loss(_chain(s.inputs, params.weights, params.biases, params.n_layers - 1), s.targets)


def _loss_targets(labels: np.ndarray, n_out: int) -> np.ndarray:
    """Flat index of each row's class in (``n_out``, n) outputs; labels must be integer classes."""
    classes = labels.astype(np.intp)
    if classes.min() < 0 or classes.max() >= n_out or (classes != labels).any():
        raise ValueError(f"class labels must be integers in [0, {n_out - 1}]")
    return classes * len(classes) + np.arange(len(classes))


def _output_loss(out: np.ndarray, targets: np.ndarray) -> float:
    """Mean of ``-_softmax_log(out.T)`` at each row's class, bit for bit, from the
    chain's (classes, n) ``out``: each point's shifted target logit minus its
    log-sum-exp, gathered at the `_loss_targets` index in row order."""
    z, lse = _shifted_log_sum_exp(out)
    picked = np.take(z, targets)
    picked -= lse
    return float(-picked.mean())


def mlp_loss_gradients(params: MlpParams, data: ClassMajorSet):
    """Backpropagated gradients of `mlp_forward_loss`, by a row-major pass: (dWs, dbs) lists."""
    h = _class_major(params, data).rows
    acts = [h]
    pre = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < params.n_layers - 1 else z
        acts.append(h)
    p = np.exp(_softmax_log(h))
    p.T.flat[data.targets] -= 1.0
    d_ws, d_bs = [], []
    delta = p / len(p)
    for i in range(params.n_layers - 1, -1, -1):
        d_ws.append(delta.T @ acts[i])
        d_bs.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ params.weights[i]) * (pre[i - 1] > 0.0)
    d_ws.reverse()
    d_bs.reverse()
    return d_ws, d_bs


def mlp_gradient_step(params: MlpParams, data: ClassMajorSet, step_size: float) -> MlpParams:
    """One gradient-descent update; raises DivergenceError on non-finite stepped weights."""
    if not step_size > 0:
        raise ValueError(f"step size must be positive, got {step_size}")
    # Pre-activations may overflow and still step to finite weights (a ReLU
    # zeroes -inf); only non-finite stepped weights are a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        d_ws, d_bs = mlp_loss_gradients(params, data)
        ws = tuple(w - step_size * dw for w, dw in zip(params.weights, d_ws))
        bs = tuple(b - step_size * db for b, db in zip(params.biases, d_bs))
    try:  # the shapes are the input's, so only the constructor's finiteness check can fail
        return MlpParams(ws, bs)
    except ValueError:
        raise DivergenceError("gradient update produced non-finite weights") from None


def linear_sum_assignment(c: np.ndarray):
    """SciPy's exact assignment solver, loaded on first call: importing paramarket loads no SciPy."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(c)


def linear_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment of a square, finite cost matrix: one SciPy solve.

    Returns ``perm`` with row ``i`` assigned to column ``perm[i]``. Ties
    between optimal assignments resolve as SciPy's solver resolves them.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    return linear_sum_assignment(c)[1]


def matching_objective(
    reference: MlpParams, candidate: MlpParams, perms: LayerPermutations
) -> float:
    """Total inner-product similarity between the reference and the permuted candidate."""
    permuted = apply_permutation(candidate, perms)
    total = 0.0
    for aw, ab, cw, cb in zip(reference.weights, reference.biases, permuted.weights, permuted.biases):
        total += float(np.sum(aw * cw)) + float(ab @ cb)
    return total


def _descend(reference: MlpParams, candidate: MlpParams, order: list) -> LayerPermutations:
    """One coordinate descent in the given layer order; returns its final permutations.

    The descent runs at most `ALIGN_SWEEPS` sweeps. A layer's similarity matrix depends only on the permutations of its two
    neighbours, and the assignment is a deterministic function of it. So a
    layer is re-solved only while it is stale: before its first solve, and
    after a neighbour's permutation changed. Any other update would repeat
    the previous solve of that layer bit for bit and return the permutation it
    already holds, so the result and the early stop are those of a descent
    that solves every update.
    """
    hidden = reference.hidden_sizes
    perms = [np.arange(h, dtype=np.intp) for h in hidden]
    in_ident = np.arange(reference.layer_sizes[0], dtype=np.intp)
    out_ident = np.arange(reference.layer_sizes[-1], dtype=np.intp)
    stale = set(range(len(hidden)))
    for _ in range(ALIGN_SWEEPS):
        changed = False
        for i in order:
            if i not in stale:
                continue
            stale.discard(i)
            prev = perms[i - 1] if i > 0 else in_ident
            nxt = perms[i + 1] if i + 1 < len(hidden) else out_ident
            with np.errstate(over="ignore", invalid="ignore"):  # checked right below
                sim = reference.weights[i] @ candidate.weights[i][:, prev].T
                sim += np.outer(reference.biases[i], candidate.biases[i])
                sim += reference.weights[i + 1].T @ candidate.weights[i + 1][nxt, :]
            if not np.isfinite(sim).all():  # finite weights whose products overflow
                raise DivergenceError(f"non-finite unit similarities in hidden layer {i}")
            new_p = linear_assignment(-sim)
            if not np.array_equal(new_p, perms[i]):
                changed = True
                perms[i] = new_p
                stale.update(j for j in (i - 1, i + 1) if 0 <= j < len(hidden))
        if not changed:
            break
    return LayerPermutations(tuple(perms))


def weight_matching_alignment(reference: MlpParams, candidate: MlpParams) -> LayerPermutations:
    """Permutations re-indexing the candidate's hidden units to match the reference.

    Each descent update re-solves one hidden layer's assignment holding the
    others fixed; a sweep that changes nothing stops it early. The layer
    order of the first sweep can decide which local optimum it lands in, so
    a first-to-last and a last-to-first descent run, and the one ending at
    the higher matching objective wins (ties keep the forward one). Nets
    whose unit similarities overflow raise `DivergenceError`.
    """
    reference.require_same_architecture(candidate)
    n_hidden = len(reference.hidden_sizes)
    forward = _descend(reference, candidate, list(range(n_hidden)))
    if n_hidden < 2:
        return forward
    backward = _descend(reference, candidate, list(range(n_hidden - 1, -1, -1)))
    f, b = (matching_objective(reference, candidate, p) for p in (forward, backward))
    return backward if b > f else forward


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
    layers = _merge_layers(buyer, seller_aligned, layer_set)
    _check_weight(weight)
    ws, bs = list(buyer.weights), list(buyer.biases)
    for i in layers:
        ws[i] = (1.0 - weight) * buyer.weights[i] + weight * seller_aligned.weights[i]
        bs[i] = (1.0 - weight) * buyer.biases[i] + weight * seller_aligned.biases[i]
    return MlpParams(tuple(ws), tuple(bs))


def merge_path_loss(
    buyer: MlpParams,
    seller_aligned: MlpParams,
    layer_set,
    data: ClassMajorSet,
):
    """Loss along a subset merge path, scored without building merged nets.

    Returns ``loss_at(weight)``, equal bit for bit to ``mlp_forward_loss(
    subset_merge(buyer, seller_aligned, layer_set, weight), data)``
    and raising the same errors. Everything that does not depend on the
    weight is done once: the architecture, layer-set and width checks (the
    set's labels were checked when it was built), the class-major forward
    chain through the buyer layers before the first merged one, packing each
    net's merged weights and biases into one flat array, and the layer
    lists, whose merged layers are views into one blend buffer.

    Each call rewrites that buffer in place with the two products and the sum
    of `subset_merge`'s blend, elementwise, so every entry gets the same
    bits. It checks the buffer with one finiteness test and runs the chain of
    `mlp_forward_loss` from the first merged layer on, so the bits match on
    any BLAS kernel. Only when the finiteness test fails are the layers
    checked one by one, which raises the per-layer error for the first bad
    layer. The closure owns its buffer: it is not re-entrant, and no view of
    the buffer leaves it (`subset_merge` builds the merge that is shipped).
    """
    layers = _merge_layers(buyer, seller_aligned, layer_set)
    scored = _class_major(buyer, data)
    first = layers[0]
    head = _chain(scored.inputs, buyer.weights[:first], buyer.biases[:first], first)
    n_relu = buyer.n_layers - 1 - first
    flat_b, flat_s = (
        np.concatenate([a for i in layers for a in (net.weights[i].ravel(), net.biases[i])])
        for net in (buyer, seller_aligned)
    )
    blend, seller_part = np.empty((2, flat_b.size))  # the blend, and the seller's product
    ws, bs = list(buyer.weights[first:]), list(buyer.biases[first:])
    end = 0  # layer i: weights at blend[start:mid], bias at blend[mid:end]
    for i in layers:
        start, mid = end, end + buyer.weights[i].size
        end = mid + buyer.biases[i].size
        ws[i - first], bs[i - first] = blend[start:mid].reshape(buyer.weights[i].shape), blend[mid:end]

    def loss_at(weight: float) -> float:
        _check_weight(weight)
        np.multiply(flat_b, 1.0 - weight, out=blend)
        np.multiply(flat_s, weight, out=seller_part)
        np.add(blend, seller_part, out=blend)
        if not np.isfinite(blend).all():
            for i in layers:
                _check_finite(i, ws[i - first], bs[i - first])
        return _output_loss(_chain(head, ws, bs, n_relu), scored.targets)

    return loss_at


def _merge_layers(buyer: MlpParams, seller_aligned: MlpParams, layer_set) -> list:
    """Sorted indices of a non-empty layer set of two nets of one architecture."""
    buyer.require_same_architecture(seller_aligned)
    layers = sorted(set(int(i) for i in layer_set))
    if not layers:
        raise ValueError("layer set must be non-empty")
    if layers[0] < 0 or layers[-1] >= buyer.n_layers:
        raise ValueError(f"layer indices {layers} out of range for {buyer.n_layers} layers")
    return layers


def two_moons(n: int, rng: np.random.Generator) -> LabeledDataset:
    """Seeded two-interleaving-half-circles set with 0/1 labels and `MOONS_NOISE` input noise."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    x0 = np.column_stack([np.cos(t0), np.sin(t0)])
    x1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([x0, x1]) + MOONS_NOISE * rng.standard_normal((n, MOONS_FEATURES))
    y = np.concatenate([np.zeros(n0), np.ones(n1)])
    order = rng.permutation(n)
    return LabeledDataset(x[order], y[order])
