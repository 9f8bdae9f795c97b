import itertools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from paramarket import mlp
from paramarket.broker import WEIGHT_FLOOR
from paramarket.core import DimensionMismatchError, DivergenceError, LabeledDataset
from paramarket.mlp import (
    LayerPermutations,
    MlpParams,
    apply_permutation,
    linear_assignment,
    matching_objective,
    merge_path_loss,
    mlp_forward,
    mlp_forward_loss,
    mlp_gradient_step,
    mlp_loss_gradients,
    subset_merge,
    two_moons,
    weight_matching_alignment,
)

from _helpers import flatten, identity_perms, inverse, is_identity, unflatten


def random_net(sizes, seed):
    return MlpParams.random_init(sizes, np.random.default_rng(seed))


def random_perms(net, seed):
    rng = np.random.default_rng(seed)
    return LayerPermutations(tuple(rng.permutation(h) for h in net.hidden_sizes))


def nets_equal(a, b):
    return all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights)) and all(
        np.array_equal(b1, b2) for b1, b2 in zip(a.biases, b.biases)
    )


# Nets with hidden widths up to the bundled markets' 16 units. The tests
# that draw them also draw up to 700 points, past the broker's 600: BLAS
# kernels switch with the shape, so small shapes alone would not reach the
# products markets run.
net_sizes = st.tuples(
    st.integers(1, 3), st.lists(st.integers(1, 16), max_size=3), st.integers(1, 12)
).map(lambda t: (t[0], *t[1], t[2]))


def reference_forward(net, x):
    # Deliberately slow per-sample, per-unit evaluation.
    outputs = []
    for row in x:
        h = list(row)
        for i in range(net.n_layers):
            w, b = net.weights[i], net.biases[i]
            z = [sum(w[j][k] * h[k] for k in range(len(h))) + b[j] for j in range(w.shape[0])]
            h = [max(v, 0.0) for v in z] if i < net.n_layers - 1 else z
        outputs.append(h)
    return np.array(outputs)


class TestForwardLoss:
    def test_forward_matches_slow_reference(self):
        rng = np.random.default_rng(1)
        net = random_net((3, 7, 5, 2), 2)
        x = rng.standard_normal((20, 3))
        np.testing.assert_allclose(mlp_forward(net, x), reference_forward(net, x), atol=1e-10)

    def test_dimension_mismatch(self):
        net = random_net((3, 4, 2), 3)
        data = mlp.ClassMajorSet(LabeledDataset(np.ones((2, 2)), np.zeros(2)), 2)
        with pytest.raises(DimensionMismatchError):
            mlp_forward_loss(net, data)
        with pytest.raises(DimensionMismatchError):
            mlp_loss_gradients(net, data)

    def test_log_softmax_equals_the_row_reduction_version(self):
        rng = np.random.default_rng(30)
        for n_out in range(1, 13):
            z = rng.standard_normal((40, n_out)) * 10.0 ** rng.integers(-3, 4, (40, 1))
            z[0, -1] = 1e300
            want = z - z.max(axis=1, keepdims=True)
            want = want - np.log(np.exp(want).sum(axis=1, keepdims=True))
            np.testing.assert_array_equal(mlp._softmax_log(z), want)

    def test_log_sum_exp_of_class_major_outputs_is_the_row_reduction(self):
        # The chain's outputs are (classes, n) and contiguous. A loss over
        # many points averages away a one-ulp change in one point's
        # log-sum-exp, so each point's value is checked here.
        rng = np.random.default_rng(32)
        for n_out in range(1, 13):
            z = rng.standard_normal((40, n_out)) * 10.0 ** rng.integers(-3, 4, (40, 1))
            shifted = z - z.max(axis=1, keepdims=True)
            _, lse = mlp._shifted_log_sum_exp(np.ascontiguousarray(z.T))
            np.testing.assert_array_equal(lse, np.log(np.exp(shifted).sum(axis=1)))

    def test_loss_is_the_mean_target_log_softmax(self):
        # A one-layer identity net outputs its inputs exactly, so the loss of
        # any logit matrix, a 1e300 logit included, can be checked against the
        # target entries of the full log-softmax matrix, averaged. The mean of
        # many rows hides a one-ulp change in a row's log-sum-exp, so every
        # row is also scored on its own.
        rng = np.random.default_rng(31)
        for n_out in range(1, 13):
            z = rng.standard_normal((40, n_out)) * 10.0 ** rng.integers(-3, 4, (40, 1))
            z[0, -1] = 1e300
            labels = rng.integers(0, n_out, 40)
            net = MlpParams((np.eye(n_out),), (np.zeros(n_out),))
            np.testing.assert_array_equal(mlp_forward(net, z), z)
            for rows in [slice(None)] + [slice(r, r + 1) for r in range(40)]:
                data = mlp.ClassMajorSet(LabeledDataset(z[rows], labels[rows].astype(float)), n_out)
                want = float(-mlp._softmax_log(z[rows])[np.arange(len(data.targets)), labels[rows]].mean())
                assert struct.pack("<d", mlp_forward_loss(net, data)) == struct.pack("<d", want), (n_out, rows)

    @settings(max_examples=100, deadline=None)
    @given(net_sizes, st.integers(1, 700), st.integers(0, 2**32 - 1))
    def test_forward_matches_the_row_major_products(self, sizes, n, seed):
        # The class-major chain forms the sums of the row-major x @ w.T. Each
        # output is within 1e-12 of the size of its terms, which a pass on
        # absolute values bounds, so a sum that cancels is still checked.
        rng = np.random.default_rng(seed)
        net = MlpParams.random_init(sizes, rng)
        x = rng.standard_normal((n, sizes[0]))
        want, size = x, np.abs(x)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            want, size = want @ w.T + b, size @ np.abs(w).T + np.abs(b)
            if i < net.n_layers - 1:
                want = np.maximum(want, 0.0)
        got = mlp_forward(net, x)
        assert got.shape == (n, sizes[-1])
        assert np.all(np.abs(got - want) <= 1e-12 * size)

    def test_class_major_set_is_checked_once_and_matched_to_the_net(self):
        net = random_net((2, 4, 3), 9)
        data = LabeledDataset(np.ones((3, 2)), np.array([0.0, 2.0, 1.0]))
        scored = mlp.ClassMajorSet(data, 3)
        assert scored.rows is data.inputs  # the gradients read the dataset's own inputs
        want = float(-mlp._softmax_log(mlp_forward(net, data.inputs))[np.arange(3), [0, 2, 1]].mean())
        assert struct.pack("<d", mlp_forward_loss(net, scored)) == struct.pack("<d", want)
        with pytest.raises(ValueError, match=r"class labels must be integers in \[0, 1\]"):
            mlp.ClassMajorSet(data, 2)
        for other in (random_net((3, 4, 3), 9), random_net((2, 4, 4), 9)):
            with pytest.raises(DimensionMismatchError):
                mlp_forward_loss(other, scored)
            with pytest.raises(DimensionMismatchError):
                merge_path_loss(other, other, (0,), scored)
            with pytest.raises(DimensionMismatchError):
                mlp_loss_gradients(other, scored)
            with pytest.raises(DimensionMismatchError):
                mlp_gradient_step(other, scored, 0.1)

    @pytest.mark.parametrize("label", [-1.0, 0.5, 2.0])
    def test_set_rejects_a_label_that_is_not_a_class(self, label):
        data = LabeledDataset(np.ones((3, 2)), np.array([0.0, 1.0, label]))
        with pytest.raises(ValueError, match=r"class labels must be integers in \[0, 1\]"):
            mlp.ClassMajorSet(data, 2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        sizes = (3, 6, 4)
        net = random_net(sizes, 5)
        x = rng.standard_normal((12, 3))
        data = mlp.ClassMajorSet(LabeledDataset(x, rng.integers(0, 4, 12).astype(float)), 4)
        d_ws, d_bs = mlp_loss_gradients(net, data)
        analytic = np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in zip(d_ws, d_bs)])
        flat = flatten(net)
        eps = 1e-6
        for i in rng.choice(flat.size, size=25, replace=False):
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            fd = (
                mlp_forward_loss(unflatten(up, sizes), data) - mlp_forward_loss(unflatten(down, sizes), data)
            ) / (2 * eps)
            assert analytic[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("scale, step_size", [(1e200, 0.1), (100.0, 1e308)])
    def test_non_finite_step_is_a_divergence_without_a_warning(self, scale, step_size):
        # Weights whose outputs overflow, and finite gradients that a huge step overflows.
        net = random_net((2, 4, 2), 6)
        big = MlpParams(tuple(w * scale for w in net.weights), net.biases)
        data = mlp.ClassMajorSet(two_moons(20, np.random.default_rng(7)), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="non-finite weights"):
                mlp_gradient_step(big, data, step_size)


class TestFlatten:
    def test_round_trip(self):
        net = random_net((2, 5, 3, 2), 6)
        rebuilt = unflatten(flatten(net), net.layer_sizes)
        assert nets_equal(net, rebuilt)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unflatten(np.zeros(7), (2, 3, 1))


def min_assignment_cost(cost):
    # Exact minimum over all assignments of an integer matrix, by dynamic
    # programming over column subsets: best[mask] assigns the first
    # popcount(mask) rows to the columns in mask.
    n = len(cost)
    masks = np.arange(1 << n)
    counts = sum((masks >> j) & 1 for j in range(n))
    best = np.full(1 << n, np.iinfo(np.int64).max // 2, dtype=np.int64)
    best[0] = 0
    for k in range(1, n + 1):
        layer = masks[counts == k]
        for j in range(n):
            sub = layer[(layer >> j) & 1 == 1]
            best[sub] = np.minimum(best[sub], best[sub ^ (1 << j)] + cost[k - 1, j])
    return int(best[-1])


class TestLinearAssignment:
    def test_two_by_two(self):
        perm = linear_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_array_equal(perm, [0, 1])

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            cost = rng.standard_normal((n, n))
            best, best_perm = None, None
            for perm in itertools.permutations(range(n)):
                total = sum(cost[i, perm[i]] for i in range(n))
                if best is None or total < best - 1e-15:
                    best, best_perm = total, perm
            np.testing.assert_array_equal(linear_assignment(cost), best_perm)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linear_assignment(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            linear_assignment(np.array([[0.0, np.nan], [1.0, 0.0]]))

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def count(c):
            calls.append(c.shape)
            return linear_sum_assignment(c)

        monkeypatch.setattr(mlp, "linear_sum_assignment", count)
        return calls

    @settings(deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_one_solve_reaches_the_exhaustive_optimum_on_ties(self, rows, scale):
        # Small integers make many exact ties; the integer rows score the
        # returned permutation exactly, whatever the scale.
        n = len(rows)
        want = min(sum(rows[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self.counted(monkeypatch)
            perm = linear_assignment(np.array(rows, dtype=float) * scale)
        assert sorted(perm.tolist()) == list(range(n))
        assert sum(rows[i][perm[i]] for i in range(n)) == want
        assert calls == [(n, n)]

    def test_optimal_on_larger_tied_matrices(self):
        rng = np.random.default_rng(21)
        for t in range(60):
            n = int(rng.integers(7, 17))
            if t % 3 == 0:  # duplicated rows
                rows = rng.integers(-2, 3, (n // 2, n))[rng.integers(0, n // 2, n)]
            elif t % 3 == 1:  # rank one
                rows = np.outer(rng.integers(-2, 3, n), rng.integers(-2, 3, n))
            else:
                rows = rng.integers(-1, 2, (n, n))
            perm = linear_assignment(rows * 10.0 ** float(rng.integers(-6, 7)))
            assert sorted(perm.tolist()) == list(range(n))
            assert int(rows[np.arange(n), perm].sum()) == min_assignment_cost(rows)

    def test_generic_matrix_takes_one_solve(self, monkeypatch):
        calls = self.counted(monkeypatch)
        cost = np.random.default_rng(3).standard_normal((16, 16))
        linear_assignment(cost)
        assert calls == [(16, 16)]

    def test_module_solver_is_scipys(self):
        # The solver is a module global, so tracing and patching can replace it.
        assert "linear_sum_assignment" in vars(mlp)
        cost = np.random.default_rng(5).standard_normal((6, 6))
        rows, cols = mlp.linear_sum_assignment(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)


class TestAlignment:
    def test_identical_nets_get_identity(self):
        net = random_net((2, 8, 8, 2), 8)
        perms = weight_matching_alignment(net, net)
        assert is_identity(perms)

    def test_planted_permutation_recovered(self):
        for seed in range(5):
            net = random_net((2, 12, 12, 12, 2), seed)
            planted = random_perms(net, seed + 100)
            clone = apply_permutation(net, planted)
            perms = weight_matching_alignment(net, clone)
            assert nets_equal(apply_permutation(clone, perms), net)
            for got, want in zip(perms.perms, inverse(planted).perms):
                np.testing.assert_array_equal(got, want)

    def test_objective_no_worse_than_identity(self):
        a, b = random_net((2, 10, 10, 2), 9), random_net((2, 10, 10, 2), 10)
        perms = weight_matching_alignment(a, b)
        identity = identity_perms(a.hidden_sizes)
        assert matching_objective(a, b, perms) >= matching_objective(a, b, identity) - 1e-12

    def test_objective_trace_monotone(self):
        a, b = random_net((2, 12, 12, 12, 2), 11), random_net((2, 12, 12, 12, 2), 12)
        _, trace = reference_alignment(a, b, sweeps=10)
        assert all(later >= earlier - 1e-9 for earlier, later in zip(trace, trace[1:]))

    def test_architecture_mismatch_rejected(self):
        a, b = random_net((2, 8, 2), 1), random_net((2, 9, 2), 1)
        for entry in (weight_matching_alignment, lambda a, b: subset_merge(a, b, {0}, 0.5)):
            with pytest.raises(ValueError, match=r"^architecture mismatch: \(2, 8, 2\) vs \(2, 9, 2\)$"):
                entry(a, b)

    def test_entry_points_agree(self):
        backward_won = False
        for sizes in [(2, 8, 2), (2, 8, 8, 2), (2, 6, 6, 6, 2)]:
            for seed in range(4):
                a, b = random_net(sizes, seed), random_net(sizes, 1000 + seed)
                perms, trace = reference_alignment(a, b)
                got = weight_matching_alignment(a, b)
                for p, q in zip(got.perms, perms.perms):
                    np.testing.assert_array_equal(p, q)
                forward = reference_descend(a, b, 10, list(range(len(sizes) - 2)))
                if trace[-1] != matching_objective(a, b, forward[-1]):
                    backward_won = True
                # One entry per update plus the initial one; every sweep updates each layer.
                assert (len(trace) - 1) % len(sizes[1:-1]) == 0
        assert backward_won


def reference_descend(reference, candidate, sweeps, order):
    # The descent that re-solves every update, also when neither neighbour of
    # the layer moved since its last solve.
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
            new_p = mlp.linear_assignment(-sim)
            if not np.array_equal(new_p, perms[i]):
                changed = True
            perms[i] = new_p
            states.append(LayerPermutations(tuple(perms)))
        if not changed:
            break
    return states


def reference_alignment(reference, candidate, sweeps=10):
    # Both descent orders of weight_matching_alignment with every update
    # solved; returns the winner's permutations and its objective trace.
    n_hidden = len(reference.hidden_sizes)
    orders = [list(range(n_hidden))] + ([list(range(n_hidden - 1, -1, -1))] if n_hidden > 1 else [])
    best = None
    for order in orders:
        states = reference_descend(reference, candidate, sweeps, order)
        trace = [matching_objective(reference, candidate, p) for p in states]
        if best is None or trace[-1] > best[1][-1]:
            best = states[-1], trace
    return best


class TestDescentSkip:
    @staticmethod
    def pairs():
        for n_hidden in range(1, 5):
            sizes = (2, *[7] * n_hidden, 3)
            for seed in range(3):
                net = random_net(sizes, 60 + seed)
                yield net, random_net(sizes, 70 + seed)
                yield net, apply_permutation(net, random_perms(net, 80 + seed))

    @pytest.mark.parametrize("sweeps", [1, 2, 10])
    def test_alignment_equals_the_descent_that_solves_every_update(self, monkeypatch, sweeps):
        monkeypatch.setattr(mlp, "ALIGN_SWEEPS", sweeps)
        for a, b in self.pairs():
            got = weight_matching_alignment(a, b).perms
            want = reference_alignment(a, b, sweeps)[0].perms
            assert len(got) == len(want)
            for p, q in zip(got, want):
                np.testing.assert_array_equal(p, q)

    @staticmethod
    def counted(monkeypatch):
        calls = []

        def count(c):
            calls.append(c.shape)
            return linear_assignment(c)

        monkeypatch.setattr(mlp, "linear_assignment", count)
        return calls

    def test_sweep_without_a_moved_neighbour_makes_no_call(self, monkeypatch):
        # One hidden layer has no neighbours: the first sweep moves it to the
        # planted permutation's inverse and the second repeats that solve.
        net = random_net((2, 8, 2), 90)
        clone = apply_permutation(net, random_perms(net, 91))
        calls = self.counted(monkeypatch)
        perms = mlp._descend(net, clone, [0])
        assert len(calls) == 1
        assert not is_identity(perms)
        calls.clear()
        states = reference_descend(net, clone, 10, [0])
        assert len(states) == 3
        assert len(calls) == 2
        np.testing.assert_array_equal(perms.perms[0], states[-1].perms[0])

    def test_only_layers_next_to_a_moved_one_are_solved_again(self, monkeypatch):
        net = random_net((2, 8, 8, 8, 2), 96)
        clone = apply_permutation(net, random_perms(net, 97))
        calls = self.counted(monkeypatch)
        perms = mlp._descend(net, clone, [0, 1, 2])
        # Sweep 1 moves all three layers. In sweep 2 layers 0 and 1 are solved
        # again, since a neighbour moved after their last solve, and stay put.
        # Layer 1 moved before layer 2's solve, so layer 2 is not solved.
        assert len(calls) == 5
        calls.clear()
        states = reference_descend(net, clone, 10, [0, 1, 2])
        assert len(states) == 7
        assert len(calls) == 6
        for p, q in zip(perms.perms, states[-1].perms):
            np.testing.assert_array_equal(p, q)


class TestApplyPermutation:
    def test_identity_is_noop(self):
        net = random_net((2, 6, 6, 2), 13)
        out = apply_permutation(net, identity_perms(net.hidden_sizes))
        assert nets_equal(out, net)

    def test_function_preserved_on_random_inputs(self):
        rng = np.random.default_rng(14)
        net = random_net((3, 9, 9, 9, 2), 15)
        perms = random_perms(net, 16)
        permuted = apply_permutation(net, perms)
        x = rng.standard_normal((100, 3))
        dev = np.max(np.abs(mlp_forward(net, x) - mlp_forward(permuted, x)))
        assert dev <= 1e-10

    def test_round_trip_through_inverse(self):
        net = random_net((2, 7, 7, 2), 17)
        perms = random_perms(net, 18)
        back = apply_permutation(apply_permutation(net, perms), inverse(perms))
        assert nets_equal(back, net)

    def test_width_mismatch_rejected(self):
        net = random_net((2, 6, 2), 19)
        with pytest.raises(ValueError):
            apply_permutation(net, LayerPermutations((np.arange(5),)))


class TestSubsetMerge:
    def test_all_layers_equals_full_merge(self):
        a, b = random_net((2, 5, 5, 2), 20), random_net((2, 5, 5, 2), 21)
        merged = subset_merge(a, b, range(a.n_layers), 0.3)
        flat = 0.7 * flatten(a) + 0.3 * flatten(b)
        np.testing.assert_allclose(flatten(merged), flat, atol=1e-15)

    def test_full_weight_single_layer_replacement(self):
        a, b = random_net((2, 5, 2), 22), random_net((2, 5, 2), 23)
        merged = subset_merge(a, b, {0}, 1.0)
        assert np.array_equal(merged.weights[0], b.weights[0])
        assert np.array_equal(merged.biases[0], b.biases[0])
        assert np.array_equal(merged.weights[1], a.weights[1])

    def test_disjoint_subsets_compose(self):
        a, b = random_net((2, 5, 5, 2), 24), random_net((2, 5, 5, 2), 25)
        step1 = subset_merge(subset_merge(a, b, {0}, 0.4), b, {1}, 0.4)
        combined = subset_merge(a, b, {0, 1}, 0.4)
        assert nets_equal(step1, combined)

    def test_out_of_range_layer_rejected(self):
        a, b = random_net((2, 5, 2), 26), random_net((2, 5, 2), 27)
        with pytest.raises(ValueError):
            subset_merge(a, b, {5}, 0.5)
        with pytest.raises(ValueError):
            subset_merge(a, b, set(), 0.5)


class TestMergePathLoss:
    # The 33 points of the broker's grid scan over [WEIGHT_FLOOR, 1], plus 1.
    WEIGHTS = [WEIGHT_FLOOR + (1.0 - WEIGHT_FLOOR) * i / 32 for i in range(33)] + [1.0]
    SUBSETS = [s for k in range(1, 5) for s in itertools.combinations(range(4), k)]

    @staticmethod
    def pair():
        sizes = (2, 6, 5, 4, 3)
        rng = np.random.default_rng(40)
        x = rng.standard_normal((50, 2))
        labels = rng.integers(0, 3, 50)
        data = mlp.ClassMajorSet(LabeledDataset(x, labels.astype(float)), 3)
        return random_net(sizes, 41), random_net(sizes, 42), data

    def test_equals_loss_of_built_merge_bit_for_bit(self):
        buyer, seller, data = self.pair()
        assert len(self.SUBSETS) == 15
        for layers in self.SUBSETS:
            loss_at = merge_path_loss(buyer, seller, layers, data)
            for w in self.WEIGHTS:
                expected = mlp_forward_loss(subset_merge(buyer, seller, layers, w), data)
                assert loss_at(w) == expected, (layers, w)

    @staticmethod
    def raised(fn):
        with pytest.raises(Exception) as info:
            fn()
        return type(info.value), str(info.value)

    def test_errors_match_the_built_merge(self):
        buyer, seller, data = self.pair()
        narrow = mlp.ClassMajorSet(LabeledDataset(np.ones((5, 3)), np.zeros(5)), 3)
        wide = mlp.ClassMajorSet(LabeledDataset(np.ones((5, 2)), np.zeros(5)), 4)
        # A blend of two validated nets stays finite, so the non-finite check
        # needs a seller whose arrays changed after validation.
        broken = random_net((2, 6, 5, 4, 3), 44)
        object.__setattr__(broken, "biases", broken.biases[:2] + (np.full(4, np.inf),) + broken.biases[3:])
        cases = [(buyer, seller, (0, 1), data, w) for w in (0.0, -0.5, 1.5, float("nan"))]
        cases += [
            (buyer, seller, (), data, 0.5),
            (buyer, seller, (4,), data, 0.5),
            (buyer, seller, (-1, 2), data, 0.5),
            (buyer, random_net((2, 6, 5, 5, 3), 43), (3,), data, 0.5),
            (buyer, seller, (1,), narrow, 0.5),
            (buyer, seller, (2,), wide, 0.5),
            (buyer, broken, (1, 2), data, 0.5),
        ]
        for b, s, layers, d, w in cases:
            expected = self.raised(lambda: mlp_forward_loss(subset_merge(b, s, layers, w), d))
            assert self.raised(lambda: merge_path_loss(b, s, layers, d)(w)) == expected


def loss_outcome(fn):
    """The bits of a loss, or the type and message of the error it raised."""
    try:
        return struct.pack("<d", fn())
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def merge_path_calls(draw):
    # A buyer and seller of 0-3 hidden layers of width 1-16 and 1-12 outputs,
    # 1-700 points (often the broker's 600), two layer sets, and a call
    # sequence over both closures: weights in (0, 1], some repeated, with
    # invalid weights mixed in.
    sizes = draw(net_sizes)
    seed = draw(st.integers(0, 2**32 - 1))
    layer_sets = draw(st.lists(st.sets(st.integers(0, len(sizes) - 2), min_size=1), min_size=2, max_size=2))
    valid = st.floats(0.0, 1.0, exclude_min=True)
    pool = draw(st.lists(valid | st.sampled_from([0.0, -0.5, 1.5, float("nan")]), min_size=1, max_size=5))
    calls = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(pool)), min_size=1, max_size=12))
    n = draw(st.just(600) | st.integers(1, 700))
    return sizes, seed, layer_sets, calls, n


class TestMergePathLossProperty:
    @settings(max_examples=150, deadline=None)
    @given(merge_path_calls())
    def test_every_call_equals_the_loss_of_the_built_merge(self, case):
        sizes, seed, layer_sets, calls, n = case
        rng = np.random.default_rng(seed)
        buyer, seller = (MlpParams.random_init(sizes, rng) for _ in range(2))
        # The set's arrays are read-only, so a pass writing to its input raises.
        x = rng.standard_normal((n, sizes[0]))
        data = mlp.ClassMajorSet(LabeledDataset(x, rng.integers(0, sizes[-1], n).astype(float)), sizes[-1])
        closures = [merge_path_loss(buyer, seller, layers, data) for layers in layer_sets]
        for k, w in calls:
            want = loss_outcome(lambda: mlp_forward_loss(subset_merge(buyer, seller, layer_sets[k], w), data))
            assert loss_outcome(lambda: closures[k](w)) == want, (k, w)


class TestTwoMoons:
    def test_shapes_and_labels(self):
        data = two_moons(101, np.random.default_rng(0))
        assert data.inputs.shape == (101, 2)
        assert set(np.unique(data.labels)) == {0.0, 1.0}

    def test_seeded_determinism(self):
        d1 = two_moons(64, np.random.default_rng(5))
        d2 = two_moons(64, np.random.default_rng(5))
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
