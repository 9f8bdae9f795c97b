import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from paramarket import mlp
from paramarket.core import DimensionMismatchError, LabeledDataset, empirical_loss, ParameterVector
from paramarket.mlp import (
    LayerPermutations,
    MlpParams,
    TaskKind,
    align_with_trace,
    apply_permutation,
    linear_assignment,
    matching_objective,
    mlp_forward,
    mlp_forward_loss,
    mlp_loss_gradients,
    subset_merge,
    two_moons,
    weight_matching_alignment,
)


def random_net(sizes, seed):
    return MlpParams.random_init(sizes, np.random.default_rng(seed))


def random_perms(net, seed):
    rng = np.random.default_rng(seed)
    return LayerPermutations(tuple(rng.permutation(h) for h in net.hidden_sizes))


def nets_equal(a, b):
    return all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights)) and all(
        np.array_equal(b1, b2) for b1, b2 in zip(a.biases, b.biases)
    )


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
    def test_zero_weights_zero_labels_regression(self):
        net = MlpParams((np.zeros((4, 2)), np.zeros((1, 4))), (np.zeros(4), np.zeros(1)))
        data = LabeledDataset(np.ones((5, 2)), np.zeros(5))
        assert mlp_forward_loss(net, data, TaskKind.REGRESSION) == 0.0

    def test_single_linear_layer_matches_linear_loss(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((1, 3))
        net = MlpParams((w,), (np.zeros(1),))
        data = LabeledDataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
        assert mlp_forward_loss(net, data, TaskKind.REGRESSION) == pytest.approx(
            empirical_loss(ParameterVector(w[0]), data), rel=1e-12
        )

    def test_forward_matches_slow_reference(self):
        rng = np.random.default_rng(1)
        net = random_net((3, 7, 5, 2), 2)
        x = rng.standard_normal((20, 3))
        np.testing.assert_allclose(mlp_forward(net, x), reference_forward(net, x), atol=1e-10)

    def test_dimension_mismatch(self):
        net = random_net((3, 4, 1), 3)
        data = LabeledDataset(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            mlp_forward_loss(net, data, TaskKind.REGRESSION)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        cases = [
            (TaskKind.REGRESSION, (3, 6, 1), rng.standard_normal(12)),
            (TaskKind.CLASSIFICATION, (3, 6, 4), rng.integers(0, 4, 12).astype(float)),
        ]
        for kind, sizes, labels in cases:
            net = random_net(sizes, 5)
            data = LabeledDataset(rng.standard_normal((12, 3)), labels)
            d_ws, d_bs = mlp_loss_gradients(net, data, kind)
            analytic = np.concatenate(
                [np.concatenate([dw.ravel(), db]) for dw, db in zip(d_ws, d_bs)]
            )
            flat = net.flatten()
            eps = 1e-6
            for i in rng.choice(flat.size, size=25, replace=False):
                up, down = flat.copy(), flat.copy()
                up[i] += eps
                down[i] -= eps
                fd = (
                    mlp_forward_loss(MlpParams.unflatten(up, sizes), data, kind)
                    - mlp_forward_loss(MlpParams.unflatten(down, sizes), data, kind)
                ) / (2 * eps)
                assert analytic[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestFlatten:
    def test_round_trip(self):
        net = random_net((2, 5, 3, 2), 6)
        rebuilt = MlpParams.unflatten(net.flatten(), net.layer_sizes)
        assert nets_equal(net, rebuilt)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MlpParams.unflatten(np.zeros(7), (2, 3, 1))


def per_column_assignment(cost):
    # Reference tie rule: place rows in order, each at the smallest column for
    # which an exact solve of the remaining rows stays within the tolerance.
    best = float(cost[linear_sum_assignment(cost)].sum())
    tol = 1e-9 * max(1.0, abs(best))
    n, remaining, prefix, perm = len(cost), list(range(len(cost))), 0.0, []
    for i in range(n):
        for j in remaining:
            rest = [k for k in remaining if k != j]
            sub = cost[np.ix_(range(i + 1, n), rest)]
            tail = float(sub[linear_sum_assignment(sub)].sum()) if rest else 0.0
            if prefix + cost[i, j] + tail <= best + tol:
                perm.append(j)
                prefix += cost[i, j]
                remaining.remove(j)
                break
    return perm


class TestLinearAssignment:
    def test_flat_costs_give_identity(self):
        np.testing.assert_array_equal(linear_assignment(np.zeros((4, 4))), [0, 1, 2, 3])

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

    def test_lexicographic_tie_break(self):
        # Two optimal assignments; the lexicographically smaller wins.
        cost = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(linear_assignment(cost), [0, 1])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linear_assignment(np.zeros((2, 3)))

    @settings(deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_lexicographically_smallest_optimum(self, rows, scale):
        # Small integers make many exact ties; the reference sums them exactly.
        n = len(rows)
        perms = list(itertools.permutations(range(n)))  # lexicographic order
        totals = [sum(rows[i][p[i]] for i in range(n)) for p in perms]
        want = perms[totals.index(min(totals))]
        np.testing.assert_array_equal(linear_assignment(np.array(rows, dtype=float) * scale), want)

    def test_matches_per_column_reference_on_ties(self):
        rng = np.random.default_rng(21)
        for t in range(60):
            n = int(rng.integers(7, 17))
            if t % 3 == 0:  # duplicated rows
                cost = rng.integers(-2, 3, (n // 2, n))[rng.integers(0, n // 2, n)]
            elif t % 3 == 1:  # rank one
                cost = np.outer(rng.integers(-2, 3, n), rng.integers(-2, 3, n))
            else:
                cost = rng.integers(-1, 2, (n, n))
            cost = cost * 10.0 ** float(rng.integers(-6, 7))
            np.testing.assert_array_equal(linear_assignment(cost), per_column_assignment(cost))

    def test_generic_matrix_takes_one_solve(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c.shape)
            return linear_sum_assignment(c)

        monkeypatch.setattr(mlp, "linear_sum_assignment", counted)
        cost = np.random.default_rng(3).standard_normal((16, 16))
        linear_assignment(cost)
        assert calls == [(16, 16)]


class TestAlignment:
    def test_identical_nets_get_identity(self):
        net = random_net((2, 8, 8, 2), 8)
        perms = weight_matching_alignment(net, net)
        assert perms.is_identity()

    def test_planted_permutation_recovered(self):
        for seed in range(5):
            net = random_net((2, 12, 12, 12, 2), seed)
            planted = random_perms(net, seed + 100)
            clone = apply_permutation(net, planted)
            perms = weight_matching_alignment(net, clone)
            assert nets_equal(apply_permutation(clone, perms), net)
            for got, want in zip(perms.perms, planted.inverse().perms):
                np.testing.assert_array_equal(got, want)

    def test_objective_no_worse_than_identity(self):
        a, b = random_net((2, 10, 10, 2), 9), random_net((2, 10, 10, 2), 10)
        perms = weight_matching_alignment(a, b)
        identity = LayerPermutations.identity(a.hidden_sizes)
        assert matching_objective(a, b, perms) >= matching_objective(a, b, identity) - 1e-12

    def test_objective_trace_monotone(self):
        a, b = random_net((2, 12, 12, 12, 2), 11), random_net((2, 12, 12, 12, 2), 12)
        _, trace = align_with_trace(a, b, sweeps=10)
        assert all(later >= earlier - 1e-9 for earlier, later in zip(trace, trace[1:]))

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            weight_matching_alignment(random_net((2, 8, 2), 1), random_net((2, 9, 2), 1))

    def test_entry_points_agree(self):
        backward_won = False
        for sizes in [(2, 8, 2), (2, 8, 8, 2), (2, 6, 6, 6, 2)]:
            for seed in range(4):
                a, b = random_net(sizes, seed), random_net(sizes, 1000 + seed)
                perms, trace = align_with_trace(a, b)
                got = weight_matching_alignment(a, b)
                for p, q in zip(got.perms, perms.perms):
                    np.testing.assert_array_equal(p, q)
                forward, backward = mlp._descents(a, b, 10)
                winner = forward
                if backward is not None and trace[-1] != matching_objective(a, b, forward[-1]):
                    winner, backward_won = backward, True
                # One entry per update plus the initial one; every sweep updates each layer.
                assert len(trace) == len(winner)
                assert (len(trace) - 1) % len(sizes[1:-1]) == 0
                assert trace == [matching_objective(a, b, p) for p in winner]
        assert backward_won


class TestApplyPermutation:
    def test_identity_is_noop(self):
        net = random_net((2, 6, 6, 2), 13)
        out = apply_permutation(net, LayerPermutations.identity(net.hidden_sizes))
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
        back = apply_permutation(apply_permutation(net, perms), perms.inverse())
        assert nets_equal(back, net)

    def test_width_mismatch_rejected(self):
        net = random_net((2, 6, 2), 19)
        with pytest.raises(ValueError):
            apply_permutation(net, LayerPermutations((np.arange(5),)))


class TestSubsetMerge:
    def test_all_layers_equals_full_merge(self):
        a, b = random_net((2, 5, 5, 2), 20), random_net((2, 5, 5, 2), 21)
        merged = subset_merge(a, b, range(a.n_layers), 0.3)
        flat = 0.7 * a.flatten() + 0.3 * b.flatten()
        np.testing.assert_allclose(merged.flatten(), flat, atol=1e-15)

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


class TestTwoMoons:
    def test_shapes_and_labels(self):
        data = two_moons(101, 0.1, np.random.default_rng(0))
        assert data.inputs.shape == (101, 2)
        assert set(np.unique(data.labels)) == {0.0, 1.0}

    def test_seeded_determinism(self):
        d1 = two_moons(64, 0.2, np.random.default_rng(5))
        d2 = two_moons(64, 0.2, np.random.default_rng(5))
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
