import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramarket
from paramarket import mlp
from paramarket.core import (
    DimensionMismatchError,
    DivergenceError,
    LabeledDataset,
    ParameterVector,
    empirical_loss,
    gradient_step,
    loss_gradient,
    merge,
)


def pv(*values):
    return ParameterVector(np.array(values, dtype=float))


class TestTypes:
    def test_parameter_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            ParameterVector(np.array([1.0, np.nan]))

    def test_parameter_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            ParameterVector(np.zeros((2, 2)))

    def test_parameter_vector_immutable(self):
        p = pv(1.0, 2.0)
        with pytest.raises(ValueError):
            p.values[0] = 5.0

    def test_float64_arrays_are_frozen_in_place_not_copied(self):
        v, x, y = np.zeros(3), np.zeros((4, 3)), np.zeros(4)
        data = LabeledDataset(x, y)
        for passed, field in [(v, ParameterVector(v).values), (x, data.inputs), (y, data.labels)]:
            assert np.shares_memory(passed, field)
            assert not passed.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                passed[0] = 1.0

    def test_dataset_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0))

    def test_dimension_error_names_both_sides(self):
        data = LabeledDataset(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatchError, match="expected 3, got 2"):
            empirical_loss(pv(1.0, 2.0), data)


class TestEmpiricalLoss:
    data = LabeledDataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))

    def test_exact_fit_is_zero(self):
        assert empirical_loss(pv(1.0), self.data) == 0.0

    def test_mean_per_sample_hand_value(self):
        assert empirical_loss(pv(0.0), self.data) == 2.5

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            data = LabeledDataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
            theta = ParameterVector(rng.standard_normal(3))
            assert empirical_loss(theta, data) >= 0.0


class TestGradientStep:
    def test_hand_value(self):
        data = LabeledDataset(np.array([[1.0]]), np.array([0.0]))
        stepped = gradient_step(pv(1.0), data, 0.25)
        assert stepped.values[0] == pytest.approx(0.5, abs=1e-15)

    def test_fixed_point_at_least_squares_solution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        theta_ls = np.linalg.lstsq(x, y, rcond=None)[0]
        data = LabeledDataset(x, y)
        stepped = gradient_step(ParameterVector(theta_ls), data, 0.01)
        np.testing.assert_allclose(stepped.values, theta_ls, atol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        data = LabeledDataset(x, y)
        theta = rng.standard_normal(3)
        analytic = loss_gradient(ParameterVector(theta), data)
        eps = 1e-6
        for i in range(3):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd = (
                empirical_loss(ParameterVector(up), data) - empirical_loss(ParameterVector(down), data)
            ) / (2 * eps)
            assert analytic[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_descent_for_safe_step_sizes(self):
        # The loss is 2*lambda_max/n smooth; steps below 1/L descend.
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.standard_normal((12, 4))
            y = rng.standard_normal(12)
            data = LabeledDataset(x, y)
            smoothness = 2.0 * np.linalg.eigvalsh(x.T @ x).max() / 12
            eta = rng.uniform(0.05, 0.999) / smoothness
            theta = ParameterVector(rng.standard_normal(4))
            before = empirical_loss(theta, data)
            after = empirical_loss(gradient_step(theta, data, eta), data)
            assert after <= before + 1e-12

    def test_rejects_nonpositive_step(self):
        data = LabeledDataset(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            gradient_step(pv(1.0), data, 0.0)


# A finite gradient that a huge step overflows: the stepped arrays' own checks
# find it, and it surfaces as a divergence, never as their ValueError.
class TestDivergence:
    def test_overflowing_linear_step_is_a_divergence(self):
        data = LabeledDataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            gradient_step(pv(1e10), data, 1e308)
        assert not isinstance(err.value, ValueError)
        assert str(err.value) == "gradient update produced non-finite parameters"
        assert err.value.round_index is None and err.value.__cause__ is None

    def test_overflowing_neural_step_is_a_divergence(self):
        rng = np.random.default_rng(7)
        net = mlp.MlpParams.random_init((2, 4, 2), rng)
        net = mlp.MlpParams(tuple(100.0 * w for w in net.weights), net.biases)  # gradients above 1
        data = mlp.ClassMajorSet(mlp.two_moons(20, rng), mlp.MOONS_CLASSES)
        with pytest.raises(DivergenceError) as err:
            mlp.mlp_gradient_step(net, data, 1e308)
        assert not isinstance(err.value, ValueError)
        assert str(err.value) == "gradient update produced non-finite weights"
        assert err.value.round_index is None and err.value.__cause__ is None


class TestMerge:
    def test_full_weight_returns_seller(self):
        out = merge(pv(1.0, 2.0), pv(3.0, 4.0), 1.0)
        np.testing.assert_array_equal(out.values, [3.0, 4.0])

    def test_identical_parties_fixed_point(self):
        p = pv(1.0, -2.0)
        out = merge(p, pv(1.0, -2.0), 0.37)
        np.testing.assert_allclose(out.values, p.values, atol=1e-15)

    def test_hand_value(self):
        out = merge(pv(0.0, 0.0), pv(2.0, 4.0), 0.5)
        np.testing.assert_array_equal(out.values, [1.0, 2.0])

    @given(st.floats(min_value=-1e3, max_value=0.0).filter(lambda w: w <= 0.0))
    def test_rejects_weights_at_or_below_zero(self, weight):
        with pytest.raises(ValueError):
            merge(pv(0.0), pv(1.0), weight)

    def test_rejects_weights_above_one(self):
        with pytest.raises(ValueError):
            merge(pv(0.0), pv(1.0), 1.0 + 1e-12)

    @settings(max_examples=200)
    @given(
        weight=st.floats(min_value=1e-9, max_value=1.0),
        a=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        b=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    )
    def test_merge_is_affine(self, weight, a, b):
        pa, pb = ParameterVector(np.array(a)), ParameterVector(np.array(b))
        moved = merge(pa, pb, weight).values - pa.values
        np.testing.assert_allclose(moved, weight * (pb.values - pa.values), atol=1e-12)

    def test_loss_convex_along_merge_path(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            data = LabeledDataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
            a = ParameterVector(rng.standard_normal(3))
            b = ParameterVector(rng.standard_normal(3))
            nu = rng.uniform(1e-6, 1.0)
            mixed = empirical_loss(merge(a, b, nu), data)
            chord = (1 - nu) * empirical_loss(a, data) + nu * empirical_loss(b, data)
            assert mixed <= chord + 1e-9 * (1 + chord)


@pytest.mark.parametrize(
    "name", ["paramarket"] + [f"paramarket.{m.name}" for m in pkgutil.iter_modules(paramarket.__path__)]
)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
