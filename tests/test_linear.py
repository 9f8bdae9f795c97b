import numpy as np
import pytest

from paramarket.core import LabeledDataset, LossSpec, ParameterVector, empirical_loss, merge
from paramarket.linear import (
    SingularityError,
    estimation_error,
    gram_lambda_max,
    loss_ratio_bounds,
    spectrum,
    synthesize_task,
)


def pv(*values):
    return ParameterVector(np.array(values, dtype=float))


class TestSynthesizeTask:
    def test_noiseless_truth_has_zero_loss(self):
        task = synthesize_task(4, 20, 0.0, ParameterVector(np.arange(1.0, 5.0)), np.random.default_rng(0))
        assert empirical_loss(task.true_params, task.data) == 0.0

    def test_fixed_seed_is_bitwise_reproducible(self):
        theta = pv(1.0, -1.0, 0.5)
        t1 = synthesize_task(3, 15, 0.3, theta, np.random.default_rng(42))
        t2 = synthesize_task(3, 15, 0.3, theta, np.random.default_rng(42))
        np.testing.assert_array_equal(t1.data.inputs, t2.data.inputs)
        np.testing.assert_array_equal(t1.data.labels, t2.data.labels)

    def test_out_buffer_receives_the_same_draws(self):
        theta = pv(1.0, -1.0, 0.5)
        fresh = synthesize_task(3, 15, 0.3, theta, np.random.default_rng(42))
        buffer = np.zeros((20, 3))
        task = synthesize_task(3, 15, 0.3, theta, np.random.default_rng(42), out=buffer[5:])
        np.testing.assert_array_equal(buffer[5:], fresh.data.inputs)
        np.testing.assert_array_equal(task.data.labels, fresh.data.labels)
        assert not buffer[:5].any()

    def test_endowment_shape(self):
        theta = ParameterVector(np.zeros(1000))
        task = synthesize_task(1000, 500, 0.5, theta, np.random.default_rng(1))
        assert task.data.inputs.shape == (500, 1000)
        assert task.noise_variance == 0.5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            synthesize_task(0, 5, 0.0, pv(1.0), np.random.default_rng(0))
        with pytest.raises(ValueError):
            synthesize_task(2, 5, -1.0, pv(1.0, 2.0), np.random.default_rng(0))


class TestEstimationError:
    def test_zero_iff_equal(self):
        assert estimation_error(pv(1.0, 2.0), pv(1.0, 2.0)) == 0.0
        assert estimation_error(pv(3.0), pv(1.0)) == 4.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(5)
        theta = ParameterVector(rng.standard_normal(6))
        star = ParameterVector(rng.standard_normal(6))
        doubled = ParameterVector(2 * theta.values - star.values)
        assert estimation_error(doubled, star) == pytest.approx(
            4 * estimation_error(theta, star), rel=1e-12
        )


class TestSpectrum:
    def test_orthonormal_columns_are_perfectly_conditioned(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 5)))
        s = spectrum(LabeledDataset(q, np.zeros(20)))
        assert s.rho == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_gram_reads_off_eigenvalues(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        s = spectrum(LabeledDataset(x, np.zeros(2)))
        assert s.lambda_max == pytest.approx(4.0, rel=1e-9)
        assert s.lambda_min == pytest.approx(1.0, rel=1e-9)
        assert s.rho == pytest.approx(4.0, rel=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(6)
        for d in (3, 8, 24, 64):
            x = rng.standard_normal((3 * d, d))
            s = spectrum(LabeledDataset(x, np.zeros(3 * d)))
            eigs = np.linalg.eigvalsh(x.T @ x)
            assert s.lambda_max == pytest.approx(eigs[-1], rel=1e-6)
            assert s.lambda_min == pytest.approx(eigs[0], rel=1e-6)
            assert s.rho == pytest.approx(eigs[-1] / eigs[0], rel=1e-6)

    def test_lambda_max_product_form_agrees(self):
        # Tall, wide and square designs, and a single sample.
        rng = np.random.default_rng(7)
        for n, d in ((40, 10), (10, 40), (25, 25), (1, 12), (1, 1)):
            x = rng.standard_normal((n, d))
            lam = gram_lambda_max(LabeledDataset(x, np.zeros(n)))
            assert lam == pytest.approx(np.linalg.eigvalsh(x.T @ x)[-1], rel=1e-12), (n, d)

    def test_singular_gram_raises(self):
        x = np.random.default_rng(8).standard_normal((3, 5))  # n < d
        with pytest.raises(SingularityError):
            spectrum(LabeledDataset(x, np.zeros(3)))


class TestLossRatioBounds:
    def test_perfect_conditioning_collapses(self):
        assert loss_ratio_bounds(4.0, 1.0, 8.0) == (2.0, 2.0)

    def test_hand_value(self):
        assert loss_ratio_bounds(4.0, 2.0, 8.0) == (1.0, 4.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            loss_ratio_bounds(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            loss_ratio_bounds(1.0, 0.5, 1.0)

    def test_realized_merge_loss_always_inside(self):
        # Noiseless tasks: the interval from the realized error ratio and the
        # condition number must contain the realized post-merge loss.
        rng = np.random.default_rng(9)
        trials = 0
        for _ in range(200):
            d = rng.integers(2, 7)
            theta_star = ParameterVector(rng.standard_normal(d))
            task = synthesize_task(int(d), int(3 * d + 2), 0.0, theta_star, rng)
            s = spectrum(task.data)
            for _ in range(50):
                a = ParameterVector(theta_star.values + rng.standard_normal(d))
                b = ParameterVector(theta_star.values + rng.standard_normal(d))
                merged = merge(a, b, rng.uniform(1e-6, 1.0))
                err_before = estimation_error(a, theta_star)
                err_after = estimation_error(merged, theta_star)
                if err_after <= 1e-30:
                    continue
                gain = err_before / err_after
                loss_before = empirical_loss(a, task.data, LossSpec.SUM_OF_SQUARES)
                loss_after = empirical_loss(merged, task.data, LossSpec.SUM_OF_SQUARES)
                lo, hi = loss_ratio_bounds(gain, s.rho, loss_before)
                assert lo * (1 - 1e-9) <= loss_after <= hi * (1 + 1e-9)
                trials += 1
        assert trials >= 10_000
