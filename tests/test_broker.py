import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paramarket.broker import (
    WEIGHT_FLOOR,
    GainKind,
    MergeProposal,
    PerfectMergeError,
    fedavg_weight,
    gain_error_ratio,
    gain_loss_difference,
    optimize_merge_weight_searched,
)
from paramarket.core import LabeledDataset, LossSpec, ParameterVector, empirical_loss, merge
from paramarket.engine import LinearBrokerEngine
from paramarket.linear import synthesize_task


def pv(*values):
    return ParameterVector(np.array(values, dtype=float))


def propose(buyer, seller, data):
    """The linear broker's try-before-purchase merge on sum-of-squares loss."""
    engine = LinearBrokerEngine(data, LossSpec.SUM_OF_SQUARES, GainKind.LOSS_DIFFERENCE, None)
    return engine.begin_round({"buyer": buyer, "seller": seller}).propose("buyer", "seller")


def loss_difference(dot, merged, data):
    """Loss-difference gain of replacing ``dot`` by ``merged`` on sum-of-squares loss."""
    proposal = MergeProposal(
        weight=1.0,
        merged=merged,
        broker_loss_before=empirical_loss(dot, data, LossSpec.SUM_OF_SQUARES),
        broker_loss_after=empirical_loss(merged, data, LossSpec.SUM_OF_SQUARES),
    )
    return gain_loss_difference(proposal)


class TestOptimizeMergeWeight:
    def test_seller_at_truth_gets_full_weight(self):
        rng = np.random.default_rng(0)
        truth = ParameterVector(rng.standard_normal(5))
        task = synthesize_task(5, 40, 0.0, truth, rng)
        buyer = ParameterVector(truth.values + rng.standard_normal(5))
        p = propose(buyer, truth, task.data)
        assert p.weight == 1.0
        assert p.broker_loss_after == pytest.approx(0.0, abs=1e-18)

    def test_closed_form_hand_value(self):
        data = LabeledDataset(np.array([[1.0]]), np.array([1.0]))
        p = propose(pv(0.0), pv(2.0), data)
        assert p.weight == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(p.merged.values, [1.0])
        assert p.broker_loss_after == pytest.approx(0.0, abs=1e-18)

    def test_degenerate_identical_parties(self):
        data = LabeledDataset(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
        p = propose(pv(3.0), pv(3.0), data)
        assert p.weight == WEIGHT_FLOOR
        assert p.broker_loss_after == pytest.approx(p.broker_loss_before, rel=1e-9)

    def test_dominates_fine_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            truth = ParameterVector(rng.standard_normal(4))
            task = synthesize_task(4, 30, 0.1, truth, rng)
            buyer = ParameterVector(rng.standard_normal(4))
            seller = ParameterVector(rng.standard_normal(4))
            p = propose(buyer, seller, task.data)
            for nu in np.arange(1e-3, 1.0 + 1e-12, 1e-3):
                grid_loss = empirical_loss(merge(buyer, seller, float(nu)), task.data)
                assert p.broker_loss_after <= grid_loss + 1e-9 * (1 + grid_loss)

    def test_never_worse_than_midpoint(self):
        rng = np.random.default_rng(2)
        truth = ParameterVector(rng.standard_normal(3))
        task = synthesize_task(3, 20, 0.0, truth, rng)
        buyer = ParameterVector(rng.standard_normal(3))
        seller = ParameterVector(rng.standard_normal(3))
        p = propose(buyer, seller, task.data)
        assert p.broker_loss_after <= empirical_loss(merge(buyer, seller, 0.5), task.data)

    def test_searched_variant_matches_quadratic_optimum(self):
        rng = np.random.default_rng(3)
        truth = ParameterVector(rng.standard_normal(3))
        task = synthesize_task(3, 25, 0.0, truth, rng)
        buyer = ParameterVector(rng.standard_normal(3))
        seller = ParameterVector(rng.standard_normal(3))
        closed = propose(buyer, seller, task.data)
        searched_w, searched_loss = optimize_merge_weight_searched(
            lambda w: empirical_loss(merge(buyer, seller, w), task.data)
        )
        assert searched_loss == pytest.approx(closed.broker_loss_after, rel=1e-6, abs=1e-12)
        assert searched_w == pytest.approx(closed.weight, abs=1e-4)


class TestGains:
    def test_loss_difference_zero_for_identical(self):
        data = LabeledDataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        g = loss_difference(pv(0.0), pv(0.0), data)
        assert g.value == 0.0 and not g.trade_beneficial

    def test_loss_difference_hand_value_and_antisymmetry(self):
        data = LabeledDataset(np.array([[1.0]]), np.array([0.0]))
        dot, merged = pv(np.sqrt(5.0)), pv(np.sqrt(2.0))
        g = loss_difference(dot, merged, data)
        assert g.value == pytest.approx(3.0, rel=1e-12) and g.trade_beneficial
        g_back = loss_difference(merged, dot, data)
        assert g_back.value == pytest.approx(-g.value, rel=1e-12)

    def test_error_ratio_values(self):
        star = pv(0.0)
        assert gain_error_ratio(pv(1.0), pv(1.0), star).value == 1.0
        g = gain_error_ratio(pv(2.0), pv(1.0), star)
        assert g.value == 4.0 and g.trade_beneficial

    def test_error_ratio_perfect_merge_signals(self):
        with pytest.raises(PerfectMergeError):
            gain_error_ratio(pv(2.0), pv(0.0), pv(0.0))

    def test_gain_notions_agree_on_isotropic_noiseless_broker(self):
        # With orthonormal broker columns the broker loss is exactly the
        # estimation error, so the two gain notions must agree in sign.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        star = ParameterVector(rng.standard_normal(6))
        data = LabeledDataset(q, q @ star.values)
        for _ in range(200):
            dot = ParameterVector(star.values + rng.standard_normal(6))
            merged = ParameterVector(star.values + rng.standard_normal(6))
            diff = loss_difference(dot, merged, data)
            ratio = gain_error_ratio(dot, merged, star)
            assert diff.trade_beneficial == ratio.trade_beneficial


class TestFedavgWeight:
    def test_equal_endowments_give_half(self):
        assert fedavg_weight(500, 500) == 0.5

    def test_hand_value(self):
        assert fedavg_weight(100, 300) == 0.75

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_directions_sum_to_one(self, n_a, n_b):
        assert fedavg_weight(n_a, n_b) + fedavg_weight(n_b, n_a) == pytest.approx(1.0)

    def test_rejects_empty_endowment(self):
        with pytest.raises(ValueError):
            fedavg_weight(0, 5)

    def test_fedavg_weight_weakly_dominated_by_optimizer(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            truth = ParameterVector(rng.standard_normal(4))
            task = synthesize_task(4, 30, 0.0, truth, rng)
            buyer = ParameterVector(rng.standard_normal(4))
            seller = ParameterVector(rng.standard_normal(4))
            w = fedavg_weight(int(rng.integers(1, 500)), int(rng.integers(1, 500)))
            p = propose(buyer, seller, task.data)
            fixed = empirical_loss(merge(buyer, seller, w), task.data)
            assert p.broker_loss_after <= fixed + 1e-12 * (1 + fixed)
