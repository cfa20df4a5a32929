"""Tests for factors, losses, regularizers, objective, and kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ratings import RatingMatrix
from repro.errors import ConfigError
from repro.linalg.factors import FactorPair, init_factors
from repro.linalg.backends import ListBackend
from repro.linalg.kernels import (
    als_solve_row,
    ccd_coordinate_update,
    sgd_update_pair,
)
from repro.linalg.losses import AbsoluteLoss, HuberLoss, SquaredLoss
from repro.linalg.objective import predict, regularized_objective, training_sse
from repro.linalg.objective import test_rmse as compute_test_rmse
from repro.linalg.regularizers import PlainL2, WeightedL2
from repro.rng import RngFactory

LIST = ListBackend()


@pytest.fixture
def rng():
    return RngFactory(11).stream("linalg")


class TestFactors:
    def test_init_range(self, rng):
        factors = init_factors(50, 30, 16, rng)
        bound = 1.0 / np.sqrt(16)
        assert factors.w.min() >= 0.0
        assert factors.w.max() <= bound
        assert factors.h.max() <= bound

    def test_init_shapes(self, rng):
        factors = init_factors(50, 30, 8, rng)
        assert factors.w.shape == (50, 8)
        assert factors.h.shape == (30, 8)
        assert factors.k == 8
        assert factors.n_rows == 50
        assert factors.n_cols == 30

    def test_snapshot_decoupled(self, rng):
        factors = init_factors(5, 5, 2, rng)
        snap = factors.snapshot()
        factors.w[0, 0] = 99.0
        assert snap.w[0, 0] != 99.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            FactorPair(np.zeros((3, 2)), np.zeros((3, 4)))

    def test_bad_init_args(self, rng):
        with pytest.raises(ConfigError):
            init_factors(0, 5, 2, rng)
        with pytest.raises(ConfigError):
            init_factors(5, 5, 0, rng)

    def test_initial_prediction_scale_independent_of_k(self, rng):
        # E[<w,h>] = k * (1/(2 sqrt(k)))^2 = 1/4 regardless of k.
        for k in (4, 16, 64):
            factors = init_factors(400, 400, k, rng)
            mean_pred = float(
                np.mean(np.sum(factors.w[:100] * factors.h[:100], axis=1))
            )
            assert 0.15 < mean_pred < 0.35


class TestLosses:
    def test_squared_value(self):
        loss = SquaredLoss()
        assert loss.value(np.array([3.0]), np.array([1.0]))[0] == pytest.approx(2.0)

    def test_squared_gradient_sign(self):
        loss = SquaredLoss()
        assert loss.dloss_dpred(rating=2.0, prediction=5.0) == pytest.approx(3.0)
        assert loss.dloss_dpred(rating=5.0, prediction=2.0) == pytest.approx(-3.0)

    def test_absolute_gradient(self):
        loss = AbsoluteLoss()
        assert loss.dloss_dpred(1.0, 2.0) == 1.0
        assert loss.dloss_dpred(2.0, 1.0) == -1.0
        assert loss.dloss_dpred(1.0, 1.0) == 0.0

    def test_huber_transitions(self):
        loss = HuberLoss(delta=1.0)
        # quadratic region
        assert loss.dloss_dpred(0.0, 0.5) == pytest.approx(0.5)
        # linear region clamps
        assert loss.dloss_dpred(0.0, 5.0) == pytest.approx(1.0)
        assert loss.dloss_dpred(5.0, 0.0) == pytest.approx(-1.0)

    def test_huber_value_continuity(self):
        loss = HuberLoss(delta=1.0)
        just_below = loss.value(np.array([0.0]), np.array([0.999]))[0]
        just_above = loss.value(np.array([0.0]), np.array([1.001]))[0]
        assert abs(just_above - just_below) < 0.01

    def test_huber_bad_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(delta=0.0)


class TestRegularizers:
    def test_weighted_penalty_formula(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        h = np.array([[3.0, 0.0]])
        row_counts = np.array([2, 1])
        col_counts = np.array([3])
        reg = WeightedL2(0.5)
        expected = 0.5 * 0.5 * (2 * 1.0 + 1 * 4.0 + 3 * 9.0)
        assert reg.penalty(w, h, row_counts, col_counts) == pytest.approx(expected)

    def test_weighted_sgd_coefficient_constant(self):
        reg = WeightedL2(0.3)
        assert reg.sgd_coefficient_row(5) == 0.3
        assert reg.sgd_coefficient_col(50) == 0.3

    def test_plain_penalty(self):
        w = np.ones((2, 2))
        h = np.ones((1, 2))
        reg = PlainL2(1.0)
        assert reg.penalty(w, h, np.array([1, 1]), np.array([2])) == pytest.approx(3.0)

    def test_plain_sgd_coefficient_scales(self):
        reg = PlainL2(1.0)
        assert reg.sgd_coefficient_row(4) == pytest.approx(0.25)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            WeightedL2(-0.1)
        with pytest.raises(ValueError):
            PlainL2(-0.1)


class TestObjective:
    def make_data(self):
        matrix = RatingMatrix(
            2, 2,
            rows=np.array([0, 1]),
            cols=np.array([0, 1]),
            vals=np.array([1.0, 2.0]),
        )
        factors = FactorPair(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        return matrix, factors

    def test_predict(self):
        matrix, factors = self.make_data()
        predictions = predict(factors, matrix.rows, matrix.cols)
        assert predictions.tolist() == [1.0, 1.0]

    def test_rmse(self):
        matrix, factors = self.make_data()
        # errors: 0 and 1 -> rmse = sqrt(1/2)
        assert compute_test_rmse(factors, matrix) == pytest.approx(np.sqrt(0.5))

    def test_training_sse(self):
        matrix, factors = self.make_data()
        assert training_sse(factors, matrix) == pytest.approx(1.0)

    def test_objective_with_zero_lambda_is_half_sse(self):
        matrix, factors = self.make_data()
        objective = regularized_objective(factors, matrix, lambda_=0.0)
        assert objective == pytest.approx(0.5 * training_sse(factors, matrix))

    def test_objective_penalty_added(self):
        matrix, factors = self.make_data()
        plain = regularized_objective(factors, matrix, lambda_=0.0)
        with_reg = regularized_objective(factors, matrix, lambda_=1.0)
        assert with_reg > plain


class TestSGDKernels:
    def test_update_pair_moves_toward_rating(self):
        w = np.array([0.5, 0.5])
        h = np.array([0.5, 0.5])
        before = abs(np.dot(w, h) - 3.0)
        for _ in range(50):
            sgd_update_pair(w, h, rating=3.0, step=0.05, lambda_=0.0)
        after = abs(np.dot(w, h) - 3.0)
        assert after < before * 0.1

    def test_process_column_counts_incremented(self):
        w = np.random.rand(4, 2)
        h = np.random.rand(2)
        counts = np.zeros(3, dtype=np.int64)
        applied = LIST.process_column(
            w, h, np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]),
            counts, 0.1, 0.01, 0.0,
        )
        assert applied == 3
        assert counts.tolist() == [1, 1, 1]

    def test_fast_column_kernel_matches_ndarray_kernel(self):
        """The reference over ndarray factors gives the bits it gives
        over nested lists."""
        rng = np.random.default_rng(0)
        w_nd = rng.random((6, 4))
        h_nd = rng.random(4)
        rows = np.array([0, 2, 4, 2])
        vals = rng.random(4)
        counts_nd = np.zeros(4, dtype=np.int64)
        LIST.process_column(w_nd, h_nd, rows, vals, counts_nd, 0.1, 0.02, 0.05)

        w_fast = rng.random((6, 4))  # regenerate identical start
        rng2 = np.random.default_rng(0)
        w_fast = rng2.random((6, 4))
        h_fast = rng2.random(4)
        w_lists = w_fast.tolist()
        h_list = h_fast.tolist()
        counts_fast = [0, 0, 0, 0]
        LIST.process_column(
            w_lists, h_list, rows.tolist(), vals.tolist(), counts_fast,
            0.1, 0.02, 0.05,
        )
        assert np.array_equal(np.asarray(w_lists), w_nd)
        assert np.array_equal(np.asarray(h_list), h_nd)
        assert counts_fast == counts_nd.tolist()

    def test_fast_entries_kernel_matches_ndarray_kernel(self):
        """Likewise for the entries variant, counters included."""
        rng = np.random.default_rng(1)
        w0 = rng.random((5, 3))
        h0 = rng.random((4, 3))
        rows = np.array([0, 1, 2, 3, 4, 0])
        cols = np.array([0, 1, 2, 3, 0, 1])
        vals = rng.random(6)
        order = np.array([5, 0, 3, 1, 4, 2])

        w_nd, h_nd = w0.copy(), h0.copy()
        counts_nd = np.zeros(6, dtype=np.int64)
        LIST.process_entries(
            w_nd, h_nd, rows, cols, vals, counts_nd, 0.1, 0.01, 0.02, order
        )

        w_lists, h_lists = w0.tolist(), h0.tolist()
        counts_fast = [0] * 6
        LIST.process_entries(
            w_lists, h_lists, rows.tolist(), cols.tolist(), vals.tolist(),
            counts_fast, 0.1, 0.01, 0.02, order.tolist(),
        )
        assert np.array_equal(np.asarray(w_lists), w_nd)
        assert np.array_equal(np.asarray(h_lists), h_nd)
        assert counts_fast == counts_nd.tolist()

    def test_const_step_kernel_reduces_error(self):
        rng = np.random.default_rng(2)
        w = rng.random((10, 3)).tolist()
        h = rng.random((8, 3)).tolist()
        rows = list(range(10)) * 2
        cols = [i % 8 for i in range(20)]
        vals = [1.0] * 20
        def sse():
            w_nd, h_nd = np.asarray(w), np.asarray(h)
            preds = np.einsum("ij,ij->i", w_nd[rows], h_nd[cols])
            return float(np.sum((np.asarray(vals) - preds) ** 2))
        before = sse()
        for _ in range(30):
            LIST.process_entries_const(
                w, h, rows, cols, vals, 0.05, 0.0, list(range(20))
            )
        assert sse() < before * 0.2

    def test_step_size_schedule_decays_in_kernel(self):
        # With beta > 0, later visits take smaller steps: run the same
        # column twice and check the second pass changes h less.
        w = np.ones((1, 2)) * 0.5
        h_first = [0.5, 0.5]
        counts = [0]
        w_l = w.tolist()
        LIST.process_column(w_l, h_first, [0], [5.0], counts, 0.1, 10.0, 0.0)
        delta_first = abs(h_first[0] - 0.5)
        h_second = list(h_first)
        before = h_second[0]
        LIST.process_column(w_l, h_second, [0], [5.0], counts, 0.1, 10.0, 0.0)
        delta_second = abs(h_second[0] - before)
        assert delta_second < delta_first

    def test_empty_entries_noop(self):
        assert LIST.process_entries([], [], [], [], [], [], 0.1, 0, 0, []) == 0
        assert (
            LIST.process_entries_const([], [], [], [], [], 0.1, 0, []) == 0
        )


class TestALSKernel:
    def test_exact_solution_recovered(self):
        rng = np.random.default_rng(3)
        h_sub = rng.random((20, 4))
        w_true = rng.random(4)
        ratings = h_sub @ w_true
        solved = als_solve_row(h_sub, ratings, lambda_=0.0, weight=1)
        assert np.allclose(solved, w_true, atol=1e-8)

    def test_regularization_shrinks(self):
        rng = np.random.default_rng(4)
        h_sub = rng.random((10, 3))
        ratings = rng.random(10)
        loose = als_solve_row(h_sub, ratings, lambda_=0.0, weight=1)
        tight = als_solve_row(h_sub, ratings, lambda_=10.0, weight=10)
        assert np.linalg.norm(tight) < np.linalg.norm(loose)

    def test_weight_scales_regularization(self):
        rng = np.random.default_rng(5)
        h_sub = rng.random((10, 3))
        ratings = rng.random(10)
        light = als_solve_row(h_sub, ratings, lambda_=0.1, weight=1)
        heavy = als_solve_row(h_sub, ratings, lambda_=0.1, weight=100)
        assert np.linalg.norm(heavy) < np.linalg.norm(light)


class TestCCDKernel:
    def test_optimal_coordinate(self):
        # One row with residual R and coords v: optimum of the rank-1 fit.
        residual = np.array([1.0, 2.0])
        v = np.array([1.0, 1.0])
        new_u, new_residual = ccd_coordinate_update(
            residual, own_coord=0.0, other_coords=v, lambda_=0.0, weight=1
        )
        assert new_u == pytest.approx(1.5)
        assert np.allclose(new_residual, residual - 1.5 * v)

    def test_residual_invariant(self):
        # R + u*v must be unchanged by the update (definition of residual).
        rng = np.random.default_rng(6)
        residual = rng.random(5)
        v = rng.random(5)
        u_old = 0.7
        u_new, r_new = ccd_coordinate_update(residual, u_old, v, 0.1, 3)
        assert np.allclose(r_new + u_new * v, residual + u_old * v)

    def test_zero_denominator_safe(self):
        u, r = ccd_coordinate_update(
            np.array([1.0]), 0.5, np.array([0.0]), lambda_=0.0, weight=0
        )
        assert u == 0.0
