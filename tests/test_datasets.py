"""Tests for degree distributions, synthetic generators and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.distributions import degrees_to_pair_sample, log_normal_degrees
from repro.datasets.registry import PROFILES, load_profile, paper_statistics
from repro.datasets.synthetic import (
    SyntheticSpec,
    make_low_rank,
    make_netflix_like,
)
from repro.errors import DataError
from repro.rng import RngFactory


@pytest.fixture
def rng():
    return RngFactory(77).stream("dataset-tests")


class TestLogNormal:
    def test_mean_approximately_matched(self, rng):
        degrees = log_normal_degrees(20000, 40.0, 0.8, rng)
        assert 30.0 < degrees.mean() < 50.0

    def test_min_degree(self, rng):
        degrees = log_normal_degrees(1000, 1.5, 2.0, rng, min_degree=2)
        assert degrees.min() >= 2

    def test_bad_args(self, rng):
        with pytest.raises(DataError):
            log_normal_degrees(0, 5.0, 1.0, rng)
        with pytest.raises(DataError):
            log_normal_degrees(10, -1.0, 1.0, rng)
        with pytest.raises(DataError):
            log_normal_degrees(10, 5.0, -1.0, rng)


class TestPairSample:
    def test_no_duplicates(self, rng):
        rows, cols = degrees_to_pair_sample(
            np.full(50, 10), np.full(100, 5), rng
        )
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert len(pairs) == rows.size

    def test_indices_in_range(self, rng):
        rows, cols = degrees_to_pair_sample(
            np.full(30, 4), np.full(20, 6), rng
        )
        assert rows.max() < 30
        assert cols.max() < 20

    def test_realized_degrees_track_targets(self, rng):
        target = np.full(200, 20)
        rows, cols = degrees_to_pair_sample(target, np.full(100, 40), rng)
        realized = np.bincount(rows, minlength=200)
        # Collisions remove a few ratings; realized should stay close.
        assert abs(realized.mean() - 20) < 4

    def test_bad_args(self, rng):
        with pytest.raises(DataError):
            degrees_to_pair_sample(np.zeros(5, dtype=int), np.full(5, 1), rng)
        with pytest.raises(DataError):
            degrees_to_pair_sample(np.array([-1]), np.array([1]), rng)


class TestMakeLowRank:
    def test_shape_and_coverage(self, rng):
        spec = SyntheticSpec(n_rows=60, n_cols=30, rank=2, density=0.1)
        matrix = make_low_rank(spec, rng)
        assert matrix.shape == (60, 30)
        assert (matrix.row_counts() > 0).all()
        assert (matrix.col_counts() > 0).all()

    def test_density_approximate(self, rng):
        spec = SyntheticSpec(n_rows=100, n_cols=100, rank=2, density=0.1)
        matrix = make_low_rank(spec, rng)
        assert 0.08 < matrix.density < 0.13

    def test_truth_returned(self, rng):
        spec = SyntheticSpec(n_rows=40, n_cols=20, rank=3, density=0.3)
        matrix, w_true, h_true = make_low_rank(spec, rng, return_truth=True)
        assert w_true.shape == (40, 3)
        assert h_true.shape == (20, 3)
        # Observations should be near the planted values (noise 0.1).
        clean = np.einsum(
            "ij,ij->i", w_true[matrix.rows], h_true[matrix.cols]
        )
        residual = matrix.vals - clean
        assert np.abs(residual).mean() < 0.5

    def test_deterministic(self):
        spec = SyntheticSpec(n_rows=50, n_cols=25, rank=2, density=0.2)
        a = make_low_rank(spec, RngFactory(5).stream("d"))
        b = make_low_rank(spec, RngFactory(5).stream("d"))
        assert a == b

    def test_bad_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(n_rows=0, n_cols=5)
        with pytest.raises(DataError):
            SyntheticSpec(n_rows=5, n_cols=5, density=0.0)
        with pytest.raises(DataError):
            SyntheticSpec(n_rows=5, n_cols=5, noise=-0.1)
        with pytest.raises(DataError):
            SyntheticSpec(n_rows=5, n_cols=5, rank=0)


class TestNetflixLike:
    def test_shape_and_coverage(self, rng):
        matrix = make_netflix_like(300, 50, 12.0, rng, rank=4)
        assert matrix.shape == (300, 50)
        assert (matrix.row_counts() > 0).all()
        assert (matrix.col_counts() > 0).all()

    def test_total_ratings_scale_with_users(self, rng):
        small = make_netflix_like(200, 40, 10.0, rng, rank=2)
        large = make_netflix_like(800, 40, 10.0, rng, rank=2)
        assert large.nnz > 2.5 * small.nnz

    def test_heavy_tail_present(self, rng):
        matrix = make_netflix_like(2000, 100, 15.0, rng, degree_sigma=1.3)
        counts = matrix.row_counts()
        assert counts.max() > 4 * counts.mean()

    def test_bad_args(self, rng):
        with pytest.raises(DataError):
            make_netflix_like(0, 10, 5.0, rng)
        with pytest.raises(DataError):
            make_netflix_like(10, 10, -5.0, rng)


class TestRegistry:
    def test_three_profiles(self):
        assert set(PROFILES) == {"netflix", "yahoo", "hugewiki"}

    def test_ratings_per_item_ordering_preserved(self):
        # The paper's defining ordering: yahoo << netflix << hugewiki.
        surrogate = {
            name: profile.expected_ratings_per_item
            for name, profile in PROFILES.items()
        }
        assert surrogate["yahoo"] < surrogate["netflix"] < surrogate["hugewiki"]
        paper = {
            name: profile.paper_ratings_per_item
            for name, profile in PROFILES.items()
        }
        assert paper["yahoo"] < paper["netflix"] < paper["hugewiki"]

    def test_load_profile_generates_expected_shape(self):
        profile, matrix = load_profile("netflix", RngFactory(0).stream("x"))
        assert matrix.shape == (profile.rows, profile.cols)
        assert abs(matrix.nnz - profile.expected_nnz) / profile.expected_nnz < 0.1

    def test_load_profile_row_scale(self):
        profile, matrix = load_profile(
            "netflix", RngFactory(0).stream("x"), row_scale=0.5
        )
        assert matrix.n_rows == PROFILES["netflix"].rows // 2

    def test_unknown_profile(self):
        with pytest.raises(DataError, match="unknown"):
            load_profile("movielens", RngFactory(0).stream("x"))

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(DataError):
            PROFILES["netflix"].scaled(0)

    def test_paper_statistics_rows(self):
        stats = paper_statistics()
        assert len(stats) == 3
        netflix = next(r for r in stats if r["name"] == "netflix")
        assert netflix["paper_nnz"] == 99_072_112
