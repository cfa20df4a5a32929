"""Tests for step-size schedules and the bold driver."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.schedules.bold_driver import BoldDriver
from repro.schedules.step_size import NomadSchedule


class TestNomadSchedule:
    def test_equation_eleven(self):
        schedule = NomadSchedule(alpha=0.012, beta=0.05)
        for t in (0, 1, 10, 100):
            expected = 0.012 / (1 + 0.05 * t ** 1.5)
            assert schedule.step(t) == pytest.approx(expected)

    def test_t_zero_equals_alpha(self):
        assert NomadSchedule(0.3, 0.1).step(0) == pytest.approx(0.3)

    def test_monotone_decreasing(self):
        schedule = NomadSchedule(0.1, 0.01)
        steps = [schedule.step(t) for t in range(0, 200, 10)]
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_zero_beta_constant(self):
        schedule = NomadSchedule(0.05, 0.0)  # Hugewiki's paper setting
        assert schedule.step(0) == schedule.step(10**6) == pytest.approx(0.05)

    def test_callable(self):
        schedule = NomadSchedule(0.1, 0.1)
        assert schedule(3) == schedule.step(3)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            NomadSchedule(0.1, 0.1).step(-1)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            NomadSchedule(0.0, 0.1)
        with pytest.raises(ConfigError):
            NomadSchedule(0.1, -0.1)

    def test_decay_faster_than_inverse_time(self):
        nomad = NomadSchedule(0.1, 0.01)
        inverse_time = 0.1 / (1.0 + 0.01 * 10_000)  # Robbins–Monro
        assert nomad.step(10_000) < inverse_time


class TestBoldDriver:
    def test_grows_on_decrease(self):
        driver = BoldDriver(initial_step=0.1, grow=1.1, shrink=0.5)
        driver.observe(10.0)  # baseline
        step = driver.observe(9.0)
        assert step == pytest.approx(0.11)

    def test_shrinks_on_increase(self):
        driver = BoldDriver(initial_step=0.1, grow=1.1, shrink=0.5)
        driver.observe(10.0)
        step = driver.observe(11.0)
        assert step == pytest.approx(0.05)

    def test_first_observation_no_change(self):
        driver = BoldDriver(initial_step=0.1)
        assert driver.observe(42.0) == pytest.approx(0.1)

    def test_divergence_punished(self):
        driver = BoldDriver(initial_step=0.1, shrink=0.5)
        driver.observe(10.0)
        step = driver.observe(math.inf)
        assert step == pytest.approx(0.05)
        # And the baseline resets: a subsequent finite value is accepted
        # without growth or shrink applied twice.
        step = driver.observe(100.0)
        assert step == pytest.approx(0.05)

    def test_equal_objective_counts_as_decrease(self):
        driver = BoldDriver(initial_step=0.1, grow=2.0)
        driver.observe(5.0)
        assert driver.observe(5.0) == pytest.approx(0.2)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            BoldDriver(initial_step=0.0)
        with pytest.raises(ConfigError):
            BoldDriver(initial_step=0.1, grow=0.9)
        with pytest.raises(ConfigError):
            BoldDriver(initial_step=0.1, shrink=1.5)

    def test_repr(self):
        assert "BoldDriver" in repr(BoldDriver(initial_step=0.1))
