"""Tests for the bold-driver step-size schedule."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.schedules.bold_driver import BoldDriver


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
