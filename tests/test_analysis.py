"""Tests for repro.analysis: bounds, fitting, statistics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.bounds import (
    collusion_lower_bound,
    collusion_upper_bound,
    congos_upper_bound,
    groupgossip_upper_bound,
    strong_confidentiality_lower_bound,
    theorem1_expected_pairs,
)
from repro.analysis.fitting import fit_power_law, fit_with_polylog
from repro.analysis.stats import (
    all_runs_hold,
    binomial_upper_p,
    summarize,
)


class TestBounds:
    def test_congos_bound_decreases_with_deadline(self):
        """Theorem 11: longer dmin means cheaper rounds."""
        short = congos_upper_bound(64, 64)
        long = congos_upper_bound(64, 4096)
        assert short > long

    def test_congos_bound_near_linear_for_long_deadlines(self):
        n = 1024
        bound = congos_upper_bound(n, 10 ** 9, polylog_power=0)
        assert bound < 3 * n  # two ~n terms, no polylog

    def test_collusion_bound_is_tau_squared(self):
        base = congos_upper_bound(64, 256)
        assert collusion_upper_bound(64, 256, tau=3) == pytest.approx(9 * base)

    def test_strong_lb_shape(self):
        assert strong_confidentiality_lower_bound(
            64, 64, epsilon=0.5
        ) == pytest.approx(64 / 64)  # n^1 / dmax

    def test_collusion_lb_min_of_terms(self):
        small_tau = collusion_lower_bound(256, 1, tau=1)
        assert small_tau == pytest.approx(256.0)
        big_tau = collusion_lower_bound(256, 1, tau=10 ** 6, epsilon=0.5)
        assert big_tau == pytest.approx(256.0)

    def test_groupgossip_bound(self):
        assert groupgossip_upper_bound(64, 216, polylog_power=0) == pytest.approx(
            64 ** 2.0
        )

    def test_theorem1_pairs(self):
        pairs = theorem1_expected_pairs(64, 8)
        x = 64 ** 0.25
        assert pairs == pytest.approx(63 * x)

    def test_validation(self):
        with pytest.raises(ValueError):
            congos_upper_bound(64, 0)
        with pytest.raises(ValueError):
            collusion_upper_bound(64, 64, tau=0)
        with pytest.raises(ValueError):
            strong_confidentiality_lower_bound(64, 64, epsilon=2.0)


class TestFitting:
    def test_recovers_exact_power_law(self):
        xs = [16, 32, 64, 128]
        ys = [3 * x ** 1.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.5)
        assert fit.scale == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_tolerated(self):
        xs = [16, 32, 64, 128, 256]
        ys = [x ** 2 * (1.1 if i % 2 else 0.9) for i, x in enumerate(xs)]
        fit = fit_power_law(xs, ys)
        assert 1.8 <= fit.exponent <= 2.2

    def test_polylog_divided_out(self):
        xs = [16, 32, 64, 128]
        ys = [x ** 1.2 * math.log2(x) ** 2 for x in xs]
        fit = fit_with_polylog(xs, ys, polylog_power=2.0)
        assert fit.exponent == pytest.approx(1.2, abs=0.02)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_positive_data_required(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([2, 2], [1, 2])


@given(
    exponent=st.floats(min_value=0.5, max_value=3.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_fit_recovers_parameters_property(exponent, scale):
    xs = [8.0, 16.0, 32.0, 64.0]
    ys = [scale * x ** exponent for x in xs]
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(exponent, abs=1e-6)
    assert fit.scale == pytest.approx(scale, rel=1e-6)


class TestStats:
    def test_summarize(self):
        summary = summarize([1, 2, 3, 4])
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1
        assert summary.maximum == 4
        assert summary.count == 4

    def test_summarize_odd_median(self):
        assert summarize([5, 1, 3]).median == 3

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_all_runs_hold(self):
        assert all_runs_hold([True, True])
        assert not all_runs_hold([True, False])

    def test_binomial_upper(self):
        assert binomial_upper_p(10, 10) == pytest.approx(1 / 11)
        assert binomial_upper_p(9, 10) == pytest.approx(2 / 11)

    def test_binomial_validation(self):
        with pytest.raises(ValueError):
            binomial_upper_p(5, 0)
