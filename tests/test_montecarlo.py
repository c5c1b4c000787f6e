"""Sampler checks: determinism, support, and agreement with exact counts."""

import math

import pytest

from pathdom import (
    SampleConfig,
    expected_gamma_path,
    normalize,
    path_census,
    sample_gamma,
)
from pathdom.errors import ResourceLimitError


def test_two_path_is_degenerate():
    hist = sample_gamma(SampleConfig(n=2, samples=1000, seed=5))
    assert hist.bins == {1: 1000}
    assert hist.mean == 1.0
    assert hist.variance == 0.0


def test_three_path_mean_near_exact():
    hist = sample_gamma(SampleConfig(n=3, samples=60_000, seed=11))
    assert abs(hist.mean - float(expected_gamma_path(3))) < 0.02


def test_identical_configs_identical_histograms():
    config = SampleConfig(n=50, samples=3000, seed=123)
    assert sample_gamma(config) == sample_gamma(config)


def test_worker_count_does_not_change_output():
    base = sample_gamma(SampleConfig(n=40, samples=9000, seed=77))
    split = sample_gamma(SampleConfig(n=40, samples=9000, seed=77, workers=3))
    assert base.bins == split.bins
    assert base.mean == split.mean


def test_different_seeds_differ():
    a = sample_gamma(SampleConfig(n=30, samples=5000, seed=1))
    b = sample_gamma(SampleConfig(n=30, samples=5000, seed=2))
    assert a.bins != b.bins


@pytest.mark.parametrize("n", [5, 17, 100])
def test_support_within_bounds(n):
    hist = sample_gamma(SampleConfig(n=n, samples=4000, seed=3))
    assert hist.min_gamma >= (n + 2) // 3
    assert hist.max_gamma <= (n + 1) // 2
    assert sum(hist.bins.values()) == hist.total == 4000


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_frequencies_match_exact_distribution(n):
    census = path_census(n)
    hist = sample_gamma(SampleConfig(n=n, samples=100_000, seed=99))
    for size, count in census.distribution().items():
        p = count / census.total
        se = math.sqrt(p * (1 - p) / hist.total)
        emp = hist.bins.get(size, 0) / hist.total
        assert abs(emp - p) <= 5 * se


class TestNormalize:
    def test_per_vertex_degenerate(self):
        hist = sample_gamma(SampleConfig(n=2, samples=500, seed=4))
        assert normalize(hist, "per_vertex") == [(0.5, 1.0)]

    def test_per_vertex_range(self):
        hist = sample_gamma(SampleConfig(n=90, samples=5000, seed=21))
        points = normalize(hist, "per_vertex")
        assert all(1 / 3 <= x <= 1 / 2 for x, _ in points)
        assert abs(sum(w for _, w in points) - 1.0) < 1e-12

    def test_centered_mean_near_zero(self):
        samples = 20_000
        hist = sample_gamma(SampleConfig(n=60, samples=samples, seed=8))
        points = normalize(hist, "centered")
        mean = sum(x * w for x, w in points)
        tolerance = 10 * (hist.std_dev / math.sqrt(samples)) / 60
        assert abs(mean) <= tolerance

    def test_unknown_mode_rejected(self):
        hist = sample_gamma(SampleConfig(n=5, samples=100, seed=1))
        with pytest.raises(ValueError):
            normalize(hist, "log")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "samples": 10, "seed": 1},
            {"n": 5, "samples": 0, "seed": 1},
            {"n": 5, "samples": 10, "seed": -1},
            {"n": 5, "samples": 10, "seed": 2**64},
            {"n": 5, "samples": 10, "seed": 1, "workers": 0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SampleConfig(**kwargs)

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError, match="budget"):
            sample_gamma(SampleConfig(n=10**6, samples=10**6, seed=0))

    def test_budget_overridable(self):
        hist = sample_gamma(SampleConfig(n=10, samples=20, seed=0, budget=200))
        assert hist.total == 20


def test_histogram_json_fields():
    hist = sample_gamma(SampleConfig(n=12, samples=400, seed=6))
    doc = hist.to_json_dict()
    assert set(doc) == {"n", "samples", "seed", "mean", "variance", "min", "max"}
    assert doc["samples"] == 400
