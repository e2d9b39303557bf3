"""Unit and property tests for repro.utils.rng and repro.utils.stats."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, derive_seed
from repro.utils.stats import (
    RunningStat,
    confidence_interval_95,
    geometric_mean,
    histogram,
    mean,
    population_stdev,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "core", 3) == derive_seed(1, "core", 3)

    def test_label_sensitivity(self):
        assert derive_seed(1, "core", 3) != derive_seed(1, "core", 4)
        assert derive_seed(1, "core") != derive_seed(1, "filter")

    def test_master_sensitivity(self):
        assert derive_seed(1, "core") != derive_seed(2, "core")

    def test_order_sensitivity(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_rng_streams_independent(self):
        rng_a = derive_rng(9, "a")
        rng_b = derive_rng(9, "b")
        assert [rng_a.random() for _ in range(5)] != [
            rng_b.random() for _ in range(5)
        ]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_seed_in_range(self, master):
        assert 0 <= derive_seed(master, "x") < 2**64


class TestMeanStdev:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_constant(self):
        assert population_stdev([5.0, 5.0, 5.0]) == 0.0

    def test_stdev_known(self):
        assert population_stdev([2.0, 4.0]) == pytest.approx(1.0)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=20))
    def test_bounded_by_min_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-12 <= gm <= max(values) + 1e-12


class TestConfidenceInterval:
    def test_single_sample(self):
        mu, half = confidence_interval_95([4.0])
        assert mu == 4.0 and half == 0.0

    def test_symmetric_samples(self):
        mu, half = confidence_interval_95([1.0, 3.0])
        assert mu == 2.0
        assert half == pytest.approx(1.96 * math.sqrt(2.0 / 2))


class TestHistogram:
    def test_counts(self):
        assert histogram([1, 2, 2, 3, 3, 3]) == {1: 1, 2: 2, 3: 3}

    def test_sorted_keys(self):
        keys = list(histogram([5, 1, 3, 1]).keys())
        assert keys == sorted(keys)


class TestRunningStat:
    def test_matches_batch(self):
        values = [1.5, 2.5, -3.0, 4.0, 0.0]
        stat = RunningStat()
        for v in values:
            stat.add(v)
        assert stat.count == len(values)
        assert stat.mean == pytest.approx(mean(values))
        assert stat.stdev == pytest.approx(population_stdev(values))
        assert stat.minimum == min(values)
        assert stat.maximum == max(values)

    def test_empty(self):
        stat = RunningStat()
        assert stat.mean == 0.0 and stat.variance == 0.0
