"""Unit tests for repro.simulation.metrics."""

from __future__ import annotations

import math
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.simulation.metrics import WaitingTimeCollector, summarize


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        # Sample std of 1..4 = sqrt(5/3).
        assert stats.std == pytest.approx(math.sqrt(5.0 / 3.0))

    def test_ci_halfwidth(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0], z_value=2.0)
        assert stats.ci_halfwidth == pytest.approx(2.0 * stats.std / 2.0)
        assert stats.ci_low == pytest.approx(stats.mean - stats.ci_halfwidth)
        assert stats.ci_high == pytest.approx(stats.mean + stats.ci_halfwidth)

    def test_contains(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.contains(stats.mean)
        assert not stats.contains(stats.mean + 10 * stats.ci_halfwidth + 1)

    def test_single_sample(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.ci_halfwidth == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize(
        "samples",
        [[1.0, math.nan, 0.0], [math.nan, 1.0, 0.0], [0.0, 1.0, math.nan],
         [1.0, math.inf, 0.0], [-math.inf, 1.0], [math.nan]],
    )
    def test_non_finite_rejected_in_any_position(self, samples):
        with pytest.raises(ValueError, match="non-finite"):
            summarize(samples)

    @pytest.mark.parametrize("count", [1, 2, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_block_edges_match_scalar_formula(self, count):
        samples = np.random.default_rng(count).uniform(0.0, 50.0, count).tolist()
        stats = summarize(samples)
        mean = math.fsum(samples) / count
        assert stats.count == count
        assert stats.mean == mean
        assert stats.minimum == min(samples)
        assert stats.maximum == max(samples)
        if count == 1:
            assert stats.std == 0.0
        else:
            # Bit for bit: exact fsum of correctly rounded squares.
            squares = math.fsum((x - mean) * (x - mean) for x in samples)
            assert stats.std == math.sqrt(squares / (count - 1))

    def test_list_array_and_ndarray_inputs_agree(self):
        samples = np.random.default_rng(7).exponential(20.0, 10_000).tolist()
        expected = summarize(samples)
        assert summarize(array("d", samples)) == expected
        assert summarize(np.array(samples)) == expected

    @pytest.mark.parametrize("kind", ["array", "ndarray"])
    def test_temporaries_stay_bounded(self, kind):
        values = np.random.default_rng(11).uniform(0.0, 50.0, 1_000_000)
        samples = array("d", values.tobytes()) if kind == "array" else values
        tracemalloc.start()
        try:
            summarize(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One all-at-once ``tolist()`` of 10**6 floats would take ~30 MB.
        assert peak < 1_000_000


class TestCollector:
    def test_records_and_counts(self):
        collector = WaitingTimeCollector()
        collector.record("a", 1.0)
        collector.record("a", 3.0)
        collector.record("b", 2.0)
        assert collector.count == 3
        assert set(collector.item_ids) == {"a", "b"}

    def test_overall_summary(self):
        collector = WaitingTimeCollector()
        for value in (1.0, 3.0, 2.0):
            collector.record("x", value)
        assert collector.overall().mean == pytest.approx(2.0)

    def test_per_item_summary(self):
        collector = WaitingTimeCollector()
        collector.record("a", 1.0)
        collector.record("a", 3.0)
        collector.record("b", 10.0)
        assert collector.for_item("a").mean == pytest.approx(2.0)
        assert collector.for_item("b").mean == pytest.approx(10.0)

    def test_unknown_item_returns_none(self):
        collector = WaitingTimeCollector()
        assert collector.for_item("never") is None

    def test_negative_waiting_time_rejected(self):
        collector = WaitingTimeCollector()
        with pytest.raises(ValueError):
            collector.record("a", -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_waiting_time_rejected(self, value):
        collector = WaitingTimeCollector()
        with pytest.raises(ValueError, match="finite"):
            collector.record("a", value)
        assert collector.count == 0

    def test_zero_waiting_time_allowed(self):
        collector = WaitingTimeCollector()
        collector.record("a", 0.0)
        assert collector.overall().mean == 0.0
