"""Unit tests for repro.workloads.estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.workloads.estimator import (
    CountEstimator,
    DecayedCounts,
    DecayEstimator,
    estimate_database,
    profile_l1_error,
)
from repro.workloads.trace import RequestTrace, TraceRecord, synthesize_trace


def make_trace(pairs):
    trace = RequestTrace()
    for t, item in pairs:
        trace.record(t, item)
    return trace


class TestCountEstimator:
    def test_unsmoothed_relative_counts(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b"), (3, "c")])
        estimate = CountEstimator(smoothing=0.0).estimate(
            trace, ["a", "b", "c"]
        )
        assert estimate == pytest.approx({"a": 0.5, "b": 0.25, "c": 0.25})

    def test_smoothing_gives_unseen_items_mass(self):
        trace = make_trace([(0, "a")])
        estimate = CountEstimator(smoothing=1.0).estimate(trace, ["a", "b"])
        assert estimate["b"] > 0
        assert estimate["a"] > estimate["b"]
        assert sum(estimate.values()) == pytest.approx(1.0)

    def test_empty_trace_with_smoothing_is_uniform(self):
        estimate = CountEstimator().estimate(RequestTrace(), ["a", "b"])
        assert estimate == pytest.approx({"a": 0.5, "b": 0.5})

    def test_empty_trace_without_smoothing_rejected(self):
        with pytest.raises(SimulationError):
            CountEstimator(smoothing=0.0).estimate(RequestTrace(), ["a"])

    def test_foreign_items_rejected(self):
        trace = make_trace([(0, "zz")])
        with pytest.raises(SimulationError, match="outside the catalogue"):
            CountEstimator().estimate(trace, ["a"])

    def test_negative_smoothing_rejected(self):
        with pytest.raises(SimulationError):
            CountEstimator(smoothing=-1.0)

    def test_duplicate_catalogue_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            CountEstimator().estimate(RequestTrace(), ["a", "a"])

    def test_recovers_true_profile_from_large_trace(self, medium_db):
        trace = synthesize_trace(medium_db, 60000, seed=0)
        estimate = CountEstimator(smoothing=0.5).estimate(
            trace, list(medium_db.item_ids)
        )
        truth = {item.item_id: item.frequency for item in medium_db}
        assert profile_l1_error(estimate, truth) < 0.05


class TestDecayEstimator:
    def test_recent_requests_dominate(self):
        # Item "old" was popular long ago; "new" recently.
        trace = make_trace(
            [(0, "old"), (1, "old"), (2, "old"), (100, "new"), (101, "new")]
        )
        estimate = DecayEstimator(half_life=5.0, smoothing=0.0).estimate(
            trace, ["old", "new"]
        )
        assert estimate["new"] > 0.9

    def test_long_half_life_approaches_plain_counts(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        decayed = DecayEstimator(half_life=1e9, smoothing=0.0).estimate(
            trace, ["a", "b"]
        )
        plain = CountEstimator(smoothing=0.0).estimate(trace, ["a", "b"])
        assert decayed["a"] == pytest.approx(plain["a"], rel=1e-6)

    def test_normalised(self):
        trace = make_trace([(0, "a"), (10, "b"), (20, "a")])
        estimate = DecayEstimator(half_life=7.0).estimate(
            trace, ["a", "b", "c"]
        )
        assert sum(estimate.values()) == pytest.approx(1.0)

    def test_empty_trace_with_smoothing_is_uniform(self):
        estimate = DecayEstimator(half_life=1.0).estimate(
            RequestTrace(), ["a", "b"]
        )
        assert estimate == pytest.approx({"a": 0.5, "b": 0.5})

    @pytest.mark.parametrize("half_life", [0.0, -1.0, float("inf")])
    def test_bad_half_life(self, half_life):
        with pytest.raises(SimulationError):
            DecayEstimator(half_life=half_life)

    def test_foreign_items_rejected(self):
        trace = make_trace([(0, "zz")])
        with pytest.raises(SimulationError, match="outside"):
            DecayEstimator(half_life=1.0).estimate(trace, ["a"])


class TestEstimateDatabase:
    def test_builds_normalised_database(self, medium_db):
        trace = synthesize_trace(medium_db, 5000, seed=1)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = estimate_database(trace, sizes)
        assert len(estimated) == len(medium_db)
        assert estimated.is_normalized
        for item in estimated:
            assert item.size == sizes[item.item_id]

    def test_custom_estimator(self, medium_db):
        trace = synthesize_trace(medium_db, 2000, seed=1)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = estimate_database(
            trace, sizes, estimator=DecayEstimator(half_life=100.0)
        )
        assert estimated.is_normalized

    def test_empty_catalogue_rejected(self):
        with pytest.raises(SimulationError):
            estimate_database(RequestTrace(), {})

    def test_allocation_quality_from_estimated_profile(self, medium_db):
        """An allocation built from a large trace is nearly as good as
        one built from the truth — the closed-loop sanity check."""
        from repro.core.cost import allocation_cost
        from repro.core.scheduler import DRPCDSAllocator

        trace = synthesize_trace(medium_db, 50000, seed=3)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = estimate_database(trace, sizes)
        allocator = DRPCDSAllocator()
        from_truth = allocator.allocate(medium_db, 5).cost
        # Evaluate the estimated-profile allocation under the TRUE
        # frequencies.
        allocation = allocator.allocate(estimated, 5).allocation
        groups = [
            [medium_db[item.item_id] for item in group]
            for group in allocation.channels
        ]
        from repro.core.allocation import ChannelAllocation

        under_truth = allocation_cost(
            ChannelAllocation(medium_db, groups)
        )
        assert under_truth <= from_truth * 1.05


class TestProfileL1Error:
    def test_zero_for_identical(self):
        profile = {"a": 0.3, "b": 0.7}
        assert profile_l1_error(profile, dict(profile)) == 0.0

    def test_known_distance(self):
        assert profile_l1_error(
            {"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}
        ) == pytest.approx(2.0)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(SimulationError):
            profile_l1_error({"a": 1.0}, {"b": 1.0})

    def test_mismatch_error_names_the_offending_items(self):
        """The error identifies which ids differ — debuggability for
        catalogue/estimate drift in long-running serve loops."""
        with pytest.raises(
            SimulationError, match=r"missing from estimate: \['b'\]"
        ):
            profile_l1_error({"a": 1.0, "c": 0.0}, {"a": 1.0, "b": 0.0})
        with pytest.raises(SimulationError, match=r"not in truth: \['c'\]"):
            profile_l1_error({"a": 1.0, "c": 0.0}, {"a": 1.0, "b": 0.0})


class TestZeroFrequencyEdgeCases:
    """Items never observed in the stream (ISSUE 10 satellite 4).

    With ``smoothing = 0`` an unseen catalogue item estimates to
    frequency 0, which the analytical model rejects — at item
    construction (``InvalidItemError``) and again at cost evaluation
    (``InvalidAllocationError`` for a zero-frequency channel).
    ``estimate_database`` now fails fast with an actionable message;
    any ``smoothing > 0`` floors every item at a positive frequency.
    """

    def test_unsmoothed_unseen_item_estimates_to_exact_zero(self):
        trace = make_trace([(0, "a"), (1, "a")])
        estimate = CountEstimator(smoothing=0.0).estimate(trace, ["a", "b"])
        assert estimate["b"] == 0.0
        decayed = DecayEstimator(half_life=5.0, smoothing=0.0).estimate(
            trace, ["a", "b"]
        )
        assert decayed["b"] == 0.0

    def test_estimate_database_fails_fast_with_guidance(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SimulationError, match="smoothing > 0"):
            estimate_database(
                trace, sizes, estimator=CountEstimator(smoothing=0.0)
            )

    def test_error_names_the_unobserved_items(self):
        trace = make_trace([(0, "a")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SimulationError, match=r"\['b', 'c'\]"):
            estimate_database(
                trace, sizes, estimator=CountEstimator(smoothing=0.0)
            )

    def test_zero_frequency_item_rejected_at_construction(self):
        from repro.exceptions import InvalidItemError

        with pytest.raises(InvalidItemError):
            DataItem("cold", frequency=0.0, size=1.0)

    def test_zero_frequency_group_rejected_on_allocation_path(self):
        """Even if a zero slipped past item validation (e.g. a foreign
        stand-in object), the cost model refuses a channel nobody ever
        tunes into."""
        from types import SimpleNamespace

        from repro.core.cost import channel_waiting_time
        from repro.exceptions import InvalidAllocationError

        phantom = SimpleNamespace(
            item_id="cold", frequency=0.0, size=1.0, weight=0.0
        )
        with pytest.raises(InvalidAllocationError, match="no client"):
            channel_waiting_time([phantom])

    def test_smoothing_floor_keeps_unseen_items_allocatable(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        for smoothing in (1e-9, 0.5, 1.0):
            estimated = estimate_database(
                trace, sizes, estimator=CountEstimator(smoothing=smoothing)
            )
            assert min(item.frequency for item in estimated) > 0.0
            assert estimated.is_normalized

    def test_sketch_profile_matches_the_same_contract(self):
        """The streaming path makes the identical smoothing trade."""
        counts = DecayedCounts(["a", "b"], half_life=math.inf)
        counts.add("a", timestamp=0.0)
        counts.add("a", timestamp=1.0)
        profile = counts.estimate_profile(["a", "b"], smoothing=0.0)
        assert profile["b"] == 0.0  # same zero-frequency hazard
        floored = counts.estimate_profile(["a", "b"], smoothing=1.0)
        assert floored["b"] > 0.0
        assert sum(floored.values()) == pytest.approx(1.0)


@st.composite
def zipf_streams(draw):
    """A seeded Zipf-ish request stream over a small catalogue."""
    num_items = draw(st.integers(min_value=2, max_value=40))
    num_requests = draw(st.integers(min_value=1, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    theta = draw(st.floats(min_value=0.0, max_value=1.5))
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_items + 1) ** theta
    weights /= weights.sum()
    ids = [f"d{i}" for i in range(num_items)]
    picks = rng.choice(num_items, size=num_requests, p=weights)
    times = np.cumsum(rng.exponential(1.0, size=num_requests))
    records = [
        TraceRecord(timestamp=float(t), item_id=ids[int(pick)])
        for t, pick in zip(times, picks)
    ]
    return ids, records


class TestDecayedCounts:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(zipf_streams(), st.floats(min_value=0.5, max_value=50.0))
    def test_profile_matches_decay_estimator(self, stream, half_life):
        """Streamed counts == DecayEstimator over the same stream."""
        ids, records = stream
        counts = DecayedCounts(ids, half_life=half_life)
        for record in records:
            counts.add(record.item_id, timestamp=record.timestamp)
        streamed = counts.estimate_profile(ids, smoothing=1.0)
        batch = DecayEstimator(half_life=half_life, smoothing=1.0).estimate(
            RequestTrace(records), ids
        )
        for item_id in ids:
            assert streamed[item_id] == pytest.approx(batch[item_id], abs=1e-9)

    def test_infinite_half_life_counts_plain_occurrences(self):
        trace = make_trace([(0, "a"), (5, "a"), (900, "b")])
        counts = DecayedCounts(["a", "b", "c"], half_life=math.inf)
        for record in trace:
            counts.add(record.item_id, timestamp=record.timestamp)
        assert counts.estimate_profile(["a", "b", "c"]) == (
            CountEstimator().estimate(trace, ["a", "b", "c"])
        )

    def test_rescale_keeps_profile_finite_and_normalised(self):
        """Inflation past 2**512 rescales instead of overflowing.

        The stream spans 15 000 half-lives; without the rescale the
        inflated weight ``2.0 ** 15000`` would raise OverflowError.
        """
        counts = DecayedCounts(["hot", "cold"], half_life=0.01)
        for k in range(3000):
            counts.add("hot" if k % 3 else "cold", timestamp=k * 0.05)
        profile = counts.estimate_profile(["hot", "cold"], smoothing=0.0)
        assert all(math.isfinite(value) for value in profile.values())
        assert profile["hot"] + profile["cold"] == pytest.approx(1.0)
        # Each step is 5 half-lives, so the two newest "hot" arrivals
        # weigh 1 and 2**-5 and the newest "cold" one 2**-10; every
        # period of three repeats that pattern scaled by 2**-15.
        assert profile["hot"] == pytest.approx(1056 / 1057, rel=1e-12)

    @pytest.mark.parametrize("half_life", [0.0, -1.0, float("nan")])
    def test_bad_half_life_rejected(self, half_life):
        with pytest.raises(SimulationError, match="half_life"):
            DecayedCounts(["a"], half_life=half_life)

    def test_out_of_order_arrivals_rejected(self):
        counts = DecayedCounts(["a", "b"], half_life=1.0)
        counts.add("a", timestamp=5.0)
        with pytest.raises(SimulationError, match="out-of-order"):
            counts.add("b", timestamp=4.0)

    @pytest.mark.parametrize(
        "item_id, timestamp, message",
        [
            ("a", float("nan"), "finite"),
            ("a", float("inf"), "finite"),
            ("zz", 1.0, "outside the catalogue"),
            ("", 1.0, "outside the catalogue"),
        ],
        ids=["nan-timestamp", "inf-timestamp", "unknown-id", "empty-id"],
    )
    def test_bad_timestamp_and_id_rejected(self, item_id, timestamp, message):
        counts = DecayedCounts(["a"], half_life=1.0)
        with pytest.raises(SimulationError, match=message):
            counts.add(item_id, timestamp=timestamp)

    def test_empty_counts_zero_smoothing_rejected(self):
        counts = DecayedCounts(["a"], half_life=1.0)
        with pytest.raises(SimulationError, match="smoothing"):
            counts.estimate_profile(["a"], smoothing=0.0)
