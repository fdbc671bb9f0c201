"""Unit tests for repro.workloads.estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.service import BroadcastService
from repro.workloads.estimator import DecayedCounts, profile_l1_error
from repro.workloads.trace import RequestTrace, TraceRecord, synthesize_trace


def make_trace(pairs):
    trace = RequestTrace()
    for t, item in pairs:
        trace.record(t, item)
    return trace


def estimate(trace, catalogue, *, half_life=math.inf, smoothing=1.0):
    """The smoothed profile :class:`DecayedCounts` holds after ``trace``."""
    counts = DecayedCounts(catalogue, half_life=half_life)
    counts.add(
        counts.rows([record.item_id for record in trace]),
        [record.timestamp for record in trace],
    )
    return counts.estimate_profile(catalogue, smoothing=smoothing)


def believed_after(trace, sizes, **kwargs):
    """The database a service believes after serving ``trace`` as one epoch.

    One more request, one epoch after the first, closes the epoch; the
    service then estimates the profile and builds the database.
    """
    epoch_seconds = trace[len(trace) - 1].timestamp - trace[0].timestamp + 1.0
    closer = TraceRecord(
        timestamp=trace[0].timestamp + epoch_seconds, item_id=trace[0].item_id
    )
    service = BroadcastService(sizes, 2, epoch_seconds=epoch_seconds, **kwargs)
    service.run([*trace, closer], max_epochs=1)
    return service.believed


class TestCountEstimator:
    """Plain counting: :class:`DecayedCounts` at ``half_life=inf``."""

    def test_unsmoothed_relative_counts(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b"), (3, "c")])
        profile = estimate(trace, ["a", "b", "c"], smoothing=0.0)
        assert profile == pytest.approx({"a": 0.5, "b": 0.25, "c": 0.25})

    def test_smoothing_gives_unseen_items_mass(self):
        trace = make_trace([(0, "a")])
        profile = estimate(trace, ["a", "b"], smoothing=1.0)
        assert profile["b"] > 0
        assert profile["a"] > profile["b"]
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_empty_trace_with_smoothing_is_uniform(self):
        profile = estimate(RequestTrace(), ["a", "b"])
        assert profile == pytest.approx({"a": 0.5, "b": 0.5})

    def test_empty_trace_without_smoothing_rejected(self):
        with pytest.raises(SimulationError):
            estimate(RequestTrace(), ["a"], smoothing=0.0)

    def test_foreign_items_rejected(self):
        trace = make_trace([(0, "zz")])
        with pytest.raises(SimulationError, match="outside the catalogue"):
            estimate(trace, ["a"])

    def test_negative_smoothing_rejected(self):
        with pytest.raises(SimulationError):
            estimate(RequestTrace(), ["a"], smoothing=-1.0)

    def test_duplicate_catalogue_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            DecayedCounts(["a", "a"], half_life=math.inf)

    def test_recovers_true_profile_from_large_trace(self, medium_db):
        trace = synthesize_trace(medium_db, 60000, seed=0)
        profile = estimate(trace, list(medium_db.item_ids), smoothing=0.5)
        truth = {item.item_id: item.frequency for item in medium_db}
        assert profile_l1_error(profile, truth) < 0.05


class TestDecayEstimator:
    """Decayed counting: :class:`DecayedCounts` at a finite half-life."""

    def test_recent_requests_dominate(self):
        # Item "old" was popular long ago; "new" recently.
        trace = make_trace(
            [(0, "old"), (1, "old"), (2, "old"), (100, "new"), (101, "new")]
        )
        profile = estimate(trace, ["old", "new"], half_life=5.0, smoothing=0.0)
        assert profile["new"] > 0.9

    def test_long_half_life_approaches_plain_counts(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        decayed = estimate(trace, ["a", "b"], half_life=1e9, smoothing=0.0)
        plain = estimate(trace, ["a", "b"], smoothing=0.0)
        assert decayed["a"] == pytest.approx(plain["a"], rel=1e-6)

    def test_normalised(self):
        trace = make_trace([(0, "a"), (10, "b"), (20, "a")])
        profile = estimate(trace, ["a", "b", "c"], half_life=7.0)
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_empty_trace_with_smoothing_is_uniform(self):
        profile = estimate(RequestTrace(), ["a", "b"], half_life=1.0)
        assert profile == pytest.approx({"a": 0.5, "b": 0.5})

    @pytest.mark.parametrize("half_life", [0.0, -1.0])
    def test_bad_half_life(self, half_life):
        with pytest.raises(SimulationError):
            DecayedCounts(["a"], half_life=half_life)

    def test_foreign_items_rejected(self):
        trace = make_trace([(0, "zz")])
        with pytest.raises(SimulationError, match="outside"):
            estimate(trace, ["a"], half_life=1.0)


class TestEstimateDatabase:
    """The database the service builds from its estimate at a boundary."""

    def test_builds_normalised_database(self, medium_db):
        trace = synthesize_trace(medium_db, 5000, seed=1)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = believed_after(trace, sizes, half_life=math.inf)
        assert len(estimated) == len(medium_db)
        assert estimated.is_normalized
        for item in estimated:
            assert item.size == sizes[item.item_id]

    def test_custom_estimator(self, medium_db):
        trace = synthesize_trace(medium_db, 2000, seed=1)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = believed_after(trace, sizes, half_life=100.0)
        assert estimated.is_normalized

    def test_empty_catalogue_rejected(self):
        with pytest.raises(SimulationError):
            BroadcastService({}, 2)

    def test_allocation_quality_from_estimated_profile(self, medium_db):
        """An allocation built from a large trace is nearly as good as
        one built from the truth — the closed-loop sanity check."""
        from repro.core.cost import allocation_cost
        from repro.core.scheduler import DRPCDSAllocator

        trace = synthesize_trace(medium_db, 50000, seed=3)
        sizes = {item.item_id: item.size for item in medium_db}
        estimated = believed_after(trace, sizes, half_life=math.inf)
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
    (``InvalidAllocationError`` for a zero-frequency channel).  The
    service fails fast at the epoch boundary with an actionable
    message; any ``smoothing > 0`` floors every item at a positive
    frequency.
    """

    def test_unsmoothed_unseen_item_estimates_to_exact_zero(self):
        trace = make_trace([(0, "a"), (1, "a")])
        assert estimate(trace, ["a", "b"], smoothing=0.0)["b"] == 0.0
        decayed = estimate(trace, ["a", "b"], half_life=5.0, smoothing=0.0)
        assert decayed["b"] == 0.0

    def test_estimate_database_fails_fast_with_guidance(self):
        trace = make_trace([(0, "a"), (1, "a"), (2, "b")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SimulationError, match="smoothing > 0"):
            believed_after(trace, sizes, smoothing=0.0)

    def test_error_names_the_unobserved_items(self):
        trace = make_trace([(0, "a")])
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SimulationError, match=r"\['b', 'c'\]"):
            believed_after(trace, sizes, smoothing=0.0)

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
            estimated = believed_after(trace, sizes, smoothing=smoothing)
            assert min(item.frequency for item in estimated) > 0.0
            assert estimated.is_normalized

    def test_sketch_profile_matches_the_same_contract(self):
        """The streaming path makes the identical smoothing trade."""
        counts = DecayedCounts(["a", "b"], half_life=math.inf)
        counts.add(counts.rows(["a", "a"]), [0.0, 1.0])
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
        """Streamed counts == a direct sum of ``0.5 ** ((T - t) / h)``
        over the same stream, ``T`` the newest arrival."""
        ids, records = stream
        streamed = estimate(records, ids, half_life=half_life)
        newest = records[-1].timestamp
        weights = dict.fromkeys(ids, 0.0)
        for record in records:
            weights[record.item_id] += 0.5 ** (
                (newest - record.timestamp) / half_life
            )
        total = math.fsum(weights.values()) + len(ids)
        for item_id in ids:
            assert streamed[item_id] == pytest.approx(
                (weights[item_id] + 1.0) / total, abs=1e-9
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(0.0, 40.0), min_size=1, max_size=200),
        st.sampled_from([0.01, 0.7, 3.0, math.inf]),
        st.integers(min_value=1, max_value=64),
    )
    def test_chunks_match_the_scalar_recurrence(self, gaps, half_life, chunk):
        """Chunked adds give the counts of the one-request-at-a-time
        recurrence bit for bit, rescales included.  Each item is asked
        for once, so every weight's last bit reaches the profile."""
        times = list(np.cumsum(gaps).tolist())
        ids = [f"d{k}" for k in range(len(times))]
        counts = DecayedCounts(ids, half_life=half_life)
        for lo in range(0, len(ids), chunk):
            counts.add(counts.rows(ids[lo : lo + chunk]), times[lo : lo + chunk])
        expected, origin = [], 0.0
        for timestamp in times:
            exponent = (timestamp - origin) / half_life
            if exponent > 512.0:
                scale = 2.0 ** -exponent
                expected = [count * scale for count in expected]
                origin, exponent = timestamp, 0.0
            expected.append(2.0 ** exponent)
        deflation = 2.0 ** (-(times[-1] - origin) / half_life)
        deflated = [count * deflation for count in expected]
        total = math.fsum(deflated)
        assert counts.estimate_profile(ids, smoothing=0.0) == {
            item_id: count / total for item_id, count in zip(ids, deflated)
        }

    def test_infinite_half_life_counts_plain_occurrences(self):
        trace = make_trace([(0, "a"), (5, "a"), (900, "b")])
        # Laplace-smoothed counts (2 + 1, 1 + 1, 0 + 1) over 3 + 3.
        assert estimate(trace, ["a", "b", "c"]) == {
            "a": 3 / 6,
            "b": 2 / 6,
            "c": 1 / 6,
        }

    def test_rescale_keeps_profile_finite_and_normalised(self):
        """Inflation past 2**512 rescales instead of overflowing.

        The stream spans 15 000 half-lives; without the rescale the
        inflated weight ``2.0 ** 15000`` would raise OverflowError.
        """
        counts = DecayedCounts(["hot", "cold"], half_life=0.01)
        counts.add(
            counts.rows(["hot" if k % 3 else "cold" for k in range(3000)]),
            [k * 0.05 for k in range(3000)],
        )
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
        counts.add(counts.rows(["a"]), [5.0])
        with pytest.raises(SimulationError, match="out-of-order"):
            counts.add(counts.rows(["b"]), [4.0])

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
            counts.add(counts.rows([item_id]), [timestamp])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([1], "row 1 is outside the catalogue"),
            ([-1], "row -1 is outside the catalogue"),
            (["a"], "integer catalogue rows"),
            ([0.0], "integer catalogue rows"),
        ],
        ids=["past-the-end", "negative", "item-id", "float"],
    )
    def test_bad_rows_rejected_whole(self, rows, message):
        counts = DecayedCounts(["a"], half_life=1.0)
        with pytest.raises(SimulationError, match=message):
            counts.add(np.array([0] + rows), [1.0, 2.0])
        # Not even the good first row was absorbed.
        with pytest.raises(SimulationError, match="empty counts"):
            counts.estimate_profile(["a"], smoothing=0.0)

    def test_empty_counts_zero_smoothing_rejected(self):
        counts = DecayedCounts(["a"], half_life=1.0)
        with pytest.raises(SimulationError, match="smoothing"):
            counts.estimate_profile(["a"], smoothing=0.0)
