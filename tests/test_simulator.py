"""Integration tests for the end-to-end simulator.

The closed-form production run promises *bitwise-identical* measured
statistics to the event-driven reference for the same seed — same
request stream, same per-request waiting times, same exact-fsum
summaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH
from repro.core.item import items_created
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import run_broadcast_simulation
from repro.verify.eventsim import (
    BroadcastChannel,
    generate_requests,
    simulate_reference,
)


@pytest.fixture
def allocation(medium_db):
    return DRPCDSAllocator().allocate(medium_db, 4).allocation


class TestRunSimulation:
    def test_report_shape(self, allocation):
        report = run_broadcast_simulation(
            allocation, num_requests=2000, seed=0
        )
        assert report.num_requests == 2000
        assert report.measured.count == 2000
        assert report.per_item  # at least the hot items appear

    def test_measured_converges_to_analytical(self, allocation):
        report = run_broadcast_simulation(
            allocation, num_requests=40000, seed=1
        )
        assert report.relative_error < 0.03

    def test_more_requests_tighter_ci(self, allocation):
        small = run_broadcast_simulation(allocation, num_requests=500, seed=0)
        large = run_broadcast_simulation(
            allocation, num_requests=20000, seed=0
        )
        assert large.measured.ci_halfwidth < small.measured.ci_halfwidth

    def test_reproducible(self, allocation):
        a = run_broadcast_simulation(allocation, num_requests=1000, seed=5)
        b = run_broadcast_simulation(allocation, num_requests=1000, seed=5)
        assert a.measured.mean == b.measured.mean

    def test_arrival_rate_does_not_bias_mean(self, allocation):
        slow = run_broadcast_simulation(
            allocation, num_requests=20000, arrival_rate=0.5, seed=2
        )
        fast = run_broadcast_simulation(
            allocation, num_requests=20000, arrival_rate=20.0, seed=2
        )
        assert slow.measured.mean == pytest.approx(
            fast.measured.mean, rel=0.05
        )

    def test_all_waits_at_least_download_time(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        report = run_broadcast_simulation(
            allocation, num_requests=500, bandwidth=10.0, seed=0
        )
        min_download = min(item.size for item in tiny_db) / 10.0
        assert report.measured.minimum >= min_download - 1e-12

    def test_bad_request_count(self, allocation):
        with pytest.raises(SimulationError):
            run_broadcast_simulation(allocation, num_requests=0)


class TestBandwidthEffects:
    def test_doubling_bandwidth_halves_waits(self, allocation):
        # The *expectation* scales exactly with 1/b; the measured means
        # only approximately, because the same absolute arrival times
        # land at different cycle phases once cycles shrink.
        base = run_broadcast_simulation(
            allocation, num_requests=20000, bandwidth=10.0, seed=3
        )
        double = run_broadcast_simulation(
            allocation, num_requests=20000, bandwidth=20.0, seed=3
        )
        assert double.analytical_waiting_time == pytest.approx(
            base.analytical_waiting_time / 2.0
        )
        assert double.measured.mean == pytest.approx(
            base.measured.mean / 2.0, rel=0.05
        )

    def test_heterogeneous_bandwidths_accepted(self, allocation):
        bandwidths = [10.0] * allocation.num_channels
        bandwidths[0] = 40.0
        report = run_broadcast_simulation(
            allocation,
            bandwidths=bandwidths,
            num_requests=2000,
            seed=0,
        )
        assert report.num_requests == 2000


class TestProfileMismatch:
    def test_mismatched_requests_break_model_match(self, allocation):
        """With all requests on one cold item the analytical W_b
        (computed for the optimised profile) no longer predicts the
        measured mean."""
        database = allocation.database
        cold = database.sorted_by_frequency()[-1]
        probabilities = [
            1.0 if item.item_id == cold.item_id else 0.0
            for item in database.items
        ]
        report = run_broadcast_simulation(
            allocation,
            num_requests=5000,
            seed=0,
            request_probabilities=probabilities,
        )
        expected = None
        from repro.simulation.server import BroadcastProgram

        program = BroadcastProgram(allocation)
        expected = program.expected_waiting_time(cold.item_id)
        assert report.measured.mean == pytest.approx(expected, rel=0.05)


def assert_reports_match(reference_report, production_report):
    assert reference_report.measured == production_report.measured
    assert reference_report.per_item == production_report.per_item
    assert reference_report.num_requests == production_report.num_requests
    assert (
        reference_report.analytical_waiting_time
        == production_report.analytical_waiting_time
    )


def reference_channels(allocation, bandwidth=DEFAULT_BANDWIDTH):
    """The scalar per-item channels, keyed by the ids they carry."""
    channel_of = {}
    for index, group in enumerate(allocation.channels):
        channel = BroadcastChannel(index, group, bandwidth)
        for item in group:
            channel_of[item.item_id] = channel
    return channel_of


class TestSampleBatch:
    def test_matches_generate_stream(self, medium_db):
        a = RequestGenerator(medium_db, seed=11)
        b = RequestGenerator(medium_db, seed=11)
        arrivals, picks = a.sample_batch(500)
        requests = list(generate_requests(b, 500))
        assert [r.arrival_time for r in requests] == arrivals.tolist()
        item_ids = a.item_ids
        assert [r.item_id for r in requests] == [
            item_ids[int(p)] for p in picks
        ]

    def test_empty_batch(self, medium_db):
        arrivals, picks = RequestGenerator(medium_db).sample_batch(0)
        assert arrivals.size == 0 and picks.size == 0

    def test_negative_rejected(self, medium_db):
        with pytest.raises(SimulationError):
            RequestGenerator(medium_db).sample_batch(-1)


class TestProgramWaitingTimes:
    def test_matches_channel_timing_per_request(self, allocation):
        program = BroadcastProgram(allocation)
        channels = reference_channels(allocation)
        generator = RequestGenerator(allocation.database, seed=3)
        arrivals, picks = generator.sample_batch(300)
        item_ids = generator.item_ids
        waits = program.waiting_times(picks, arrivals)
        for i in range(300):
            item_id = item_ids[int(picks[i])]
            expected = channels[item_id].waiting_time(
                item_id, float(arrivals[i])
            )
            assert waits[i] == expected  # bitwise, not approx

    def test_waits_bounded_below_by_download(self, allocation):
        program = BroadcastProgram(allocation)
        generator = RequestGenerator(allocation.database, seed=5)
        arrivals, picks = generator.sample_batch(1000)
        waits = program.waiting_times(picks, arrivals)
        min_download = min(
            channel.transmission_time(item_id)
            for item_id, channel in reference_channels(allocation).items()
        )
        assert float(np.min(waits)) >= min_download - 1e-12


class TestReferenceParity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_identical_reports(self, allocation, seed):
        reference, events = simulate_reference(
            allocation, num_requests=2000, seed=seed
        )
        production = run_broadcast_simulation(
            allocation, num_requests=2000, seed=seed
        )
        assert_reports_match(reference, production)
        assert events == 4000  # arrival + delivery each

    def test_heterogeneous_bandwidths_parity(self, allocation):
        bandwidths = [10.0] * allocation.num_channels
        bandwidths[0] = 40.0
        reference, _ = simulate_reference(
            allocation, bandwidths=bandwidths, num_requests=1500, seed=2
        )
        production = run_broadcast_simulation(
            allocation, bandwidths=bandwidths, num_requests=1500, seed=2
        )
        assert_reports_match(reference, production)

    def test_request_probability_override_parity(self, allocation):
        database = allocation.database
        cold = database.sorted_by_frequency()[-1]
        probabilities = [
            1.0 if item.item_id == cold.item_id else 0.0
            for item in database.items
        ]
        reference, _ = simulate_reference(
            allocation,
            num_requests=800,
            seed=0,
            request_probabilities=probabilities,
        )
        production = run_broadcast_simulation(
            allocation,
            num_requests=800,
            seed=0,
            request_probabilities=probabilities,
        )
        assert_reports_match(reference, production)
        assert set(production.per_item) == {cold.item_id}

    def test_arrival_rate_parity(self, allocation):
        reference, _ = simulate_reference(
            allocation, num_requests=1000, arrival_rate=12.5, seed=4
        )
        production = run_broadcast_simulation(
            allocation, num_requests=1000, arrival_rate=12.5, seed=4
        )
        assert_reports_match(reference, production)

    def test_tiny_allocation_parity(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        reference, events = simulate_reference(
            allocation, num_requests=400, seed=9
        )
        production = run_broadcast_simulation(
            allocation, num_requests=400, seed=9
        )
        assert_reports_match(reference, production)
        assert events == 800


class TestValidation:
    def test_backend_keyword_rejected(self, allocation):
        with pytest.raises(TypeError, match="backend"):
            run_broadcast_simulation(allocation, backend="numpy")

    def test_reference_bad_request_count(self, allocation):
        with pytest.raises(SimulationError):
            simulate_reference(allocation, num_requests=0)


class TestNoItemViews:
    def test_run_creates_no_data_items(self, medium_db):
        allocation = DRPCDSAllocator().allocate(medium_db, 4).allocation
        before = items_created()
        run_broadcast_simulation(allocation, num_requests=2000, seed=0)
        assert items_created() == before


class TestSimulationMetrics:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_counters_and_utilization(self, allocation):
        obs.configure(metrics=True)
        run_broadcast_simulation(allocation, num_requests=2000, seed=0)
        run_broadcast_simulation(allocation, num_requests=500, seed=3)
        snapshot = obs.get_metrics().snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        assert counters["sim.runs"] == 2
        assert counters["sim.requests_served"] == 2500
        assert [
            counters[f"sim.channel_requests{{channel={c}}}"] for c in range(4)
        ] == [1229, 625, 422, 224]
        # The last run's demand share per channel (500 requests).
        assert [
            gauges[f"sim.channel_utilization{{channel={c}}}"] for c in range(4)
        ] == [0.474, 0.266, 0.178, 0.082]
        assert not any(name.startswith("sim.events") for name in counters)
