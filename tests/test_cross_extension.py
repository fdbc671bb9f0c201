"""Cross-extension integration tests.

The extensions were built to compose; these tests exercise realistic
combinations the individual suites don't touch.
"""

from __future__ import annotations

import math

import pytest

from repro.core.database import BroadcastDatabase
from repro.core.hetero import HeteroDRPCDSAllocator
from repro.core.incremental import warm_start_refine
from repro.core.item import DataItem
from repro.core.scheduler import DRPCDSAllocator
from repro.simulation.indexing import IndexedChannel
from repro.simulation.simulator import run_broadcast_simulation
from repro.workloads.catalog import build_catalogue
from repro.workloads.estimator import DecayedCounts
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.trace import synthesize_trace


class TestEstimatedProfileDownstream:
    """A trace-estimated profile must flow through the whole stack."""

    @pytest.fixture(scope="class")
    def estimated_db(self):
        truth = generate_database(WorkloadSpec(num_items=40, seed=31))
        trace = synthesize_trace(truth, 20000, seed=1)
        ids = list(truth.item_ids)
        counts = DecayedCounts(ids, half_life=math.inf)
        counts.add(
            counts.rows([record.item_id for record in trace]),
            [record.timestamp for record in trace],
        )
        profile = counts.estimate_profile(ids)
        return BroadcastDatabase(
            [
                DataItem(item_id, frequency=profile[item_id], size=item.size)
                for item_id, item in zip(ids, truth.items)
            ]
        )

    def test_simulation_on_estimated_program(self, estimated_db):
        allocation = DRPCDSAllocator().allocate(estimated_db, 4).allocation
        report = run_broadcast_simulation(
            allocation, num_requests=10000, seed=2
        )
        # Requests are drawn from the estimated profile itself, so the
        # analytical model must hold as usual.
        assert report.relative_error < 0.05

    def test_hetero_on_estimated_profile(self, estimated_db):
        bandwidths = [20.0, 10.0, 5.0, 5.0]
        outcome = HeteroDRPCDSAllocator(bandwidths).allocate(
            estimated_db, 4
        )
        assert outcome.metadata["hetero_waiting_time"] > 0

    def test_incremental_edit_on_estimated_profile(self, estimated_db):
        """Edit the estimated profile (one item turns hot) and
        re-allocate warm from the program built on it."""
        allocation = DRPCDSAllocator().allocate(estimated_db, 4).allocation
        frequencies = estimated_db.frequencies.copy()
        frequencies[0] += 0.1
        edited = estimated_db.with_frequencies(
            frequencies / frequencies.sum()
        )
        result = warm_start_refine(edited, 4, allocation)
        assert result.mode in ("warm", "fallback")
        assert result.allocation.num_channels == 4
        assert sorted(result.allocation.database.item_ids) == sorted(
            estimated_db.item_ids
        )


class TestMultimediaCatalogueDownstream:
    """The content-class catalogue through air indexing."""

    @pytest.fixture(scope="class")
    def portal(self):
        database = build_catalogue(seed=9)
        allocation = DRPCDSAllocator().allocate(database, 6).allocation
        return database, allocation

    def test_indexing_hot_portal_channel(self, portal):
        database, allocation = portal
        hot = max(
            range(allocation.num_channels),
            key=lambda i: allocation.channel_stats[i].frequency,
        )
        items = allocation.channel_items(hot)
        channel = IndexedChannel(
            hot, items, 100.0, replication=min(2, len(items)),
            index_entry_size=0.1,
        )
        timing = channel.expected_timing(items[0].item_id)
        assert 0 < timing.tuning_time <= timing.waiting_time


class TestEditThenMeasure:
    def test_frequency_update_improves_measured_wait_for_item(self):
        """Promote an item, re-allocate warm, and verify the *simulator*
        confirms its waiting time dropped — analytics and measurement
        agree through the live service's re-allocation path."""
        database = generate_database(WorkloadSpec(num_items=30, seed=17))
        allocation = DRPCDSAllocator().allocate(database, 4).allocation
        cold = database.sorted_by_frequency()[-1].item_id

        before = run_broadcast_simulation(
            allocation, num_requests=15000, seed=6
        )
        frequencies = database.frequencies.copy()
        frequencies[database.index_of(cold)] = 2.0
        promoted = warm_start_refine(
            database.with_frequencies(frequencies / frequencies.sum()),
            4,
            allocation,
        ).allocation
        after = run_broadcast_simulation(
            promoted, num_requests=15000, seed=6
        )
        # The item is now dominant; its per-item measured wait must
        # shrink (it gets a short cycle).
        item_before = before.per_item.get(cold)
        item_after = after.per_item.get(cold)
        assert item_after is not None
        if item_before is not None:
            assert item_after.mean < item_before.mean
        # And the whole program's measured wait matches its own model.
        assert after.relative_error < 0.05
