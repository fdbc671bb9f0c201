"""Property-based tests (hypothesis) for the simulation substrates.

Invariants of channel timing for arbitrary valid inputs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.item import DataItem
from repro.verify.eventsim import BroadcastChannel

_positive = st.floats(
    min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False
)


@st.composite
def item_lists(draw, min_items=1, max_items=10):
    n = draw(st.integers(min_value=min_items, max_value=max_items))
    raw = draw(st.lists(_positive, min_size=n, max_size=n))
    sizes = draw(st.lists(_positive, min_size=n, max_size=n))
    total = math.fsum(raw)
    return [
        DataItem(f"d{i}", f / total, z)
        for i, (f, z) in enumerate(zip(raw, sizes))
    ]


common = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestChannelProperties:
    @common
    @given(item_lists(), st.floats(min_value=0.0, max_value=1e4))
    def test_waiting_time_bounds(self, items, tune_in):
        channel = BroadcastChannel(0, items, 10.0)
        item = items[0]
        wait = channel.waiting_time(item.item_id, tune_in)
        download = item.size / 10.0
        # At least the download, at most a full cycle plus the download.
        assert wait >= download - 1e-9
        assert wait <= channel.cycle_length + download + 1e-9

    @common
    @given(item_lists(min_items=2), st.floats(min_value=0.0, max_value=1e3))
    def test_next_start_is_a_real_slot(self, items, tune_in):
        channel = BroadcastChannel(0, items, 10.0)
        item = items[-1]
        start = channel.next_transmission_start(item.item_id, tune_in)
        assert start >= tune_in - 1e-9
        # Start lies on the item's slot grid: offset + n*cycle.
        offset = channel.slot_offset(item.item_id)
        n = (start - offset) / channel.cycle_length
        assert abs(n - round(n)) < 1e-6

    @common
    @given(item_lists())
    def test_expectation_is_frequency_decomposable(self, items):
        """W^(i) computed two ways agrees (Eq. 1 vs Eq. 2 pieces)."""
        from repro.core.cost import channel_waiting_time, item_waiting_time

        direct = channel_waiting_time(items, bandwidth=10.0)
        total_f = math.fsum(i.frequency for i in items)
        weighted = (
            math.fsum(
                i.frequency * item_waiting_time(i, items, bandwidth=10.0)
                for i in items
            )
            / total_f
        )
        assert direct == pytest.approx(weighted, rel=1e-9)

