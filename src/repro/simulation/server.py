"""The broadcast server: turns an allocation into a broadcast program.

The server side of Figure 1 of the paper: given a channel allocation it
instantiates one :class:`~repro.simulation.channel.BroadcastChannel` per
item group and routes item lookups to the carrying channel.  All
channels share the same bandwidth (the paper's model); a per-channel
bandwidth override is provided for the heterogeneous-bandwidth
extension exercised by one example.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH
from repro.exceptions import SimulationError
from repro.simulation.channel import BroadcastChannel

__all__ = ["BroadcastProgram"]


class BroadcastProgram:
    """An executable broadcast program.

    Parameters
    ----------
    allocation:
        The channel allocation to broadcast.
    bandwidth:
        Common channel bandwidth ``b`` (size units per second).
    bandwidths:
        Optional per-channel bandwidths; overrides ``bandwidth`` when
        given and must have one entry per channel.
    """

    def __init__(
        self,
        allocation: ChannelAllocation,
        *,
        bandwidth: float = DEFAULT_BANDWIDTH,
        bandwidths: Optional[Sequence[float]] = None,
    ) -> None:
        if bandwidths is not None and len(bandwidths) != allocation.num_channels:
            raise SimulationError(
                f"got {len(bandwidths)} bandwidths for "
                f"{allocation.num_channels} channels"
            )
        self._allocation = allocation
        self._channels: Tuple[BroadcastChannel, ...] = tuple(
            BroadcastChannel(
                channel_id=index,
                items=group,
                bandwidth=(
                    bandwidths[index] if bandwidths is not None else bandwidth
                ),
            )
            for index, group in enumerate(allocation.channels)
        )
        self._channel_of: Dict[str, int] = {
            item.item_id: index
            for index, group in enumerate(allocation.channels)
            for item in group
        }
        self._geometry: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def allocation(self) -> ChannelAllocation:
        return self._allocation

    @property
    def channels(self) -> Tuple[BroadcastChannel, ...]:
        return self._channels

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def channel_for(self, item_id: str) -> BroadcastChannel:
        """The channel carrying ``item_id``."""
        try:
            return self._channels[self._channel_of[item_id]]
        except KeyError:
            raise SimulationError(
                f"no channel carries item {item_id!r}"
            ) from None

    def waiting_time(self, item_id: str, tune_in: float) -> float:
        """Waiting time for a request of ``item_id`` arriving at ``tune_in``."""
        return self.channel_for(item_id).waiting_time(item_id, tune_in)

    def waiting_times(self, rows: np.ndarray, tune_ins: np.ndarray) -> np.ndarray:
        """Waiting time of every request ``(rows[k], tune_ins[k])`` at once.

        ``rows`` are positions in the allocation's database and
        ``tune_ins`` finite, non-negative request times.  The closed
        form of :meth:`BroadcastChannel.next_transmission_start`, with
        the same float operations in the same order, so every wait is
        bit for bit :meth:`waiting_time`'s: a request tuning in at ``t``
        waits for the next *full* transmission of its item (slot starts
        at ``offset + n·cycle``) and then downloads it completely.
        """
        cycles, offsets, downloads = self._item_geometry()
        t = np.asarray(tune_ins, dtype=np.float64)
        cycle = cycles[rows]
        offset = offsets[rows]
        # Ceil of the elapsed cycle fraction, then the round-down guard
        # for a computed start that float error lands just before t.
        start = offset + np.ceil((t - offset) / cycle) * cycle
        start = np.where(t <= offset, offset, start)
        start = np.where(start < t, start + cycle, start)
        return (start + downloads[rows]) - t

    def _item_geometry(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-item (cycle, slot offset, download time) in database order.

        Built once per program off the allocation's index groups and
        the database's size array.  ``np.cumsum`` over the per-slot
        durations is the channel's sequential ``elapsed += size /
        bandwidth``, so every offset and cycle length is bit for bit
        the value :class:`BroadcastChannel` holds.
        """
        if self._geometry is None:
            sizes = self._allocation.database.sizes
            cycles = np.empty(len(sizes), dtype=np.float64)
            offsets = np.empty(len(sizes), dtype=np.float64)
            downloads = np.empty(len(sizes), dtype=np.float64)
            for channel, group in zip(
                self._channels, self._allocation.channel_index_groups
            ):
                slots = sizes[group] / channel.bandwidth
                starts = np.empty(len(slots) + 1, dtype=np.float64)
                starts[0] = 0.0
                np.cumsum(slots, out=starts[1:])
                cycles[group] = starts[-1]
                offsets[group] = starts[:-1]
                downloads[group] = slots
            self._geometry = (cycles, offsets, downloads)
        return self._geometry

    def expected_waiting_time(self, item_id: str) -> float:
        """Analytical per-item expected waiting time (Eq. 1)."""
        return self.channel_for(item_id).expected_waiting_time(item_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastProgram(K={self.num_channels}, "
            f"items={len(self._channel_of)})"
        )
