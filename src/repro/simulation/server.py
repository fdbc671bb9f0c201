"""The broadcast server: turns an allocation into a broadcast program.

The server side of Figure 1 of the paper.  Each channel repeats its item
group in allocation order at bandwidth ``b``: its cycle lasts
``Z_i / b`` seconds and item ``j`` occupies the slot
``[offset_j, offset_j + z_j / b)`` of every cycle.  A request tuning in
at ``t`` waits for the start of the next *full* transmission of its item
and then downloads it, so over a uniform tune-in
``E[wait] = cycle/2 + z/b`` (Eq. 1).

A program is a handful of arrays — per item its cycle, slot offset and
download time, per channel its cycle length and bandwidth — built
straight from the allocation's index groups and the database's size
array; no per-item object exists.  All channels share one bandwidth
(the paper's model); a per-channel override serves the
heterogeneous-bandwidth extension.  The scalar per-item
:class:`~repro.verify.eventsim.BroadcastChannel` is the reference these
arrays are held to bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH
from repro.exceptions import SimulationError

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
        groups = allocation.channel_index_groups
        if bandwidths is None:
            bandwidths = [bandwidth] * len(groups)
        elif len(bandwidths) != len(groups):
            raise SimulationError(
                f"got {len(bandwidths)} bandwidths for {len(groups)} channels"
            )
        sizes = allocation.database.sizes
        self._cycles = np.empty(len(sizes), dtype=np.float64)
        self._offsets = np.empty(len(sizes), dtype=np.float64)
        self._downloads = np.empty(len(sizes), dtype=np.float64)
        self._cycle_lengths = np.empty(len(groups), dtype=np.float64)
        self._bandwidths = np.empty(len(groups), dtype=np.float64)
        for index, (group, rate) in enumerate(zip(groups, bandwidths)):
            if len(group) == 0:
                raise SimulationError(
                    f"channel {index} has no items to broadcast"
                )
            if not (
                isinstance(rate, (int, float))
                and rate > 0
                and math.isfinite(rate)
            ):
                raise SimulationError(
                    f"bandwidth must be positive and finite, got {rate!r}"
                )
            # np.cumsum over the slot durations is the sequential
            # ``elapsed += size / bandwidth`` of a channel walking its
            # cycle, so every offset and cycle is that walk's float.
            slots = sizes[group] / float(rate)
            starts = np.empty(len(slots) + 1, dtype=np.float64)
            starts[0] = 0.0
            np.cumsum(slots, out=starts[1:])
            self._cycles[group] = starts[-1]
            self._offsets[group] = starts[:-1]
            self._downloads[group] = slots
            self._cycle_lengths[index] = starts[-1]
            self._bandwidths[index] = rate
        self._allocation = allocation

    @property
    def allocation(self) -> ChannelAllocation:
        return self._allocation

    @property
    def num_channels(self) -> int:
        return len(self._cycle_lengths)

    @property
    def cycle_lengths(self) -> np.ndarray:
        """Per-channel broadcast cycle ``Z_i / b_i`` in seconds."""
        return self._cycle_lengths

    @property
    def bandwidths(self) -> np.ndarray:
        """Per-channel bandwidth ``b_i``."""
        return self._bandwidths

    def _row(self, item_id: str) -> int:
        try:
            return self._allocation.database.index_of(item_id)
        except KeyError:
            raise SimulationError(
                f"no channel carries item {item_id!r}"
            ) from None

    def waiting_time(self, item_id: str, tune_in: float) -> float:
        """Waiting time for a request of ``item_id`` arriving at ``tune_in``."""
        if tune_in < 0 or not math.isfinite(tune_in):
            raise SimulationError(
                f"tune_in must be finite and >= 0, got {tune_in!r}"
            )
        row = self._row(item_id)
        return float(
            _waits(
                self._cycles[row],
                self._offsets[row],
                self._downloads[row],
                np.float64(tune_in),
            )
        )

    def waiting_times(self, rows: np.ndarray, tune_ins: np.ndarray) -> np.ndarray:
        """Waiting time of every request ``(rows[k], tune_ins[k])`` at once.

        ``rows`` are positions in the allocation's database and
        ``tune_ins`` finite, non-negative request times.  Slot starts
        are ``offset + n·cycle`` for ``n ≥ 0``; a request waits for the
        first start at or after its tune-in, then downloads the item.
        """
        return _waits(
            self._cycles[rows],
            self._offsets[rows],
            self._downloads[rows],
            np.asarray(tune_ins, dtype=np.float64),
        )

    def expected_waiting_time(self, item_id: str) -> float:
        """Analytical per-item expected waiting time (Eq. 1)."""
        row = self._row(item_id)
        return float(self._cycles[row]) / 2.0 + float(self._downloads[row])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastProgram(K={self.num_channels}, "
            f"items={len(self._cycles)})"
        )


def _waits(cycle, offset, download, t):
    """Wait until the first slot start ``offset + n·cycle >= t``, then
    the download — elementwise over arrays or on scalars alike."""
    # Ceil of the elapsed cycle fraction, then the round-down guard
    # for a computed start that float error lands just before t.
    start = offset + np.ceil((t - offset) / cycle) * cycle
    start = np.where(t <= offset, offset, start)
    start = np.where(start < t, start + cycle, start)
    return (start + download) - t
