"""A cyclic broadcast channel.

A channel repeatedly transmits its item sequence at fixed bandwidth.
The broadcast cycle of channel ``c_i`` lasts ``Z_i / b`` seconds (the
aggregate item size over the bandwidth); item ``j`` occupies a fixed
slot ``[offset_j, offset_j + z_j / b)`` within every cycle.

The timing model matches the paper's analytical assumptions: a client
that tunes in at time ``t`` wanting item ``x`` must wait for the *start*
of the next full transmission of ``x`` (a partially received
transmission is useless) and then download it completely.  Averaged over
a uniformly random tune-in time this gives exactly Eq. (1):
``E[wait] = cycle/2 + z_x / b``.

This per-item, one-request-at-a-time channel is the scalar reference:
the event-driven :func:`repro.verify.reference.simulate_reference`
broadcasts on it, and the ``oracle.simulators`` check holds the
array-based :class:`~repro.simulation.server.BroadcastProgram` of the
production path to it bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from repro.core.item import DataItem
from repro.exceptions import SimulationError

__all__ = ["BroadcastChannel"]


class BroadcastChannel:
    """Deterministic cyclic transmission schedule for one channel.

    Parameters
    ----------
    channel_id:
        Index of the channel within the program (0-based).
    items:
        Transmission order within a cycle.  Any order is valid; the
        expected waiting time is order-independent under uniform
        tune-in, but concrete per-request waits do depend on it.
    bandwidth:
        Channel bandwidth ``b`` in size units per second.
    """

    __slots__ = ("channel_id", "_items", "_bandwidth", "_offsets", "_cycle")

    def __init__(
        self,
        channel_id: int,
        items: Sequence[DataItem],
        bandwidth: float,
    ) -> None:
        if not items:
            raise SimulationError(
                f"channel {channel_id} has no items to broadcast"
            )
        if not (
            isinstance(bandwidth, (int, float))
            and bandwidth > 0
            and math.isfinite(bandwidth)
        ):
            raise SimulationError(
                f"bandwidth must be positive and finite, got {bandwidth!r}"
            )
        self.channel_id = channel_id
        self._items: Tuple[DataItem, ...] = tuple(items)
        self._bandwidth = float(bandwidth)
        offsets: Dict[str, float] = {}
        elapsed = 0.0
        for item in self._items:
            if item.item_id in offsets:
                raise SimulationError(
                    f"item {item.item_id!r} appears twice on channel "
                    f"{channel_id}"
                )
            offsets[item.item_id] = elapsed
            elapsed += item.size / self._bandwidth
        self._offsets = offsets
        self._cycle = elapsed

    @property
    def items(self) -> Tuple[DataItem, ...]:
        return self._items

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def cycle_length(self) -> float:
        """Duration of one broadcast cycle in seconds (``Z_i / b``)."""
        return self._cycle

    def carries(self, item_id: str) -> bool:
        return item_id in self._offsets

    def transmission_time(self, item_id: str) -> float:
        """Download duration ``z / b`` of one item."""
        return self._item(item_id).size / self._bandwidth

    def slot_offset(self, item_id: str) -> float:
        """Start offset of the item's slot within a cycle (seconds)."""
        if item_id not in self._offsets:
            raise SimulationError(
                f"channel {self.channel_id} does not carry {item_id!r}"
            )
        return self._offsets[item_id]

    def next_transmission_start(self, item_id: str, tune_in: float) -> float:
        """Earliest start ≥ ``tune_in`` of a full transmission of the item.

        The channel started cycle 0 at time 0 and repeats forever, so
        starts occur at ``offset + n · cycle`` for integer ``n ≥ 0``.
        """
        if tune_in < 0 or not math.isfinite(tune_in):
            raise SimulationError(
                f"tune_in must be finite and >= 0, got {tune_in!r}"
            )
        offset = self.slot_offset(item_id)
        if tune_in <= offset:
            return offset
        cycles_elapsed = math.ceil((tune_in - offset) / self._cycle)
        start = offset + cycles_elapsed * self._cycle
        # Guard against float round-down placing the start before tune_in.
        if start < tune_in:
            start += self._cycle
        return start

    def delivery_completion(self, item_id: str, tune_in: float) -> float:
        """Completion time of the request: next full transmission end."""
        start = self.next_transmission_start(item_id, tune_in)
        return start + self.transmission_time(item_id)

    def waiting_time(self, item_id: str, tune_in: float) -> float:
        """Waiting time (probe + download) for a tune-in at ``tune_in``."""
        return self.delivery_completion(item_id, tune_in) - tune_in

    def expected_waiting_time(self, item_id: str) -> float:
        """Analytical expectation of :meth:`waiting_time` — Eq. (1).

        Uniform tune-in over a cycle waits ``cycle/2`` on average for the
        slot start, plus the download time.
        """
        return self._cycle / 2.0 + self.transmission_time(item_id)

    def _item(self, item_id: str) -> DataItem:
        for item in self._items:
            if item.item_id == item_id:
                return item
        raise SimulationError(
            f"channel {self.channel_id} does not carry {item_id!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastChannel(id={self.channel_id}, items={len(self._items)}, "
            f"cycle={self._cycle:.6g}s)"
        )
