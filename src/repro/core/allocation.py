"""Channel allocations — the output of every scheduling algorithm.

A :class:`ChannelAllocation` assigns every item of a
:class:`~repro.core.database.BroadcastDatabase` to exactly one of ``K``
broadcast channels (the disjoint item sets :math:`D_1 .. D_K` of the
paper).  The class validates the partition invariants once at
construction so that downstream consumers (cost model, simulator,
experiment harness) can trust any allocation they receive.

Storage model (structure of arrays)
-----------------------------------
The canonical state is the per-channel **catalogue-index groups** —
integer sequences indexing into the database's feature arrays, in
channel order.  Item tuples, the id→channel map and the per-channel
``(F_i, Z_i)`` aggregates are lazy views built on first access and
cached.  Algorithm hot paths construct allocations through the trusted
index-group constructors and read ``channel_index_groups`` /
``assignment_array`` directly, so a million-item refinement never
touches a :class:`DataItem`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.exceptions import InvalidAllocationError

__all__ = ["ChannelAllocation", "ChannelStats"]


class ChannelStats:
    """Aggregate statistics of one channel's item set.

    Attributes
    ----------
    frequency:
        Aggregate access frequency :math:`F_i` (paper, Definition 3).
    size:
        Aggregate size :math:`Z_i` (paper, Definition 4).
    count:
        Number of items :math:`N_i` on the channel.
    """

    __slots__ = ("frequency", "size", "count")

    def __init__(self, frequency: float, size: float, count: int) -> None:
        self.frequency = frequency
        self.size = size
        self.count = count

    @property
    def cost(self) -> float:
        """Channel cost :math:`cost(i) = F_i \\cdot Z_i` (paper, Def. 1)."""
        return self.frequency * self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChannelStats(F={self.frequency:.6g}, Z={self.size:.6g}, "
            f"N={self.count})"
        )


def _freeze_group(group):
    """Normalise one index group to its storage form (intp array)."""
    return np.asarray(group, dtype=np.intp)


class ChannelAllocation:
    """An assignment of database items to ``K`` broadcast channels.

    Parameters
    ----------
    database:
        The broadcast database being partitioned.
    channels:
        One sequence of :class:`DataItem` per channel.  Together the
        sequences must form an exact partition of the database.
    allow_empty_channels:
        The paper's formulation keeps every channel non-empty (an empty
        broadcast channel wastes bandwidth and makes :math:`W^{(i)}`
        undefined).  Pass ``True`` only for intermediate states.

    Notes
    -----
    Instances are immutable.  Algorithms that iteratively move items
    (e.g. CDS) operate on their own mutable working state and produce a
    fresh ``ChannelAllocation`` at the end.
    """

    __slots__ = ("_database", "_groups", "_channels", "_channel_of", "_stats")

    def __init__(
        self,
        database: BroadcastDatabase,
        channels: Sequence[Sequence[DataItem]],
        *,
        allow_empty_channels: bool = False,
    ) -> None:
        if not channels:
            raise InvalidAllocationError("an allocation needs at least 1 channel")
        frozen: List[Tuple[DataItem, ...]] = [tuple(group) for group in channels]
        channel_of: Dict[str, int] = {}
        groups: List[List[int]] = []
        for index, group in enumerate(frozen):
            if not group and not allow_empty_channels:
                raise InvalidAllocationError(
                    f"channel {index} is empty; pass allow_empty_channels=True "
                    "if this is intentional"
                )
            indices: List[int] = []
            for item in group:
                if item.item_id not in database:
                    raise InvalidAllocationError(
                        f"item {item.item_id!r} is not in the database"
                    )
                if database[item.item_id] != item:
                    raise InvalidAllocationError(
                        f"item {item.item_id!r} differs from the database copy"
                    )
                if item.item_id in channel_of:
                    raise InvalidAllocationError(
                        f"item {item.item_id!r} assigned to both channel "
                        f"{channel_of[item.item_id]} and channel {index}"
                    )
                channel_of[item.item_id] = index
                indices.append(database.index_of(item.item_id))
            groups.append(indices)
        if len(channel_of) != len(database):
            missing = sorted(set(database.item_ids) - set(channel_of))
            raise InvalidAllocationError(
                f"allocation does not cover the database; missing {missing}"
            )
        self._database = database
        self._groups = tuple(_freeze_group(g) for g in groups)
        # The given objects are the channel view — identity preserved.
        self._channels: Optional[Tuple[Tuple[DataItem, ...], ...]] = tuple(frozen)
        self._channel_of: Optional[Dict[str, int]] = channel_of
        self._stats: Optional[Tuple[ChannelStats, ...]] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def database(self) -> BroadcastDatabase:
        return self._database

    @property
    def num_channels(self) -> int:
        """The channel count ``K``."""
        return len(self._groups)

    @property
    def channel_index_groups(self):
        """Per-channel catalogue-index sequences (the canonical state).

        One intp array per channel, in channel order; item order within
        a channel is preserved.  Treat as read-only.
        """
        return self._groups

    @property
    def channels(self) -> Tuple[Tuple[DataItem, ...], ...]:
        """Per-channel item tuples :math:`D_1 .. D_K` (lazy views)."""
        if self._channels is None:
            items = self._database.items
            self._channels = tuple(
                tuple(items[int(i)] for i in group) for group in self._groups
            )
        return self._channels

    @property
    def channel_stats(self) -> Tuple[ChannelStats, ...]:
        """Per-channel :math:`(F_i, Z_i, N_i)` aggregates (lazy, cached).

        Computed straight off the database's feature arrays with exact
        ``math.fsum`` accumulation in channel item order — the same
        floats a per-item scan produces.
        """
        if self._stats is None:
            freq = self._database.frequencies
            size = self._database.sizes
            stats: List[ChannelStats] = []
            for group in self._groups:
                if len(group) == 0:
                    stats.append(ChannelStats(0.0, 0.0, 0))
                else:
                    stats.append(
                        ChannelStats(
                            frequency=math.fsum(freq[group].tolist()),
                            size=math.fsum(size[group].tolist()),
                            count=len(group),
                        )
                    )
            self._stats = tuple(stats)
        return self._stats

    def channel_of(self, item_id: str) -> int:
        """Index of the channel carrying ``item_id``."""
        if self._channel_of is None:
            database = self._database
            self._channel_of = {
                database.item_id_at(int(i)): channel
                for channel, group in enumerate(self._groups)
                for i in group
            }
        try:
            return self._channel_of[item_id]
        except KeyError:
            raise KeyError(f"no item {item_id!r} in this allocation") from None

    def channel_items(self, channel: int) -> Tuple[DataItem, ...]:
        return self.channels[channel]

    def as_id_lists(self) -> List[List[str]]:
        """Plain-data view: a list of item-id lists, one per channel."""
        database = self._database
        return [
            [database.item_id_at(int(i)) for i in group]
            for group in self._groups
        ]

    def assignment_array(self):
        """Channel index per item in catalogue order, as an intp array."""
        assignment = np.empty(len(self._database), dtype=np.intp)
        for channel, group in enumerate(self._groups):
            assignment[group] = channel
        return assignment

    def assignment_vector(self) -> List[int]:
        """Channel index per item, in database catalogue order.

        This is exactly the chromosome encoding GOPT uses.
        """
        return self.assignment_array().tolist()

    def __iter__(self) -> Iterator[Tuple[DataItem, ...]]:
        return iter(self.channels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelAllocation):
            return NotImplemented
        # Channel order matters for broadcasting; compare groups as sets
        # of catalogue indices per channel (within-channel order does not
        # affect cost).  Index sets are id sets once the databases match.
        return self._database == other._database and [
            frozenset(int(i) for i in group) for group in self._groups
        ] == [
            frozenset(int(i) for i in group) for group in other._groups
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(len(group)) for group in self._groups)
        return f"ChannelAllocation(K={self.num_channels}, sizes=[{sizes}])"

    # ------------------------------------------------------------------
    # Pickling — ship database + index groups, drop the lazy views
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"database": self._database, "groups": self._groups}

    def __setstate__(self, state) -> None:
        self._database = state["database"]
        self._groups = tuple(_freeze_group(g) for g in state["groups"])
        self._channels = None
        self._channel_of = None
        self._stats = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_id_lists(
        cls,
        database: BroadcastDatabase,
        id_lists: Iterable[Sequence[str]],
        *,
        allow_empty_channels: bool = False,
    ) -> "ChannelAllocation":
        """Build an allocation from per-channel lists of item ids."""
        groups: List[List[int]] = []
        channel_of: Dict[int, int] = {}
        materialized = [list(ids) for ids in id_lists]
        if not materialized:
            raise InvalidAllocationError("an allocation needs at least 1 channel")
        for channel, ids in enumerate(materialized):
            if not ids and not allow_empty_channels:
                raise InvalidAllocationError(
                    f"channel {channel} is empty; pass allow_empty_channels="
                    "True if this is intentional"
                )
            indices: List[int] = []
            for item_id in ids:
                index = database.index_of(item_id)  # KeyError on a miss
                if index in channel_of:
                    raise InvalidAllocationError(
                        f"item {item_id!r} assigned to both channel "
                        f"{channel_of[index]} and channel {channel}"
                    )
                channel_of[index] = channel
                indices.append(index)
            groups.append(indices)
        if len(channel_of) != len(database):
            missing = sorted(
                set(database.item_ids)
                - {database.item_id_at(i) for i in channel_of}
            )
            raise InvalidAllocationError(
                f"allocation does not cover the database; missing {missing}"
            )
        return cls._from_index_groups(database, groups)

    @classmethod
    def rebase(
        cls,
        database: BroadcastDatabase,
        source: "ChannelAllocation | Iterable[Sequence[str]]",
    ) -> "ChannelAllocation":
        """Apply the grouping of ``source`` onto ``database``.

        ``source`` is an allocation over an *earlier profile* of the
        same catalogue (same item ids, possibly different frequencies)
        or plain per-channel id lists.  Items are looked up fresh in
        ``database`` so the returned allocation carries the current
        frequencies — this is how warm starts re-seed CDS after drift.

        Raises
        ------
        InvalidAllocationError
            If the source grouping is not an exact cover of
            ``database``'s item ids.
        """
        if isinstance(source, ChannelAllocation):
            held = source._database
            if held.shares_ids_with(database) or held == database:
                # Same catalogue order: adopt the index groups.
                return cls._from_index_groups(database, source._groups)
            id_lists: List[List[str]] = source.as_id_lists()
        else:
            id_lists = [list(ids) for ids in source]
        groups: List[List[int]] = []
        seen: set = set()
        try:
            for ids in id_lists:
                groups.append([database.index_of(item_id) for item_id in ids])
                seen.update(ids)
        except KeyError as exc:
            raise InvalidAllocationError(
                f"cannot rebase: {exc.args[0]!r} is not in the database"
            ) from None
        if len(seen) != len(database) or len(seen) != sum(
            len(ids) for ids in id_lists
        ):
            raise InvalidAllocationError(
                f"cannot rebase: source ids do not partition the database "
                f"({len(seen)} distinct ids for {len(database)} items)"
            )
        # Every id resolved, none duplicated, the counts match — an
        # exact partition; skip the heavier item-equality re-validation.
        return cls._from_index_groups(database, groups)

    @classmethod
    def from_assignment_vector(
        cls,
        database: BroadcastDatabase,
        assignment: Sequence[int],
        num_channels: int,
        *,
        allow_empty_channels: bool = False,
    ) -> "ChannelAllocation":
        """Build an allocation from a channel index per catalogue item."""
        if len(assignment) != len(database):
            raise InvalidAllocationError(
                f"assignment length {len(assignment)} != database size "
                f"{len(database)}"
            )
        groups: List[List[int]] = [[] for _ in range(num_channels)]
        for index, channel in enumerate(assignment):
            channel = int(channel)
            if not 0 <= channel < num_channels:
                raise InvalidAllocationError(
                    f"channel index {channel} out of range [0, {num_channels})"
                )
            groups[channel].append(index)
        if not allow_empty_channels:
            for channel, group in enumerate(groups):
                if not group:
                    raise InvalidAllocationError(
                        f"channel {channel} is empty; pass "
                        "allow_empty_channels=True if this is intentional"
                    )
        return cls._from_index_groups(database, groups)

    def replace_channels(
        self,
        channels: Sequence[Sequence[DataItem]],
        *,
        allow_empty_channels: bool = False,
        validate: bool = True,
    ) -> "ChannelAllocation":
        """Return a new allocation over the same database.

        ``validate=False`` skips the O(N) partition checks and is
        reserved for callers that permuted the groups of an
        already-validated allocation (e.g. CDS moving items between its
        own channels): the item set provably cannot have changed.
        """
        if validate:
            return ChannelAllocation(
                self._database,
                channels,
                allow_empty_channels=allow_empty_channels,
            )
        return ChannelAllocation._trusted(self._database, channels)

    def replace_index_groups(
        self, groups: Sequence[Sequence[int]]
    ) -> "ChannelAllocation":
        """Trusted same-database rebuild from catalogue-index groups.

        The array-native sibling of ``replace_channels(validate=False)``
        — the caller guarantees ``groups`` is a permutation of the
        current partition (e.g. the SoA CDS loop's own move lists).
        """
        return ChannelAllocation._from_index_groups(self._database, groups)

    @classmethod
    def _trusted(
        cls,
        database: BroadcastDatabase,
        channels: Sequence[Sequence[DataItem]],
    ) -> "ChannelAllocation":
        """Build an allocation without partition validation.

        The caller guarantees ``channels`` is an exact partition of
        ``database`` into non-empty groups; aggregates are still
        computed (lazily).  Internal — algorithm hot paths only.
        """
        frozen: Tuple[Tuple[DataItem, ...], ...] = tuple(
            tuple(group) for group in channels
        )
        self = cls._from_index_groups(
            database,
            [
                [database.index_of(item.item_id) for item in group]
                for group in frozen
            ],
        )
        self._channels = frozen
        return self

    @classmethod
    def _from_index_groups(
        cls,
        database: BroadcastDatabase,
        groups,
    ) -> "ChannelAllocation":
        """Build an allocation from trusted catalogue-index groups.

        The zero-churn constructor every SoA hot path funnels through:
        no validation, no item objects, no id strings.  The caller
        guarantees the groups partition ``range(len(database))``.
        """
        self = object.__new__(cls)
        self._database = database
        self._groups = tuple(_freeze_group(g) for g in groups)
        self._channels = None
        self._channel_of = None
        self._stats = None
        return self

    def canonical(self) -> "ChannelAllocation":
        """Return an equivalent allocation in canonical form.

        Channels are sorted by their smallest catalogue index and items
        within each channel by catalogue order.  Canonical forms let
        tests compare solutions from algorithms with different internal
        channel numbering (channel labels are interchangeable — the cost
        function is symmetric under channel permutation).
        """
        sorted_groups = [
            sorted(int(i) for i in group) for group in self._groups
        ]
        sentinel = len(self._database)
        sorted_groups.sort(key=lambda group: group[0] if group else sentinel)
        return ChannelAllocation._from_index_groups(
            self._database, sorted_groups
        )
