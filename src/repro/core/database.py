"""The broadcast database ``D`` — the collection of items to disseminate.

The database owns the global invariants the paper assumes:

* item identifiers are unique,
* access frequencies form a probability distribution
  (:math:`\\sum_i \\sum_j f_j^{(i)} = 1`),
* the benefit-ratio order used by DRP is well defined.

It also exposes the derived quantities every algorithm needs (aggregate
frequency/size, items sorted by benefit ratio) so that callers never
recompute them ad hoc.

Storage model (structure of arrays)
-----------------------------------
The canonical state is **array-resident**: two contiguous float64
arrays (``frequencies``, ``sizes``) plus the id metadata.  Per-item
:class:`DataItem` objects and the id→index map are *views* created
lazily the first time an object-level API (``items``, ``__getitem__``,
``subset`` …) is touched, then cached.  Algorithm hot paths (DRP, CDS,
the contiguous DP, the incremental engine) read the arrays directly and
never materialise items, which is what lets a single database scale to
millions of items.  Databases built from explicit :class:`DataItem`
objects keep those exact objects as the (pre-populated) view cache, so
the object-level API is unchanged — including identity.

Construction parity: building from items and building from arrays with
the same floats yields equal databases (same totals, same order, same
hash) — ``repro verify`` carries a differential oracle for it.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.item import DataItem
from repro.exceptions import InvalidDatabaseError, InvalidItemError

__all__ = ["BroadcastDatabase", "FREQUENCY_SUM_TOLERANCE"]

#: Absolute tolerance when checking that frequencies sum to one.  The
#: paper's Table 2 itself only sums to 1.0 within rounding (4 decimal
#: digits per entry), so exact equality would reject the paper's own data.
FREQUENCY_SUM_TOLERANCE = 1e-3


def _record_materialization(count: int) -> None:
    """Bump the ``core.items_materialized`` counter when metrics are on."""
    from repro import obs

    registry = obs.get_metrics()
    if registry.enabled:
        registry.counter("core.items_materialized").inc(count)


class BroadcastDatabase:
    """Immutable collection of broadcast items (array-resident).

    Parameters
    ----------
    items:
        The data items.  Order is preserved (it is the "catalogue order"),
        but most algorithms operate on :meth:`sorted_by_benefit_ratio`.
    require_normalized:
        When true (default), the access frequencies must sum to 1 within
        :data:`FREQUENCY_SUM_TOLERANCE`.  Set to false for intermediate
        profiles and call :meth:`normalized` to rescale.

    Examples
    --------
    >>> db = BroadcastDatabase([
    ...     DataItem("a", 0.5, 2.0),
    ...     DataItem("b", 0.5, 1.0),
    ... ])
    >>> db.total_size
    3.0
    >>> [item.item_id for item in db.sorted_by_benefit_ratio()]
    ['b', 'a']
    """

    __slots__ = (
        "_freq",
        "_size",
        "_ids",
        "_id_prefix",
        "_labels",
        "_total_frequency",
        "_total_size",
        # lazy caches (never pickled)
        "_items",
        "_index_by_id",
        "_br_order",
    )

    def __init__(
        self,
        items: Iterable[DataItem],
        *,
        require_normalized: bool = True,
    ) -> None:
        item_list: List[DataItem] = list(items)
        if not item_list:
            raise InvalidDatabaseError("a broadcast database cannot be empty")
        index_by_id: Dict[str, int] = {}
        for index, item in enumerate(item_list):
            if not isinstance(item, DataItem):
                raise InvalidDatabaseError(
                    f"database entries must be DataItem, got {type(item).__name__}"
                )
            if item.item_id in index_by_id:
                raise InvalidDatabaseError(
                    f"duplicate item_id {item.item_id!r} in database"
                )
            index_by_id[item.item_id] = index
        freq = [item.frequency for item in item_list]
        size = [item.size for item in item_list]
        total_frequency = math.fsum(freq)
        if require_normalized and abs(total_frequency - 1.0) > FREQUENCY_SUM_TOLERANCE:
            raise InvalidDatabaseError(
                "access frequencies must sum to 1 "
                f"(got {total_frequency:.6f}); build with "
                "require_normalized=False and call .normalized() to rescale"
            )
        self._freq = self._freeze(freq)
        self._size = self._freeze(size)
        self._ids: Optional[Tuple[str, ...]] = tuple(
            item.item_id for item in item_list
        )
        self._id_prefix: Optional[str] = None
        labels = tuple(item.label for item in item_list)
        self._labels: Optional[Tuple[Optional[str], ...]] = (
            labels if any(label is not None for label in labels) else None
        )
        self._total_frequency = total_frequency
        self._total_size = math.fsum(size)
        # The given objects *are* the item view — identity preserved.
        self._items: Optional[Tuple[DataItem, ...]] = tuple(item_list)
        self._index_by_id: Optional[Dict[str, int]] = index_by_id
        self._br_order = None

    @staticmethod
    def _freeze(values: Sequence[float]):
        """Per-item feature storage: a read-only float64 array."""
        array = np.array(values, dtype=np.float64)
        array.setflags(write=False)
        return array

    # ------------------------------------------------------------------
    # Array-native constructor
    # ------------------------------------------------------------------
    @classmethod
    def from_soa(
        cls,
        frequencies: Sequence[float],
        sizes: Sequence[float],
        *,
        ids: Optional[Sequence[str]] = None,
        id_prefix: str = "d",
        labels: Optional[Sequence[Optional[str]]] = None,
        require_normalized: bool = True,
    ) -> "BroadcastDatabase":
        """Build a database directly from feature arrays (zero items).

        The structure-of-arrays twin of ``__init__``: validates the
        per-item invariants (finite, positive) vectorized, never
        constructs a :class:`DataItem`.  When ``ids`` is omitted, item
        ids are *virtual* — ``{id_prefix}{i+1}`` — and only rendered to
        strings on demand (:meth:`item_id_at`, ``item_ids``).

        Equal floats produce a database equal (and hash-equal) to the
        object-built one; the ``database-construction`` verify oracle
        pins that parity.
        """
        if len(frequencies) != len(sizes):
            raise InvalidDatabaseError(
                "frequencies and sizes must have equal length "
                f"({len(frequencies)} != {len(sizes)})"
            )
        if len(frequencies) == 0:
            raise InvalidDatabaseError("a broadcast database cannot be empty")
        if ids is not None and len(ids) != len(frequencies):
            raise InvalidDatabaseError(
                f"ids length {len(ids)} != feature length {len(frequencies)}"
            )
        if labels is not None and len(labels) != len(frequencies):
            raise InvalidDatabaseError(
                f"labels length {len(labels)} != feature length {len(frequencies)}"
            )
        self = object.__new__(cls)
        self._freq = cls._freeze(frequencies)
        self._size = cls._freeze(sizes)
        self._ids = tuple(ids) if ids is not None else None
        self._id_prefix = id_prefix if ids is None else None
        self._labels = tuple(labels) if labels is not None else None
        self._items = None
        self._index_by_id = None
        self._br_order = None
        self._validate_soa(require_normalized)
        return self

    def _validate_soa(
        self,
        require_normalized: bool,
        *,
        template: Optional["BroadcastDatabase"] = None,
    ) -> None:
        """Check the features and ids; set the totals.

        ``template`` is a validated database whose ids and sizes this
        one shares: their checks and the size total are taken from it.
        """
        freq, size = self._freq, self._size
        bad = ~(np.isfinite(freq) & (freq > 0.0))
        if template is None:
            bad |= ~(np.isfinite(size) & (size > 0.0))
        if bool(bad.any()):
            index = int(np.argmax(bad))
            raise InvalidItemError(
                f"features of {self.item_id_at(index)!r} must be finite "
                f"and > 0, got frequency={float(freq[index])!r} "
                f"size={float(size[index])!r}"
            )
        if self._ids is not None and template is None:
            seen: Dict[str, int] = {}
            for item_id in self._ids:
                if item_id in seen:
                    raise InvalidDatabaseError(
                        f"duplicate item_id {item_id!r} in database"
                    )
                seen[item_id] = 1
        total_frequency = math.fsum(freq.tolist())
        if require_normalized and abs(total_frequency - 1.0) > FREQUENCY_SUM_TOLERANCE:
            raise InvalidDatabaseError(
                "access frequencies must sum to 1 "
                f"(got {total_frequency:.6f}); build with "
                "require_normalized=False and call .normalized() to rescale"
            )
        self._total_frequency = total_frequency
        self._total_size = (
            math.fsum(size.tolist())
            if template is None
            else template._total_size
        )

    # ------------------------------------------------------------------
    # Array accessors (the hot-path API)
    # ------------------------------------------------------------------
    @property
    def frequencies(self):
        """Per-item access frequencies in catalogue order.

        A read-only float64 array.
        The exact floats the item view exposes — no copies, no rounding.
        """
        return self._freq

    @property
    def sizes(self):
        """Per-item sizes in catalogue order (read-only float64 array)."""
        return self._size

    def item_id_at(self, index: int) -> str:
        """The id of catalogue position ``index`` without materialising
        the whole id tuple (virtual ids render on demand)."""
        if self._ids is not None:
            return self._ids[index]
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        if index < 0:
            index += len(self)
        return f"{self._id_prefix}{index + 1}"

    def index_of(self, item_id: str) -> int:
        """Catalogue position of ``item_id`` (KeyError when absent)."""
        index_by_id = self._id_index()
        try:
            return index_by_id[item_id]
        except KeyError:
            raise KeyError(f"no item {item_id!r} in database") from None

    def benefit_ratio_order(self):
        """Catalogue indices sorted by descending benefit ratio ``f/z``.

        Ties break by catalogue order (stable sort), exactly matching
        :meth:`sorted_by_benefit_ratio`; the result is cached.  Returns
        a read-only intp array.
        """
        if self._br_order is None:
            order = np.argsort(-(self._freq / self._size), kind="stable")
            order.setflags(write=False)
            self._br_order = order
        return self._br_order

    def frequency_order(self):
        """Catalogue indices sorted by descending access frequency."""
        return np.argsort(-self._freq, kind="stable")

    def with_frequencies(
        self,
        frequencies: Sequence[float],
        *,
        require_normalized: bool = True,
    ) -> "BroadcastDatabase":
        """A copy with replaced frequencies (ids, sizes, labels shared).

        The array-native profile update the incremental engine uses —
        no per-item objects are built.  The id index is built here if
        need be and shared too, so a chain of clones builds it once.
        Only the new frequencies are validated: the shared ids and
        sizes already were.
        """
        if len(frequencies) != len(self):
            raise InvalidDatabaseError(
                f"frequencies length {len(frequencies)} != database size "
                f"{len(self)}"
            )
        clone = object.__new__(BroadcastDatabase)
        clone._freq = self._freeze(frequencies)
        clone._size = self._size
        clone._ids = self._ids
        clone._id_prefix = self._id_prefix
        clone._labels = self._labels
        clone._items = None
        clone._index_by_id = self._id_index()
        clone._br_order = None
        clone._validate_soa(require_normalized, template=self)
        return clone

    def shares_ids_with(self, other: "BroadcastDatabase") -> bool:
        """Whether ``other`` holds these item ids in this order, by
        construction — an O(1) check.

        True when both hold one id tuple (every :meth:`with_frequencies`
        clone shares its source's) or the same virtual ids.  False
        otherwise, even for equal ids held twice: callers then take
        their id-based path.
        """
        if self._ids is not None:
            return self._ids is other._ids
        return (
            other._ids is None
            and self._id_prefix == other._id_prefix
            and len(self) == len(other)
        )

    # ------------------------------------------------------------------
    # Lazy view materialisation
    # ------------------------------------------------------------------
    def _materialize_items(self) -> Tuple[DataItem, ...]:
        freq = self._freq.tolist()
        size = self._size.tolist()
        labels = self._labels
        items = tuple(
            DataItem(
                self.item_id_at(i),
                freq[i],
                size[i],
                label=labels[i] if labels is not None else None,
            )
            for i in range(len(freq))
        )
        _record_materialization(len(items))
        return items

    def _id_index(self) -> Dict[str, int]:
        if self._index_by_id is None:
            self._index_by_id = {
                self.item_id_at(i): i for i in range(len(self))
            }
        return self._index_by_id

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._freq)

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self.items)

    def __contains__(self, item_id: object) -> bool:
        return item_id in self._id_index()

    def __getitem__(self, item_id: str) -> DataItem:
        return self.items[self.index_of(item_id)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BroadcastDatabase):
            return NotImplemented
        if self is other:
            return True
        if len(self) != len(other):
            return False
        if not (
            np.array_equal(self._freq, other._freq)
            and np.array_equal(self._size, other._size)
        ):
            return False
        if (
            self._ids is None
            and other._ids is None
            and self._id_prefix == other._id_prefix
        ):
            return True
        return self.item_ids == other.item_ids

    def __hash__(self) -> int:
        features = (self._freq.tobytes(), self._size.tobytes())
        return hash((self.item_ids, features))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastDatabase(n={len(self)}, total_size={self._total_size:.6g})"
        )

    # ------------------------------------------------------------------
    # Pickling — ship the arrays, drop the lazy caches
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "freq": self._freq,
            "size": self._size,
            "ids": self._ids,
            "id_prefix": self._id_prefix,
            "labels": self._labels,
            "total_frequency": self._total_frequency,
            "total_size": self._total_size,
        }

    def __setstate__(self, state) -> None:
        self._freq = state["freq"]
        self._size = state["size"]
        self._freq.setflags(write=False)
        self._size.setflags(write=False)
        self._ids = state["ids"]
        self._id_prefix = state["id_prefix"]
        self._labels = state["labels"]
        self._total_frequency = state["total_frequency"]
        self._total_size = state["total_size"]
        self._items = None
        self._index_by_id = None
        self._br_order = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def items(self) -> Tuple[DataItem, ...]:
        """The items in catalogue order (materialised lazily, cached)."""
        if self._items is None:
            self._items = self._materialize_items()
        return self._items

    @property
    def item_ids(self) -> Tuple[str, ...]:
        if self._ids is None:
            self._ids = tuple(
                f"{self._id_prefix}{i + 1}" for i in range(len(self))
            )
        return self._ids

    @property
    def total_frequency(self) -> float:
        """Sum of access frequencies (≈ 1 for a normalised database)."""
        return self._total_frequency

    @property
    def total_size(self) -> float:
        """Aggregate size of the whole database, :math:`\\sum z`."""
        return self._total_size

    @property
    def is_normalized(self) -> bool:
        return abs(self._total_frequency - 1.0) <= FREQUENCY_SUM_TOLERANCE

    @property
    def fixed_download_cost(self) -> float:
        """The allocation-independent term :math:`\\sum f_i z_i` of Eq. (2)."""
        return math.fsum((self._freq * self._size).tolist())

    def sorted_by_benefit_ratio(self) -> Tuple[DataItem, ...]:
        """Items sorted by benefit ratio ``f/z`` in descending order.

        Ties are broken by catalogue order so the sort is deterministic;
        DRP's behaviour is then reproducible for any input.
        """
        items = self.items
        return tuple(items[int(i)] for i in self.benefit_ratio_order())

    def sorted_by_frequency(self) -> Tuple[DataItem, ...]:
        """Items sorted by access frequency in descending order.

        This is the order conventional (equal item size) algorithms such
        as VF^K operate on.
        """
        items = self.items
        return tuple(items[int(i)] for i in self.frequency_order())

    # ------------------------------------------------------------------
    # Constructors / transforms
    # ------------------------------------------------------------------
    def normalized(self) -> "BroadcastDatabase":
        """Return a copy whose frequencies are rescaled to sum to 1."""
        factor = 1.0 / self._total_frequency
        return self.with_frequencies(self._freq * factor)

    def subset(self, item_ids: Sequence[str]) -> Tuple[DataItem, ...]:
        """Look up a sequence of items by id, preserving the given order."""
        return tuple(self[item_id] for item_id in item_ids)

    @classmethod
    def from_pairs(
        cls,
        pairs: Mapping[str, Tuple[float, float]],
        *,
        require_normalized: bool = True,
    ) -> "BroadcastDatabase":
        """Build a database from ``{item_id: (frequency, size)}``.

        Iteration order of the mapping defines catalogue order.
        """
        return cls(
            (
                DataItem(item_id, frequency=freq, size=size)
                for item_id, (freq, size) in pairs.items()
            ),
            require_normalized=require_normalized,
        )

    @classmethod
    def from_arrays(
        cls,
        frequencies: Sequence[float],
        sizes: Sequence[float],
        *,
        prefix: str = "d",
        require_normalized: bool = True,
    ) -> "BroadcastDatabase":
        """Build a database from parallel frequency/size arrays.

        Items are named ``{prefix}1 .. {prefix}N`` following the paper's
        convention.  Array-resident: no per-item objects are created
        until an object-level accessor is touched.
        """
        return cls.from_soa(
            frequencies,
            sizes,
            id_prefix=prefix,
            require_normalized=require_normalized,
        )
