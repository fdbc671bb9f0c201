"""Access-frequency estimation from request traces.

Closes the loop of the paper's Figure 1: the broadcast program is
generated from access frequencies, and these estimators produce the
frequencies from what the server actually observes.

Two trace estimators are provided:

* :class:`CountEstimator` — maximum-likelihood relative counts with
  additive (Laplace) smoothing.  Smoothing matters: the analytical model
  requires every catalogued item to have a positive frequency, and a
  finite trace may simply miss cold items.
* :class:`DecayEstimator` — exponentially time-decayed counts.  Under
  drifting popularity, recent requests carry more signal; the half-life
  controls the memory.

Both return frequencies aligned with a catalogue (an iterable of item
ids) and normalised to 1, ready for
:func:`estimate_database` to splice onto known item sizes.

The live service (:mod:`repro.service`) cannot keep a whole trace, so it
streams requests into :class:`DecayedCounts`: one decayed count per
catalogue item, updated in O(1) per request.  The allocator needs a
dense length-N profile at every epoch anyway, so O(N) state is the
floor for any estimator feeding it.

**The zero-frequency edge case.**  An item the stream never requested
is still in the catalogue, and with ``smoothing = 0`` its estimated
frequency is exactly 0.  The analytical model rejects that at two
depths: :class:`~repro.core.item.DataItem` refuses ``frequency <= 0``
on construction (``InvalidItemError``), and even if a zero slipped
through, Eq. (1)'s frequency-weighted average over a zero-frequency
channel is undefined (``InvalidAllocationError`` in
:mod:`repro.core.cost`).  :func:`estimate_database` therefore checks
the estimate up front and raises a :class:`SimulationError` naming the
unobserved items and the fix — the smoothing floor: any ``smoothing >
0`` gives every catalogued item a positive pseudo-count, at the price
of biasing hot items slightly down.  The streaming path
(:meth:`DecayedCounts.estimate_profile`) makes the same trade with the
same parameter.  Behaviour is pinned by
``tests/test_estimator.py::TestZeroFrequencyEdgeCases``.

This module is an extension beyond the paper (DESIGN.md §6).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.workloads.trace import RequestTrace

__all__ = [
    "CountEstimator",
    "DecayEstimator",
    "DecayedCounts",
    "estimate_database",
    "profile_l1_error",
]


class CountEstimator:
    """Smoothed maximum-likelihood frequency estimation.

    Parameters
    ----------
    smoothing:
        The additive pseudo-count per catalogue item (Laplace α).  With
        ``α = 0`` an unseen item would get frequency 0, which the model
        rejects; the default of 1 is the classical rule-of-succession
        choice.
    """

    def __init__(self, *, smoothing: float = 1.0) -> None:
        if smoothing < 0:
            raise SimulationError(
                f"smoothing must be >= 0, got {smoothing}"
            )
        self._smoothing = smoothing

    def estimate(
        self, trace: RequestTrace, catalogue: Sequence[str]
    ) -> Dict[str, float]:
        """Frequency per catalogue item id (sums to 1)."""
        _check_catalogue(catalogue)
        counts = trace.counts()
        unknown = set(counts) - set(catalogue)
        if unknown:
            raise SimulationError(
                f"trace references items outside the catalogue: "
                f"{sorted(unknown)[:5]}"
            )
        alpha = self._smoothing
        total = len(trace) + alpha * len(catalogue)
        if total <= 0:
            raise SimulationError(
                "cannot estimate from an empty trace with zero smoothing"
            )
        return {
            item_id: (counts.get(item_id, 0) + alpha) / total
            for item_id in catalogue
        }


class DecayEstimator:
    """Exponentially decayed counts for drifting popularity.

    A request at time ``t`` observed at reference time ``T`` contributes
    weight ``0.5 ** ((T - t) / half_life)``.  The reference time is the
    trace's last timestamp, so the newest request always has weight 1.

    Parameters
    ----------
    half_life:
        Time for a request's weight to halve (same unit as trace
        timestamps).  Must be positive.
    smoothing:
        Additive pseudo-weight per catalogue item, as in
        :class:`CountEstimator`.
    """

    def __init__(self, half_life: float, *, smoothing: float = 1.0) -> None:
        if not (half_life > 0 and math.isfinite(half_life)):
            raise SimulationError(
                f"half_life must be positive and finite, got {half_life}"
            )
        if smoothing < 0:
            raise SimulationError(
                f"smoothing must be >= 0, got {smoothing}"
            )
        self._half_life = half_life
        self._smoothing = smoothing

    def estimate(
        self, trace: RequestTrace, catalogue: Sequence[str]
    ) -> Dict[str, float]:
        """Decay-weighted frequency per catalogue item id (sums to 1)."""
        _check_catalogue(catalogue)
        weights: Dict[str, float] = {item_id: 0.0 for item_id in catalogue}
        if len(trace):
            reference = trace[len(trace) - 1].timestamp
            rate = math.log(2.0) / self._half_life
            for record in trace:
                if record.item_id not in weights:
                    raise SimulationError(
                        f"trace references item {record.item_id!r} outside "
                        "the catalogue"
                    )
                weights[record.item_id] += math.exp(
                    -rate * (reference - record.timestamp)
                )
        alpha = self._smoothing
        total = math.fsum(weights.values()) + alpha * len(catalogue)
        if total <= 0:
            raise SimulationError(
                "cannot estimate from an empty trace with zero smoothing"
            )
        return {
            item_id: (weight + alpha) / total
            for item_id, weight in weights.items()
        }


#: Rescale the counts once the inflation exponent passes this: 2**512 is
#: far inside float64 range (max exponent 1024), so no inflated
#: increment can overflow before the rescale triggers.
_RESCALE_EXPONENT = 512.0


class DecayedCounts:
    """Exponentially decayed request counts, one per catalogue item.

    The streaming form of :class:`DecayEstimator`: a request at stream
    time ``t`` read at reference time ``T`` weighs
    ``0.5 ** ((T - t) / half_life)``, but the counts absorb requests as
    they arrive instead of walking a stored trace.  An update stays O(1)
    by *inflation*: an arrival adds ``2 ** ((t - origin) / half_life)``
    and a query deflates by ``2 ** -((T - origin) / half_life)``.  Once
    the exponent passes 512 every count is rescaled and the origin
    moves to ``t``.

    Parameters
    ----------
    catalogue:
        Every item id a request may name.
    half_life:
        Time for a request's weight to halve, in the unit of the
        timestamps fed to :meth:`add`.  ``math.inf`` counts plain
        occurrences.
    """

    def __init__(self, catalogue: Sequence[str], *, half_life: float) -> None:
        _check_catalogue(catalogue)
        if not half_life > 0:
            raise SimulationError(f"half_life must be positive, got {half_life}")
        self.half_life = float(half_life)
        self._index = {item_id: row for row, item_id in enumerate(catalogue)}
        self._counts = [0.0] * len(self._index)
        self._origin = 0.0  # stream time the counts are scaled to
        self._last_timestamp: Optional[float] = None

    @property
    def state_size(self) -> int:
        """Number of held counts: one per catalogue item."""
        return len(self._counts)

    def add(self, item_id: str, *, timestamp: float) -> None:
        """Absorb one request for ``item_id`` at stream time ``timestamp``.

        Timestamps must be finite and non-decreasing (the order a
        server observes requests), and the id must be in the catalogue.
        """
        row = self._index.get(item_id)
        if row is None:
            raise SimulationError(f"item {item_id!r} is outside the catalogue")
        if not math.isfinite(timestamp):
            raise SimulationError(f"timestamp must be finite, got {timestamp!r}")
        if self._last_timestamp is not None and timestamp < self._last_timestamp:
            raise SimulationError(
                f"out-of-order arrival at t={timestamp} "
                f"(last was t={self._last_timestamp})"
            )
        self._last_timestamp = timestamp
        exponent = (timestamp - self._origin) / self.half_life
        if exponent > _RESCALE_EXPONENT:
            scale = 2.0 ** -exponent
            self._counts = [count * scale for count in self._counts]
            self._origin = timestamp
            exponent = 0.0
        self._counts[row] += 2.0 ** exponent

    def estimate_profile(
        self,
        catalogue: Sequence[str],
        *,
        smoothing: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> Dict[str, float]:
        """Smoothed, normalised frequency per item id of ``catalogue``.

        Each item gets ``(count + smoothing) / (Σ counts + smoothing ·
        |catalogue|)`` with the counts decayed to ``timestamp`` (default:
        the newest arrival, which then weighs 1 as in
        :class:`DecayEstimator`).
        """
        _check_catalogue(catalogue)
        if smoothing < 0:
            raise SimulationError(f"smoothing must be >= 0, got {smoothing}")
        if timestamp is None:
            timestamp = self._last_timestamp or 0.0
        deflation = 2.0 ** (-(timestamp - self._origin) / self.half_life)
        counts = []
        for item_id in catalogue:
            row = self._index.get(item_id)
            if row is None:
                raise SimulationError(
                    f"item {item_id!r} is outside the catalogue"
                )
            counts.append(self._counts[row] * deflation)
        total = math.fsum(counts) + smoothing * len(counts)
        if total <= 0:
            raise SimulationError(
                "cannot estimate from empty counts with zero smoothing"
            )
        return {
            item_id: (count + smoothing) / total
            for item_id, count in zip(catalogue, counts)
        }


def estimate_database(
    trace: RequestTrace,
    sizes: Mapping[str, float],
    *,
    estimator: "CountEstimator | DecayEstimator | None" = None,
) -> BroadcastDatabase:
    """Build a broadcast database from a trace and known item sizes.

    ``sizes`` is the catalogue: every item the server can broadcast,
    with its size.  Frequencies come from the estimator (default: a
    :class:`CountEstimator` with Laplace smoothing).
    """
    if not sizes:
        raise SimulationError("the catalogue of sizes cannot be empty")
    if estimator is None:
        estimator = CountEstimator()
    catalogue = list(sizes)
    frequencies = estimator.estimate(trace, catalogue)
    unobserved = [
        item_id for item_id in catalogue if frequencies[item_id] <= 0.0
    ]
    if unobserved:
        # Surface the modelling problem here, with a fix, rather than
        # letting DataItem's InvalidItemError (or, later, the cost
        # model's InvalidAllocationError for a zero-frequency channel)
        # fire deep inside the allocation path.
        raise SimulationError(
            f"{len(unobserved)} catalogue item(s) were never observed in "
            f"the trace and got frequency 0 (first: {unobserved[:3]}); the "
            "analytical model requires every item to have positive "
            "frequency — use an estimator with smoothing > 0"
        )
    items: List[DataItem] = [
        DataItem(item_id, frequency=frequencies[item_id], size=sizes[item_id])
        for item_id in catalogue
    ]
    return BroadcastDatabase(items)


def profile_l1_error(
    estimated: Mapping[str, float], truth: Mapping[str, float]
) -> float:
    """Total variation-style L1 distance between two frequency profiles.

    Both mappings must cover the same item ids.  Range [0, 2]; 0 means a
    perfect estimate.
    """
    if set(estimated) != set(truth):
        missing = sorted(set(truth) - set(estimated))
        extra = sorted(set(estimated) - set(truth))
        raise SimulationError(
            "estimated and true profiles cover different items "
            f"(missing from estimate: {missing[:5]}, "
            f"not in truth: {extra[:5]})"
        )
    return math.fsum(
        abs(estimated[item_id] - truth[item_id]) for item_id in truth
    )


def _check_catalogue(catalogue: Sequence[str]) -> None:
    if not catalogue:
        raise SimulationError("catalogue cannot be empty")
    if len(set(catalogue)) != len(catalogue):
        raise SimulationError("catalogue contains duplicate item ids")
