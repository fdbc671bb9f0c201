"""Access-frequency estimation from request streams.

Closes the loop of the paper's Figure 1: the broadcast program is
generated from access frequencies, and :class:`DecayedCounts` produces
the frequencies from what the server actually observes.  It holds one
exponentially decayed count per catalogue item and absorbs each chunk
of requests in one vectorised pass; under drifting popularity recent
requests carry more signal, and the half-life controls the memory.
``half_life=math.inf`` counts plain occurrences (the maximum-likelihood
estimate).  The allocator needs a dense length-N profile at every
epoch anyway, so O(N) state is the floor for any estimator feeding it.

**The zero-frequency edge case.**  An item the stream never requested
is still in the catalogue, and with ``smoothing = 0`` its estimated
frequency is exactly 0.  The analytical model rejects that at two
depths: :class:`~repro.core.item.DataItem` refuses ``frequency <= 0``
on construction (``InvalidItemError``), and even if a zero slipped
through, Eq. (1)'s frequency-weighted average over a zero-frequency
channel is undefined (``InvalidAllocationError`` in
:mod:`repro.core.cost`).  The live service
(:class:`~repro.service.BroadcastService`) therefore checks each
estimated profile before building a database from it and raises a
:class:`SimulationError` naming the unobserved items and the fix — the
smoothing floor: any ``smoothing > 0`` gives every catalogued item a
positive pseudo-count, at the price of biasing hot items slightly
down.  Behaviour is pinned by
``tests/test_estimator.py::TestZeroFrequencyEdgeCases``.

This module is an extension beyond the paper (DESIGN.md §6).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["DecayedCounts", "profile_l1_error"]


#: Rescale the counts once the inflation exponent passes this: 2**512 is
#: far inside float64 range (max exponent 1024), so no inflated
#: increment can overflow before the rescale triggers.
_RESCALE_EXPONENT = 512.0


class DecayedCounts:
    """Exponentially decayed request counts, one per catalogue item.

    A request at stream time ``t`` read at reference time ``T`` weighs
    ``0.5 ** ((T - t) / half_life)``, and the counts absorb requests as
    they arrive instead of walking a stored trace.  An update needs no
    pass over the counts, by *inflation*: an arrival adds
    ``2 ** ((t - origin) / half_life)`` and a query deflates by
    ``2 ** -((T - origin) / half_life)``.  Once the exponent passes 512
    every count is rescaled and the origin moves to ``t``.

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
        self._counts = np.zeros(len(self._index), dtype=np.float64)
        self._origin = 0.0  # stream time the counts are scaled to
        self._last_timestamp: Optional[float] = None

    @property
    def state_size(self) -> int:
        """Number of held counts: one per catalogue item."""
        return len(self._counts)

    def rows(self, items: Sequence[str]) -> np.ndarray:
        """Catalogue rows of the item ids ``items``: what :meth:`add` takes."""
        try:
            return np.fromiter(
                map(self._index.__getitem__, items),
                dtype=np.intp,
                count=len(items),
            )
        except KeyError as exc:
            raise SimulationError(
                f"item {exc.args[0]!r} is outside the catalogue"
            ) from None

    def add(
        self,
        rows: np.ndarray,
        timestamps: Union[Sequence[float], np.ndarray],
    ) -> None:
        """Absorb a chunk of requests: row ``rows[k]`` at ``timestamps[k]``.

        ``rows`` are the requested items' catalogue rows
        (:meth:`rows`), as an integer array.  Timestamps must be finite
        and non-decreasing (the order a server observes requests), also
        across calls.  A chunk with a row outside the catalogue or a bad
        timestamp is rejected whole, leaving the counts untouched.

        The counts come out bit for bit as if each request were added
        on its own: every weight is Python's ``2.0 ** exponent``
        (``numpy.exp2`` can differ in the last bit), and ``np.add.at``
        adds them in arrival order.
        """
        rows = np.asarray(rows)
        times = np.asarray(timestamps, dtype=np.float64)
        if len(times) != len(rows):
            raise SimulationError(
                f"got {len(times)} timestamps for {len(rows)} rows"
            )
        if not len(rows):
            return
        if rows.dtype.kind not in "iu":
            raise SimulationError(
                f"rows must be integer catalogue rows, got dtype {rows.dtype}"
            )
        outside = (rows < 0) | (rows >= len(self._counts))
        if outside.any():
            row = int(rows[np.argmax(outside)])
            raise SimulationError(f"row {row} is outside the catalogue")
        finite = np.isfinite(times)
        if not finite.all():
            value = float(times[np.argmin(finite)])
            raise SimulationError(f"timestamp must be finite, got {value!r}")
        last = times[0] if self._last_timestamp is None else self._last_timestamp
        previous = np.concatenate(([last], times[:-1]))
        backwards = times < previous
        if backwards.any():
            at = int(np.argmax(backwards))
            raise SimulationError(
                f"out-of-order arrival at t={float(times[at])} "
                f"(last was t={float(previous[at])})"
            )
        self._last_timestamp = float(times[-1])
        exponents = (times - self._origin) / self.half_life
        start = 0
        while True:
            over = exponents[start:] > _RESCALE_EXPONENT
            stop = start + int(np.argmax(over)) if over.any() else len(rows)
            weights = [2.0**e for e in exponents[start:stop].tolist()]
            np.add.at(self._counts, rows[start:stop], weights)
            if stop == len(rows):
                return
            self._counts *= 2.0 ** -float(exponents[stop])
            self._origin = float(times[stop])
            exponents[stop:] = (times[stop:] - self._origin) / self.half_life
            start = stop

    def profile(
        self,
        rows: Optional[np.ndarray] = None,
        *,
        smoothing: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> np.ndarray:
        """Smoothed, normalised frequency per catalogue row, as an array.

        Each of ``rows`` (default: every row, in catalogue order) gets
        ``(count + smoothing) / (Σ counts + smoothing · len(rows))``,
        summing over ``rows`` only, with the counts decayed to
        ``timestamp`` (default: the newest arrival, which then weighs 1).
        """
        if smoothing < 0:
            raise SimulationError(f"smoothing must be >= 0, got {smoothing}")
        if timestamp is None:
            timestamp = self._last_timestamp or 0.0
        deflation = 2.0 ** (-(timestamp - self._origin) / self.half_life)
        counts = self._counts if rows is None else self._counts[rows]
        counts = counts * deflation
        total = math.fsum(counts.tolist()) + smoothing * len(counts)
        if total <= 0:
            raise SimulationError(
                "cannot estimate from empty counts with zero smoothing"
            )
        counts += smoothing
        counts /= total
        return counts

    def estimate_profile(
        self,
        catalogue: Sequence[str],
        *,
        smoothing: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> Dict[str, float]:
        """:meth:`profile` over the item ids ``catalogue``, keyed by id."""
        _check_catalogue(catalogue)
        profile = self.profile(
            self.rows(catalogue), smoothing=smoothing, timestamp=timestamp
        )
        return dict(zip(catalogue, profile.tolist()))


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
