"""The client side: request generation for the broadcast simulation.

Mobile users are modelled as an aggregate Poisson request stream (the
standard teletraffic assumption, and the one under which the paper's
uniform-tune-in expectation holds): requests arrive with exponential
inter-arrival times, each request asks for item ``d_i`` with probability
``f_i`` — the access frequencies the broadcast program was optimised
for.  An optional *mismatch* knob perturbs the request distribution away
from the profile to study stale-profile behaviour (an extension, used in
tests and one example).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.database import BroadcastDatabase
from repro.exceptions import SimulationError

__all__ = ["RequestGenerator"]


class RequestGenerator:
    """Poisson request stream over a broadcast database.

    Parameters
    ----------
    database:
        The broadcast database; request probabilities default to its
        access frequencies (renormalised defensively).
    arrival_rate:
        Poisson rate λ in requests per second.
    seed:
        RNG seed for reproducible streams.
    request_probabilities:
        Optional override of the per-item request distribution (in
        catalogue order); must be non-negative and sum to a positive
        value.  Used to model client populations whose actual
        interests drifted from the collected profile.
    """

    def __init__(
        self,
        database: BroadcastDatabase,
        *,
        arrival_rate: float = 1.0,
        seed: int = 0,
        request_probabilities: Optional[Sequence[float]] = None,
    ) -> None:
        if not (isinstance(arrival_rate, (int, float)) and arrival_rate > 0):
            raise SimulationError(
                f"arrival_rate must be positive, got {arrival_rate!r}"
            )
        self._database = database
        self._rate = float(arrival_rate)
        self._rng = np.random.default_rng(seed)
        if request_probabilities is None:
            weights = database.frequencies
        else:
            weights = np.asarray(request_probabilities, dtype=np.float64)
            if len(weights) != len(database):
                raise SimulationError(
                    f"got {len(weights)} request probabilities for "
                    f"{len(database)} items"
                )
            if np.any(weights < 0) or weights.sum() <= 0:
                raise SimulationError(
                    "request probabilities must be non-negative with a "
                    "positive sum"
                )
        self._probabilities = weights / weights.sum()

    @property
    def arrival_rate(self) -> float:
        return self._rate

    @property
    def item_ids(self) -> Sequence[str]:
        """Item ids in draw-index order (``sample_batch`` rows)."""
        return self._database.item_ids

    def sample_batch(
        self, num_requests: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw the whole request stream at once, as arrays.

        Returns ``(arrival_times, rows)``: the cumulative arrival clock
        of every request and the database row of the item it asks for —
        one exponential batch, then one choice batch, then a sequential
        sum.  The event-driven reference
        (:func:`repro.verify.eventsim.generate_requests`) wraps these
        very draws, so both simulators see one stream per seed.
        """
        if num_requests < 0:
            raise SimulationError(
                f"num_requests must be >= 0, got {num_requests}"
            )
        # Draw in bulk for speed; numpy choice with p handles the skew.
        gaps = self._rng.exponential(1.0 / self._rate, size=num_requests)
        picks = self._rng.choice(
            len(self._probabilities), size=num_requests, p=self._probabilities
        )
        # add.accumulate is a strictly sequential left-to-right sum, the
        # same float64 additions a per-request `clock += gap` loop does.
        return np.add.accumulate(gaps), picks
