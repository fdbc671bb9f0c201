"""Measurement collection for broadcast simulations.

:class:`WaitingTimeCollector` accumulates per-request waiting times and
reports aggregate and per-item statistics, including normal-theory
confidence intervals — the quantities the validation suite compares
against the analytical :math:`W_b`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SummaryStatistics", "WaitingTimeCollector"]


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / deviation / CI summary of a sample.

    ``ci_halfwidth`` is the half-width of the normal-approximation
    confidence interval at the z-value supplied to ``summarize`` (1.96
    ⇒ 95%).  For samples of size < 2 the deviation and half-width are 0.
    """

    count: int
    mean: float
    std: float
    ci_halfwidth: float
    minimum: float
    maximum: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.ci_low <= value <= self.ci_high


#: Samples per numpy block in :func:`summarize`: big enough to amortise
#: the per-block calls, small enough that a block's temporaries (its
#: float list included) stay a few hundred kilobytes.
_SUMMARY_BLOCK = 4096


def summarize(
    samples: Sequence[float], *, z_value: float = 1.96
) -> SummaryStatistics:
    """Summarise a non-empty sample of finite values.

    ``samples`` may be a list, an ``array('d')`` or a numpy array.  The
    mean and the sum of squared deviations are exact ``math.fsum``
    sums, fed block by block, so the temporaries stay bounded however
    large the sample is.

    Raises
    ------
    ValueError
        On an empty sample or a non-finite value.
    """
    values = np.asarray(samples, dtype=np.float64)
    count = len(values)
    if count == 0:
        raise ValueError("cannot summarise an empty sample")
    minimum = float(values.min())
    maximum = float(values.max())
    # NaN propagates through min/max and an infinity lands on one of
    # them, so both ends finite means every sample is.
    if not (math.isfinite(minimum) and math.isfinite(maximum)):
        raise ValueError(
            f"cannot summarise non-finite samples (range {minimum!r} to "
            f"{maximum!r})"
        )
    mean = math.fsum(
        chain.from_iterable(block.tolist() for block in _blocks(values))
    ) / count
    if count > 1:
        variance = math.fsum(
            chain.from_iterable(
                _squared_deviations(block, mean) for block in _blocks(values)
            )
        ) / (count - 1)
        std = math.sqrt(variance)
        halfwidth = z_value * std / math.sqrt(count)
    else:
        std = 0.0
        halfwidth = 0.0
    return SummaryStatistics(
        count=count,
        mean=mean,
        std=std,
        ci_halfwidth=halfwidth,
        minimum=minimum,
        maximum=maximum,
    )


def _blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive views of at most ``_SUMMARY_BLOCK`` values."""
    for start in range(0, len(values), _SUMMARY_BLOCK):
        yield values[start : start + _SUMMARY_BLOCK]


def _squared_deviations(block: np.ndarray, mean: float) -> List[float]:
    """``(x - mean) · (x - mean)`` per value: correctly rounded squares."""
    deviations = block - mean
    deviations *= deviations
    return deviations.tolist()


class WaitingTimeCollector:
    """Accumulates waiting-time observations from a simulation run."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._by_item: Dict[str, List[float]] = {}

    def record(self, item_id: str, waiting_time: float) -> None:
        """Record one completed request."""
        if not math.isfinite(waiting_time):
            raise ValueError(
                f"waiting time must be finite, got {waiting_time!r}"
            )
        if waiting_time < 0:
            raise ValueError(
                f"waiting time cannot be negative, got {waiting_time}"
            )
        self._samples.append(waiting_time)
        self._by_item.setdefault(item_id, []).append(waiting_time)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def item_ids(self) -> Tuple[str, ...]:
        return tuple(self._by_item)

    def overall(self, *, z_value: float = 1.96) -> SummaryStatistics:
        """Summary over all requests — the empirical :math:`W_b`."""
        return summarize(self._samples, z_value=z_value)

    def for_item(
        self, item_id: str, *, z_value: float = 1.96
    ) -> Optional[SummaryStatistics]:
        """Summary for one item, or ``None`` if it was never requested."""
        samples = self._by_item.get(item_id)
        if not samples:
            return None
        return summarize(samples, z_value=z_value)
