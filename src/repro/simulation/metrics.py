"""Waiting-time summaries for broadcast simulations.

:func:`summarize` reports a sample's mean, deviation and normal-theory
confidence interval — the quantities the validation suite compares
against the analytical :math:`W_b`.

The mean and the sum of squared deviations are exact sums: the
values, in batches of :data:`_SUMMARY_BLOCK`, go through
:func:`repro.core.kernels.exact_sum`, which returns ``math.fsum``'s
float without handing every value to it one at a time.  The scalar
``fsum`` summary it replaced survives as
:func:`repro.verify.reference.summarize_reference`, which the
``oracle.exact-sum`` check holds this module to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.core.kernels import exact_sum

__all__ = ["SummaryStatistics", "summarize", "summarize_blocks"]


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


#: Values per batch of :func:`summarize_blocks`' exact sums: big
#: enough to amortise the extraction's numpy calls, small enough that a
#: batch's temporaries stay a few hundred kilobytes.
_SUMMARY_BLOCK = 4096


def summarize(
    samples: Sequence[float], *, z_value: float = 1.96
) -> SummaryStatistics:
    """Summarise a non-empty sample of finite values.

    ``samples`` may be a list, an ``array('d')`` or a numpy array.  The
    mean and the sum of squared deviations are exact sums — bit for bit
    ``math.fsum`` of the values and of the correctly rounded squares —
    taken in batches of :data:`_SUMMARY_BLOCK` values, so the
    temporaries stay bounded however large the sample is.

    Raises
    ------
    ValueError
        On an empty sample or a non-finite value.
    """
    return summarize_blocks(
        [np.asarray(samples, dtype=np.float64)], z_value=z_value
    )


def summarize_blocks(
    blocks: Sequence[np.ndarray], *, z_value: float = 1.96
) -> SummaryStatistics:
    """:func:`summarize` of the blocks' values taken together.

    Consecutive blocks are regrouped into batches of
    :data:`_SUMMARY_BLOCK` values, so no temporary as large as the
    whole sample is made.  The sums are exact, so the result is bit for
    bit that of :func:`summarize` on the concatenation.
    """
    count = sum(map(len, blocks))
    if count == 0:
        raise ValueError("cannot summarise an empty sample")
    ends = [(block.min(), block.max()) for block in blocks if len(block)]
    minimum = float(np.min(ends))
    maximum = float(np.max(ends))
    # NaN propagates through min/max and an infinity lands on one of
    # them, so both ends finite means every sample is.
    if not (math.isfinite(minimum) and math.isfinite(maximum)):
        raise ValueError(
            f"cannot summarise non-finite samples (range {minimum!r} to "
            f"{maximum!r})"
        )
    mean = exact_sum(_batches(blocks)) / count
    if count > 1:
        variance = exact_sum(
            _squared_deviations(batch, mean) for batch in _batches(blocks)
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


def _batches(blocks: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The blocks' values in order, in batches of ``_SUMMARY_BLOCK``
    (the last may be shorter); a batch inside one block is a view."""
    pending: List[np.ndarray] = []
    size = 0
    for block in blocks:
        while len(block) >= _SUMMARY_BLOCK - size:
            take = _SUMMARY_BLOCK - size
            pending.append(block[:take])
            block = block[take:]
            yield _joined(pending)
            pending, size = [], 0
        if len(block):
            pending.append(block)
            size += len(block)
    if pending:
        yield _joined(pending)


def _joined(pieces: List[np.ndarray]) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _squared_deviations(batch: np.ndarray, mean: float) -> np.ndarray:
    """``(x - mean) · (x - mean)`` per value: correctly rounded squares."""
    deviations = batch - mean
    deviations *= deviations
    return deviations
