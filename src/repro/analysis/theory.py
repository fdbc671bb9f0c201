"""Analytical bounds and closed forms around the cost model.

Besides the formulas the paper states, this module derives a
partition-independent **lower bound** on the achievable cost, which the
test suite uses to sanity-check every algorithm and which quantifies how
much headroom remains below any heuristic's result:

For any partition of D into K groups,

.. math::

    \\sum_g F_g Z_g
    \\;\\ge\\; \\frac{\\big(\\sum_g \\sqrt{F_g Z_g}\\big)^2}{K}
    \\;\\ge\\; \\frac{\\big(\\sum_{x \\in D} \\sqrt{f_x z_x}\\big)^2}{K},

where the first step is Cauchy–Schwarz over groups and the second uses
:math:`\\sqrt{F_g Z_g} \\ge \\sum_{x \\in g} \\sqrt{f_x z_x}` (again
Cauchy–Schwarz, within each group).  Independently,
:math:`F_g Z_g \\ge \\sum_{x \\in g} f_x z_x` (the cross terms are
non-negative), so the allocation-independent download sum is a second
lower bound.  :func:`cost_lower_bound` returns the larger of the two.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cost import DEFAULT_BANDWIDTH, waiting_time_from_cost
from repro.core.database import BroadcastDatabase
from repro.exceptions import InfeasibleProblemError

__all__ = [
    "cost_lower_bound",
    "waiting_time_lower_bound",
    "single_channel_cost",
    "conventional_waiting_time",
]


def cost_lower_bound(database: BroadcastDatabase, num_channels: int) -> float:
    """Partition-independent lower bound on :math:`\\sum_g F_g Z_g`.

    See the module docstring for the derivation.  Tight in degenerate
    cases (e.g. all items identical and ``K | N``), loose but useful in
    general.
    """
    if num_channels < 1:
        raise InfeasibleProblemError(
            f"num_channels must be >= 1, got {num_channels}"
        )
    sqrt_sum = math.fsum(
        np.sqrt(database.frequencies * database.sizes).tolist()
    )
    cauchy_bound = sqrt_sum * sqrt_sum / num_channels
    product_bound = database.fixed_download_cost
    return max(cauchy_bound, product_bound)


def waiting_time_lower_bound(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> float:
    """Lower bound on the achievable :math:`W_b` for this instance."""
    return waiting_time_from_cost(
        cost_lower_bound(database, num_channels),
        database.fixed_download_cost,
        bandwidth=bandwidth,
    )


def single_channel_cost(database: BroadcastDatabase) -> float:
    """Cost of the trivial K=1 allocation: ``(Σf)(Σz)``.

    The worst end of the spectrum; equals ``total_size`` for a
    normalised database.  The paper's Table 3(a) value (135.60) is this
    quantity for the example profile.
    """
    return database.total_frequency * database.total_size


def conventional_waiting_time(
    num_items: int,
    item_size: float,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> float:
    """The introduction's single-channel, equal-size formula.

    ``W = N·z / (2b) + z / b`` — probe half-cycle plus download, for N
    equal-size items on one channel.  Used by tests as the degenerate
    cross-check of the general model.
    """
    if num_items < 1:
        raise InfeasibleProblemError(f"num_items must be >= 1, got {num_items}")
    if item_size <= 0 or bandwidth <= 0:
        raise InfeasibleProblemError(
            "item_size and bandwidth must be positive"
        )
    return num_items * item_size / (2.0 * bandwidth) + item_size / bandwidth
