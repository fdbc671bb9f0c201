"""Property tests: ``kernels.exact_sum`` is ``math.fsum`` bit for bit.

The values are built from a few drawn parameters (length, exponent
window, signs, seed, special values), so hypothesis reaches arrays long
enough to take the extraction path — several batches of
``EXACT_SUM_MIN_BATCH`` values and more — as easily as short ones.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.kernels import EXACT_SUM_MIN_BATCH, exact_sum
from repro.simulation.metrics import summarize, summarize_blocks
from repro.verify.reference import summarize_reference

common = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DBL_MAX = 1.7976931348623157e308
SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, DBL_MAX)


@st.composite
def value_arrays(draw, specials=True):
    """Seeded float64 arrays over a drawn exponent window."""
    size = draw(
        st.one_of(
            st.integers(1, 8),
            st.integers(EXACT_SUM_MIN_BATCH - 2, 3 * 4096 + 3),
        )
    )
    low = draw(st.integers(-1076, 1024))
    high = draw(st.integers(low, min(1024, low + draw(st.sampled_from(
        [0, 1, 8, 60, 2100]
    )))))
    signs = draw(st.sampled_from(["positive", "negative", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.ldexp(
        rng.uniform(0.5, 1.0, size), rng.integers(low, high + 1, size)
    )
    if signs == "negative":
        values = -values
    elif signs == "mixed":
        values *= rng.choice([-1.0, 1.0], size)
    if specials:
        for special in draw(st.lists(st.sampled_from(SPECIALS), max_size=3)):
            values[int(rng.integers(size))] = special
    return values


@st.composite
def splits(draw, values):
    """``values`` cut into blocks, empty ones included."""
    cuts = draw(
        st.lists(st.integers(0, len(values)), max_size=6).map(sorted)
    )
    return np.split(values, cuts)


def outcome(fn, *args):
    """``repr`` of the result, or the error type and message."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


class TestExactSum:
    @common
    @given(st.data())
    def test_equals_fsum(self, data):
        values = data.draw(value_arrays())
        expected = outcome(math.fsum, values.tolist())
        assert outcome(exact_sum, [values]) == expected
        assert outcome(exact_sum, data.draw(splits(values))) == expected

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.0],
            [-0.0],
            [-0.0] * EXACT_SUM_MIN_BATCH,
            [5e-324] * 3 * EXACT_SUM_MIN_BATCH,
            [1e308] * EXACT_SUM_MIN_BATCH,
            [1e300] * 2 * EXACT_SUM_MIN_BATCH + [-1e300] * EXACT_SUM_MIN_BATCH,
            [1.0] * EXACT_SUM_MIN_BATCH + [1e308, 1e308],
            [1.0] * EXACT_SUM_MIN_BATCH + [math.inf, -math.inf],
            [1e300] * EXACT_SUM_MIN_BATCH + [math.inf, 1.7e308, 1.7e308],
            # fsum overflows inside the second batch, whose own sum is 0.
            [DBL_MAX] + [0.0] * (EXACT_SUM_MIN_BATCH - 1)
            + [2.0 ** 987] * (EXACT_SUM_MIN_BATCH // 2)
            + [-(2.0 ** 987)] * (EXACT_SUM_MIN_BATCH // 2),
        ],
        ids=[
            "empty", "zero", "negative-zero", "negative-zeros", "subnormals",
            "overflow-in-batch", "overflow-cancelled", "overflow-after",
            "inf-minus-inf", "overflow-after-inf", "overflow-in-later-batch",
        ],
    )
    @pytest.mark.parametrize("batch", [None, EXACT_SUM_MIN_BATCH])
    def test_edge_cases(self, values, batch):
        array = np.array(values, dtype=np.float64)
        step = batch or max(1, len(array))
        blocks = [array[i: i + step] for i in range(0, len(array), step)]
        assert outcome(exact_sum, blocks) == outcome(math.fsum, values)


class TestSummaryMatchesReference:
    @common
    @given(st.data())
    def test_blocks_equal_the_scalar_summary(self, data):
        values = data.draw(value_arrays(specials=False))
        blocks = data.draw(splits(values))
        reference = outcome(summarize_reference, values)
        with np.errstate(over="ignore"):
            # Squared deviations of wide values overflow to inf.
            assert outcome(summarize, values) == reference
            assert outcome(summarize_blocks, blocks) == reference

    @example(values=[1e200, -1e200] * EXACT_SUM_MIN_BATCH)
    @example(values=[1.7e308, 1.7e308])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20))
    def test_short_samples(self, values):
        with np.errstate(over="ignore"):
            assert outcome(summarize, values) == outcome(
                summarize_reference, values
            )
