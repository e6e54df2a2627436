"""A chart's polyline text, formed a whole array at a time, against format
called on each value."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slabdiff.svgplot import EXACT_BELOW, _points


def per_value(x, y) -> str:
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x.tolist(), y.tolist()))


def nudged(value: float, direction: float) -> float:
    return float(np.nextafter(value, direction))


#: Values whose ".2f" text is easy to get wrong.
values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-2e6, 2e6),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -0.001, -0.005,
                     math.nan, math.inf, -math.inf, EXACT_BELOW, -EXACT_BELOW]),
    st.floats(EXACT_BELOW - 10.0, EXACT_BELOW + 10.0),
    # ties of "{:.2f}": decimal k/100 + 0.005 is binary-inexact, k/8 exact
    st.integers(-10**8, 10**8).map(lambda k: k / 100 + 0.005),
    st.integers(-8 * 10**6, 8 * 10**6).map(lambda k: k / 8),
    # one ulp on either side of a tie
    st.tuples(st.integers(-10**8, 10**8).map(lambda k: k / 100 + 0.005) |
              st.integers(-8 * 10**6, 8 * 10**6).map(lambda k: k / 8),
              st.sampled_from([-math.inf, math.inf])).map(lambda t: nudged(*t)),
)


def rows(n: int):
    return hnp.arrays(np.float64, (2, n), elements=values)


@st.composite
def blocks(draw):
    """An x row and two y rows of one length."""
    n = draw(st.integers(0, 20))
    return draw(hnp.arrays(np.float64, n, elements=values)), draw(rows(n))


# the integer part's digits across each place, and its leading zeros
LEADING = np.array([0.0, 9.994, 9.996, 10.0, 99.99, 100.0, 999.99, 1000.0, 9999.99, 10000.0,
                    10234.56, 19999.99, 20000.5, 99999.99, 100000.0, 100234.56, 999999.99,
                    999999.994, 999999.996])


@settings(max_examples=200, deadline=None)
@given(blocks())
@example((LEADING, np.stack((-LEADING, LEADING[::-1]))))
@example((np.array([-0.0, 0.0, -0.004, -0.005, -0.0051]), np.zeros((2, 5))))
@example((np.arange(0, 56000, 7) / 100 + 0.005, np.ones((2, 8000)) / 8))
def test_points_text_equals_format_value_by_value(block):
    x, y = block
    assert _points(x, y) == [per_value(x, row) for row in y]
