"""numtext's texts, formed a whole array at a time, against repr called on
each value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slabdiff import numtext, preset, run_scenario, runner
from slabdiff.numtext import CLAIM_HIGH, CLAIM_LOW, WIDTH


def text(rows: np.ndarray) -> str:
    """The rows' bytes with the 0 cells deleted."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def assert_reprs(values) -> None:
    """Row i of cells(values) is repr of value i, then 0 cells, then "\\n" in
    its last cell, the row's only "\\n"."""
    values = np.asarray(values, dtype=np.float64)
    rows = numtext.cells(values)
    assert rows.dtype == np.uint8 and rows.shape == (len(values), WIDTH)
    assert (rows[:, -1] == ord("\n")).all()
    assert not (rows[:, :-1] == ord("\n")).any()
    # The text cells come first: no cell after a 0 cell holds text.
    assert not (np.diff((rows[:, :-1] != 0).astype(np.int8), axis=1) > 0).any()
    reprs = [repr(x) for x in values.tolist()]
    got = text(rows).split("\n")[:-1]
    wrong = [(r, g) for r, g in zip(reprs, got) if r != g]
    assert not wrong and len(got) == len(reprs), wrong[:10]


def neighbours(values) -> np.ndarray:
    """Each value, one ulp either side of it, and the negatives of all three."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the neighbour above the largest double
        near = np.concatenate((values, np.nextafter(values, math.inf),
                               np.nextafter(values, -math.inf)))
    return np.concatenate((near, -near))


#: Any float64: hypothesis's floats, which favour edge values, and raw bit
#: patterns, which cover every exponent evenly.
any_double = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
                     CLAIM_LOW, CLAIM_HIGH, float(np.nextafter(CLAIM_HIGH, 0.0))]),
)


def test_the_longest_texts_outside_the_claim_fit_their_rows():
    # repr's longest texts have 24 characters, one cell fewer than a row;
    # every value outside the claim is written by repr into its own row.
    longest = [-2.2250738585072014e-308, -1.7976931348623157e+308]
    assert {len(repr(x)) for x in longest} == {WIDTH - 1}
    outside = longest + [-1e-300, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                         -2.225073858507201e-308, 1e-310, -1.2345678901234567e-300,
                         1e16, -1.2345678901234567e+300]
    values = np.array(outside * 3 + [1.5, -0.0])
    rng = np.random.default_rng(308)
    values = np.concatenate((values, rng.permutation(values)))
    assert_reprs(values)
    assert_reprs(neighbours(longest))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=any_double))
def test_texts_equal_repr_value_by_value(values):
    assert_reprs(values)


def test_powers_of_two_and_ten_and_their_neighbours():
    assert_reprs(neighbours(2.0 ** np.arange(-1074, 1024)))
    assert_reprs(neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_the_edges_of_fixed_and_exponent_notation():
    # decpt -3 and -4, 16 and 17: repr writes 0.0001 but 1e-05, and
    # 9999999999999998.0 but 1e+16.
    edges = [0.0001, 0.00012345678901234567, 1e-05, 1.2345678901234567e-05,
             9999999999999998.0, 1e16, 1234567890123456.8, 0.001, 0.1, 1.0, 10.0]
    assert_reprs(neighbours(edges))


def test_integers_up_to_two_to_the_53():
    rng = np.random.default_rng(53)
    whole = np.concatenate((np.arange(-1000, 1001), 10.0 ** np.arange(16), 2.0 ** np.arange(54),
                            rng.integers(0, 2**53, 20_000), 2**53 - np.arange(100)))
    assert_reprs(neighbours(whole.astype(np.float64)))


def test_ties_between_two_shortest_decimals_go_to_the_even_one():
    # 1113178120592002.25 lies halfway between ...2.2 and ...2.3, both 17
    # digits: repr takes the even one. 3092535278770144256.0 (outside the
    # kernel's claim) is exactly 10**3 times a 16-digit decimal.
    ties = [1113178120592002.25, 3092535278770144256.0, 0.5, 2.5, 1e15 + 0.5, 1e15 + 1.5]
    assert_reprs(neighbours(ties))
    assert text(numtext.cells(np.array([1113178120592002.25]))) == "1113178120592002.2\n"


def significant_digits(text: str) -> int:
    return len(text.lstrip("-").split("e")[0].replace(".", "").strip("0"))


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_values_whose_shortest_form_has_15_16_and_17_digits(digits):
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, 10_000).tolist()
    exponents = rng.integers(-99 - digits, 16 - digits, 10_000).tolist()
    values = [float(f"{m}e{e}") for m, e in zip(mantissas, exponents)]
    values = [v for v in values if significant_digits(repr(v)) == digits]
    assert len(values) > 2000
    assert_reprs(neighbours(values))


def test_a_seeded_sweep_of_the_claimed_range():
    # 400,000 random bit patterns with exponents in [1e-99, 1e16), either sign.
    rng = np.random.default_rng(20_200_101)
    low, high = (int(np.float64(x).view(np.uint64)) >> 52 for x in (CLAIM_LOW, CLAIM_HIGH))
    bits = (rng.integers(low, high + 1, 400_000, dtype=np.uint64) << np.uint64(52)) \
        | rng.integers(0, 2**52, 400_000, dtype=np.uint64) \
        | (rng.integers(0, 2, 400_000, dtype=np.uint64) << np.uint64(63))
    assert_reprs(bits.view(np.float64))


@pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4"])
def test_every_value_a_figure_writes(tmp_path, monkeypatch, name):
    # Every array the runner renders, checked against repr value by value. A
    # preset's values fit one batch, so the run makes one numtext.cells call:
    # a call per curve or per file was slower.
    rendered, cells = [], numtext.cells

    def spy(values):
        rendered.append(np.array(values))
        return cells(values)

    monkeypatch.setattr(runner.numtext, "cells", spy)
    run_scenario(preset(name), tmp_path)
    monkeypatch.undo()
    assert len(rendered) == 1
    assert sum(v.size for v in rendered) > 1000
    for values in rendered:
        assert_reprs(values)
