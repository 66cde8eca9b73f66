"""Each distinct number is formatted once: the array formatters of the LP
export and the series CSVs must equal their scalar references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from communityplan import io, lpformat
from communityplan.core import distinct_bits

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1.0,
    9999999999999998.0, -9999999999999998.0, 1e16, -1e16, 2.0**53, 2.0**53 + 2,
    123456789.0, 0.1, 1e-18, 1.7976931348623157e308, -1.7976931348623157e308,
]

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(10**17), 10**17).map(float),
)
# arrays drawn from a small pool, so that values repeat
arrays = st.lists(numbers, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=80)
)


def _lp_texts(arr):
    """The LP text of every element, through the distinct-value formatter."""
    texts, index = lpformat._distinct_texts(arr)
    return texts[index].tolist()


@settings(max_examples=300, deadline=None)
@given(arrays)
def test_distinct_bits_keeps_each_bit_pattern(values):
    arr = np.array(values, dtype=float)
    unique, inverse = distinct_bits(arr)
    assert unique[inverse].view(np.uint64).tolist() == arr.view(np.uint64).tolist()
    assert len(set(unique.view(np.uint64).tolist())) == len(unique)


@settings(max_examples=300, deadline=None)
@given(arrays)
def test_lp_formatter_equals_scalar_num(values):
    arr = np.array(values, dtype=float)
    assert _lp_texts(arr) == [lpformat._num(x) for x in values]


@settings(max_examples=300, deadline=None)
@given(arrays)
def test_series_formatter_equals_repr(values):
    arr = np.array(values, dtype=float)
    assert io._value_texts(arr) == list(map(repr, values))


def test_signed_zeros_keep_their_own_text():
    arr = np.array([0.0, -0.0, 0.0, -0.0])
    assert io._value_texts(arr) == ["0.0", "-0.0", "0.0", "-0.0"]
    assert _lp_texts(arr) == ["0", "0", "0", "0"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_numbers_raise_in_lp_text(bad):
    with pytest.raises((ValueError, OverflowError)):
        lpformat._num(bad)
    with pytest.raises(ValueError, match="non-finite"):
        _lp_texts(np.array([1.0, bad, 1.0]))
