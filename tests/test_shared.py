"""shared.distinct and shared.texts: the bit-pattern dedupe and the formatting pass over it."""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demongain.shared import distinct, texts


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


# +0.0, -0.0, two NaN payloads, both infinities and the smallest subnormal,
# each a distinct bit pattern; the float arrays are built from bits so the
# NaN payloads survive.
SPECIAL_BITS = [_bits(x) for x in (0.0, -0.0, np.inf, -np.inf, 5e-324)] + [
    0x7FF8000000000000, 0x7FF8000000000001]
FLOAT_ARRAYS = st.lists(st.sampled_from(SPECIAL_BITS) | st.floats().map(_bits), max_size=50).map(
    lambda bits: np.array(bits, dtype=np.int64).view(np.float64))
INT_ARRAYS = st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=50).map(
    lambda ints: np.array(ints, dtype=np.int64))


def _check(values: np.ndarray) -> None:
    u, inverse = distinct(values)
    assert u.dtype == values.dtype and inverse.shape == values.shape
    assert np.array_equal(u[inverse].view(np.int64), values.view(np.int64))
    assert len(set(u.view(np.int64).tolist())) == len(u)


@given(FLOAT_ARRAYS)
@example(np.array([], dtype=np.float64))
@example(np.array([-0.0]))
@example(np.array([0.0, -0.0, 0.0, -0.0]))
@example(np.array(SPECIAL_BITS * 2, dtype=np.int64).view(np.float64))
@settings(max_examples=200, deadline=None)
def test_distinct_floats_gather_back_bit_for_bit(values):
    _check(values)


@given(INT_ARRAYS)
@example(np.array([], dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@settings(max_examples=200, deadline=None)
def test_distinct_ints_gather_back_bit_for_bit(values):
    _check(values)


# several arrays drawn from one pool of bit patterns, so values repeat across
# arrays; the pool mixes the special patterns with arbitrary floats
FLOAT_COLUMNS = st.lists(st.sampled_from(SPECIAL_BITS) | st.floats().map(_bits), min_size=1,
                         max_size=12).flatmap(lambda pool: st.lists(
                             st.lists(st.sampled_from(pool), max_size=20).map(
                                 lambda bits: np.array(bits, dtype=np.int64).view(np.float64)),
                             min_size=1, max_size=5))


def _check_texts(spec: str, columns: list) -> None:
    assert texts(spec, *columns) == [[spec % v for v in c.tolist()] for c in columns]


@given(FLOAT_COLUMNS, st.sampled_from(["%r", "%.12g"]))
@example([np.array([0.0, 5e-324]), np.array([-0.0]), np.array([]), np.array([-0.0, 0.0])], "%r")
@example([np.array([-0.0, 0.0]), np.array([0.0, 5e-324, -0.0])], "%.12g")
@example([np.array([])], "%r")
@settings(max_examples=200, deadline=None)
def test_texts_of_float_columns_equal_per_value_formatting(columns, spec):
    _check_texts(spec, columns)


@given(st.lists(INT_ARRAYS, min_size=1, max_size=5), st.sampled_from(["%d", "%r"]))
@example([np.array([0, 7], dtype=np.int64), np.array([], dtype=np.int64),
          np.array([7, -2**63], dtype=np.int64)], "%d")
@settings(max_examples=200, deadline=None)
def test_texts_of_int_columns_equal_per_value_formatting(columns, spec):
    _check_texts(spec, columns)
