"""The simulator's numpy roof kernels against per-index evaluation.

Both kernels must give the same floats bit for bit as evaluating the roof
one index at a time, so each test compares the int64 views of the arrays.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suspmix import simulate
from suspmix.exact import QVector, RealBasis
from suspmix.roofs import LocallyConstantRoof, example_roof_harmonic
from suspmix.shift import EventuallyPeriodicPoint, Word
from suspmix.simulate import hitting_times

BASIS = RealBasis.with_constants(("s2", 2 ** 0.5))


def same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def per_index(roof, point, n):
    return np.array([float(roof.value_at(point, j)) for j in range(n)], dtype=np.float64)


def random_value(rng):
    return QVector(BASIS, (Fraction(rng.randint(9, 40), rng.randint(1, 9)),
                           Fraction(rng.randint(0, 9), rng.randint(1, 7))))


def table_roof(point, past, future, indices, seed):
    """A roof tabulated on the windows the point shows at the given indices."""
    rng = random.Random(seed)
    table = {}
    for j in indices:
        w = point.window(j - past, j + future)
        if w not in table:
            table[w] = random_value(rng)
    return LocallyConstantRoof(past, future, table)


words = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(Word)
points = st.builds(
    lambda left, core, right, offset: EventuallyPeriodicPoint.from_parts(
        left, core, right, offset % (len(core) + 4)),
    words, st.lists(st.integers(0, 2), max_size=8).map(Word), words, st.integers(0, 20),
)


@given(points, st.integers(0, 3), st.integers(0, 3), st.integers(1, 60),
       st.integers(0, 5), st.integers(0, 2 ** 32))
@settings(deadline=None)
def test_table_values_match_value_at(point, past, future, n, extra, seed):
    # extra < future makes the kernel extend the symbol array from the point
    roof = table_roof(point, past, future, range(n), seed)
    symbols = simulate._nonnegative_symbols(point, n + extra)
    got = simulate._roof_values(roof, point, symbols, n)
    assert same_bits(got, per_index(roof, point, n))


def test_table_values_past_the_hitting_times_margin():
    # margin = len(target) + 3 * |tail| + 8 = 12 here, below future = 20
    point = EventuallyPeriodicPoint.from_parts(Word.parse("1"), Word.parse("0110"),
                                               Word.parse("0"), 2)
    n = 50
    roof = table_roof(point, 2, 20, range(n), 7)
    symbols = simulate._nonnegative_symbols(point, n + 12)
    assert same_bits(simulate._roof_values(roof, point, symbols, n), per_index(roof, point, n))


def test_inadmissible_window_raises_the_per_index_error():
    point = EventuallyPeriodicPoint.from_parts(Word.parse("0"), Word.parse("0012"),
                                               Word.parse("21"), 0)
    roof = table_roof(point, 1, 1, range(30), 3)
    # drop 122 (met at index 3) and 121 (met at index 6, but sorting first):
    # the one met first along the point names the error
    for w in (point.window(2, 4), point.window(5, 7)):
        del roof.table[w]
    with pytest.raises(KeyError) as expected:
        per_index(roof, point, 30)
    with pytest.raises(KeyError) as got:
        simulate._roof_values(roof, point, simulate._nonnegative_symbols(point, 40), 30)
    assert str(got.value) == str(expected.value)
    assert "122" in str(got.value)


def reverse_loop_harmonic(symbols):
    """The harmonic roof's former per-position loop (the reference)."""
    n = len(symbols)
    dist = np.zeros(n, dtype=np.int64)
    nxt = -1
    for i in range(n - 1, -1, -1):
        if symbols[i] == 1:
            nxt = i
        dist[i] = (nxt - i) if nxt >= 0 else np.iinfo(np.int64).max // 2
    values = np.ones(n, dtype=np.float64)
    zeros = symbols == 0
    values[zeros] = 1.0 + 1.0 / (1.0 + dist[zeros])
    return values


@given(st.lists(st.integers(0, 1), max_size=300), st.integers(0, 40))
def test_harmonic_vectorized_matches_the_reverse_loop(head, trailing_zeros):
    symbols = np.array(head + [0] * trailing_zeros, dtype=np.int64)
    got = example_roof_harmonic().vectorized(symbols)
    assert same_bits(got, reverse_loop_harmonic(symbols))


def test_harmonic_vectorized_on_long_runs():
    rng = np.random.default_rng(5)
    for size in (0, 1, 1000, 100_000):
        symbols = (rng.random(size) < 0.03).astype(np.int64)
        symbols[-min(size, 500):] = 0
        got = example_roof_harmonic().vectorized(symbols)
        assert same_bits(got, reverse_loop_harmonic(symbols))
    assert same_bits(example_roof_harmonic().vectorized(np.zeros(4, dtype=np.int64)), [1.0] * 4)


@given(st.lists(points, min_size=1, max_size=3), st.integers(0, 2), st.integers(0, 2),
       st.lists(st.integers(0, 2), min_size=1, max_size=2).map(Word), st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=50)
def test_hitting_times_on_a_table_roof_match_value_at(family, past, future, target, seed):
    horizon = 60.0
    rng = random.Random(seed)
    table = {}
    for x in family:
        for j in range(80):  # covers n_max = 62 as every value is >= 1
            w = x.window(j - past, j + future)
            if w not in table:
                table[w] = random_value(rng)
    roof = LocallyConstantRoof(past, future, table)
    got = hitting_times(family, target, 0.1, roof, horizon, omega=1.0)
    old = simulate._roof_values
    reference = lambda roof, point, symbols, n: per_index(roof, point, n)
    try:
        simulate._roof_values = reference
        expected = hitting_times(family, target, 0.1, roof, horizon, omega=1.0)
    finally:
        simulate._roof_values = old
    assert same_bits(got.times, expected.times)
