"""The simulator's numpy roof kernels and row-batched hitting times
against per-index evaluation.

Both kernels, and the hitting times read off their partial sums, must
give the same floats bit for bit as evaluating the roof one index at a
time, so each test compares the int64 views of the arrays.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from suspmix import simulate
from suspmix.cli import harmonic_witnesses
from suspmix.exact import QVector, RealBasis
from suspmix.roofs import LocallyConstantRoof, MissingWindowError, example_roof_harmonic
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


def window(x, lo, hi):
    """The word x[lo..hi], both ends included."""
    return Word(x[i] for i in range(lo, hi + 1))


def table_roof(family, past, future, indices, seed):
    """A roof tabulated on the windows the family's points show at the given indices."""
    rng = random.Random(seed)
    table = {}
    for x in family:
        for j in indices:
            w = window(x, j - past, j + future)
            if w not in table:
                table[w] = random_value(rng)
    return LocallyConstantRoof(past, future, table)


words = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(Word)
points = st.builds(
    lambda left, core, right, offset: EventuallyPeriodicPoint.from_parts(
        left, core, right, offset % (len(core) + 4)),
    words, st.lists(st.integers(0, 2), max_size=8).map(Word), words, st.integers(0, 20),
)


@given(st.lists(points, min_size=1, max_size=3), st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 60), st.integers(0, 5), st.integers(0, 2 ** 32))
@settings(deadline=None)
def test_table_values_match_value_at(family, past, future, n, extra, seed):
    # one row per point; each row must reach future symbols past n
    roof = table_roof(family, past, future, range(n), seed)
    symbols = simulate._nonnegative_symbols(family, n + future + extra)
    got = simulate._roof_values(roof, family, symbols, n)
    assert same_bits(got, [per_index(roof, x, n) for x in family])


def test_table_values_past_the_hitting_times_margin():
    # the window reaches future = 20 symbols ahead, beyond the margin the
    # tail and the target need (|target| + 3 * |tail| + 8 = 11 here)
    point = EventuallyPeriodicPoint.from_parts(Word.parse("1"), Word.parse("0110"),
                                               Word.parse("0"), 2)
    roof = table_roof([point], 2, 20, range(80), 7)
    got = hitting_times([point], Word.parse("0"), 0.1, roof, 60.0, omega=1.0)
    assert same_bits(got.times, reference.hitting_times([point], Word.parse("0"), roof, 60.0))


def test_inadmissible_window_raises_the_per_index_error():
    point = EventuallyPeriodicPoint.from_parts(Word.parse("0"), Word.parse("0012"),
                                               Word.parse("21"), 0)
    clean = EventuallyPeriodicPoint.periodic(Word.parse("0"))
    roof = table_roof([point], 1, 1, range(30), 3)
    roof.table.update(table_roof([clean], 1, 1, range(3), 3).table)
    # drop 122 (met at index 3) and 121 (met at index 6, but sorting first):
    # the one met first along the point names the error, also when the
    # point is the second row of a batch
    for w in (window(point, 2, 4), window(point, 5, 7)):
        del roof.table[w]
    with pytest.raises(KeyError) as expected:
        per_index(roof, point, 30)
    family = [clean, point]
    with pytest.raises(KeyError) as got:
        simulate._roof_values(roof, family, simulate._nonnegative_symbols(family, 40), 30)
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


def test_harmonic_vectorized_reads_the_last_axis():
    rng = np.random.default_rng(3)
    rows = (rng.random((7, 90)) < 0.2).astype(np.int64)
    rows[2] = 0
    rows[4, -30:] = 0
    got = example_roof_harmonic().vectorized(rows)
    assert same_bits(got, [reverse_loop_harmonic(r) for r in rows])


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
    roof = table_roof(family, past, future, range(80), seed)  # covers n_max = 62
    got = hitting_times(family, target, 0.1, roof, horizon, omega=1.0)
    assert same_bits(got.times, reference.hitting_times(family, target, roof, horizon))


# -- row batches and the early stop ------------------------------------------


def binary_points(max_core):
    """Points over {0, 1}, core lengths up to max_core, origins up to 6 past the core."""
    word = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(Word)
    return st.builds(
        lambda left, core, right, offset: EventuallyPeriodicPoint.from_parts(
            left, core, right, offset % (len(core) + 7)),
        word, st.lists(st.integers(0, 1), max_size=max_core).map(Word), word, st.integers(0, 60),
    )


def batched(cells, *args, **kwargs):
    old = simulate._BATCH_CELLS
    simulate._BATCH_CELLS = cells
    try:
        return hitting_times(*args, **kwargs)
    finally:
        simulate._BATCH_CELLS = old


@given(st.lists(binary_points(40), min_size=1, max_size=8), st.sampled_from(["harmonic", "table"]),
       st.lists(st.integers(0, 1), min_size=1, max_size=3).map(Word),
       st.sampled_from([None, 1, 3]), st.booleans(), st.sampled_from([40, 300, 1 << 13]),
       st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=150)
def test_batched_hitting_times_match_the_scalar_reference(
        family, kind, target, max_hits, tail_only, cells, seed):
    # 40 cells put every member in a batch of its own, 300 a few per batch
    horizon = 45.0
    if kind == "harmonic":
        roof = example_roof_harmonic()
    else:
        rng = random.Random(seed)
        roof = table_roof(family, rng.randint(0, 2), rng.randint(0, 2), range(60), seed)
    got = batched(cells, family, target, 0.1, roof, horizon, omega=1.0,
                  max_hits_per_member=max_hits, tail_only=tail_only)
    want = reference.hitting_times(family, target, roof, horizon, max_hits, tail_only)
    assert same_bits(got.times, want)


@pytest.mark.parametrize("max_hits", [None, 1, 3])
def test_witness_family_over_many_batches_matches_the_reference(max_hits):
    # 120 members with cores of 5 to 124 symbols: dozens of batches, and
    # with max_hits the cut falls at a different index in each row
    family = harmonic_witnesses(120)
    roof, target = example_roof_harmonic(), Word.parse("10")
    got = hitting_times(family, target, 0.05, roof, 300.0, omega=2.5,
                        max_hits_per_member=max_hits, tail_only=True)
    want = reference.hitting_times(family, target, roof, 300.0, max_hits, tail_only=True)
    assert same_bits(got.times, want)


def test_symbols_reach_past_a_long_core():
    # the core's run of 40 zeros ends at index 42, past n_max + margin = 38:
    # the symbol array must run on to the 1 after it, or each of those zeros
    # reads as the start of an infinite run, of value 1.0
    x = harmonic_witnesses(40)[-1]
    got = hitting_times([x], Word.parse("00"), 0.05, example_roof_harmonic(), 20.0, omega=1.0)
    want = reference.hitting_times([x], Word.parse("00"), example_roof_harmonic(), 20.0)
    assert same_bits(got.times, want)
    assert got.times[:3] == (3.5, 4.524390243902439, 5.5493902439024385)


@pytest.mark.parametrize("core, tail, target, past, missing_at", [
    ("0010002", "0012", "00", 0, 5),  # in the core
    ("00", "0012", "00", 0, 4),  # in the tail
    ("12", "0", "0", 5, 6),  # reaching back from the tail into the core
])
def test_window_met_only_after_the_last_counted_hit_still_raises(
        core, tail, target, past, missing_at):
    # the first hit is the only one counted; the window missing from the
    # table is met after it, but before n_max, so evaluating the whole
    # horizon index by index raises on it
    point = EventuallyPeriodicPoint.from_parts(Word.parse("1"), Word.parse(core),
                                               Word.parse(tail), 0)
    roof = table_roof([point], past, 1, range(40), 11)
    del roof.table[window(point, missing_at - past, missing_at + 1)]
    with pytest.raises(KeyError) as expected:
        per_index(roof, point, int(30.0 / float(roof.min_value())) + 2)
    with pytest.raises(MissingWindowError) as got:
        hitting_times([point], Word.parse(target), 0.1, roof, 30.0, omega=1.0,
                      max_hits_per_member=1)
    assert str(got.value) == str(expected.value)


def test_negative_max_hits_rejected():
    point = EventuallyPeriodicPoint.periodic(Word.parse("01"))
    with pytest.raises(ValueError, match="non-negative"):
        hitting_times([point], Word.parse("0"), 0.1, example_roof_harmonic(), 10.0,
                      max_hits_per_member=-1)
