"""The periodic-orbit scan's kernels against independent references.

``periodic_words_in_cylinder`` must list the words of the Lyndon DFS kept
in ``reference.py``, in its order; the orbit sums of
``decide_mixing_synchronized`` and ``birkhoff_sum`` must equal plain
Fraction window sums, and a missing roof window must raise the error the
scan raised before it keyed its sums by window multisets.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from suspmix.decider import ShiftOracle, decide_mixing_synchronized, periodic_words_in_cylinder
from suspmix.exact import QVector, RealBasis
from suspmix.roofs import LocallyConstantRoof, MissingWindowError, birkhoff_sum
from suspmix.shift import (
    Alphabet,
    EmptyShiftError,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
    full_shift,
    sft_from_forbidden_words,
)
from suspmix.special import balanced_oracle, two_orbit_oracle

from reference import cyclic_window_sum, lyndon_scan, window_sum

SCAN = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
BASES = [RealBasis.rational(), RealBasis.with_constants(("a", 1.4142135623730951)),
         RealBasis.with_constants(("a", 1.4142135623730951), ("b", 2.718281828459045))]


@st.composite
def sfts(draw):
    k = draw(st.integers(2, 3))
    words = st.lists(st.integers(0, k - 1), min_size=2, max_size=3).map(Word)
    try:
        return sft_from_forbidden_words(Alphabet.of_size(k), draw(st.lists(words, max_size=4)))
    except EmptyShiftError:
        return full_shift(Alphabet.of_size(k))


@st.composite
def scans(draw):
    """(oracle, its windows of a width, cylinder word, period bound) for an
    edge-shift, balanced-2/3 or two-orbit oracle; the cylinder's first
    symbol may lie outside the alphabet."""
    kind = draw(st.sampled_from(["edge", "balanced", "two-orbit"]))
    if kind == "edge":
        shift = draw(sfts())
        oracle = ShiftOracle.from_edge_shift(shift)
        windows = lambda width: [w.symbols for w in admissible_words(shift, width)]
        bound = draw(st.integers(1, 7))
    else:
        oracle = balanced_oracle() if kind == "balanced" else two_orbit_oracle()
        symbols = oracle.alphabet.symbols
        windows = lambda width: [w.symbols for w in _all_words(symbols, width)]
        bound = draw(st.integers(1, 7 if kind == "balanced" else 12))
    k = len(oracle.alphabet)
    v = Word(draw(st.lists(st.integers(0, k), max_size=2)))
    return oracle, windows, v, bound


def _all_words(symbols, n):
    words = [Word()]
    for _ in range(n):
        words = [w + Word([s]) for w in words for s in symbols]
    return words


@SCAN
@given(scans())
def test_scan_lists_the_reference_words_in_order(case):
    oracle, _, v, bound = case
    assert periodic_words_in_cylinder(oracle, v, bound) == lyndon_scan(oracle, v, bound)


@st.composite
def roofs(draw, windows):
    """A roof on the given windows of a drawn width, past and basis rank,
    with its table as tuples of Fractions."""
    width = draw(st.integers(1, 3))
    past = draw(st.integers(0, width - 1))
    basis = draw(st.sampled_from(BASES))
    table, reference = {}, {}
    for w in windows(width):
        coords = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))]
        coords += [Fraction(draw(st.integers(0, 2))) for _ in range(len(basis) - 1)]
        table[Word(w)] = basis.from_rational(coords[0]) + sum(
            (basis.unit(i).scale(c) for i, c in enumerate(coords) if i), basis.zero())
        reference[w] = tuple(coords)
    assume(table)
    return LocallyConstantRoof(past, width - 1 - past, table), reference


@SCAN
@given(st.data(), scans())
def test_orbit_sums_equal_plain_window_sums(data, case):
    oracle, windows, v, bound = case
    roof, reference = data.draw(roofs(windows))
    verdict = decide_mixing_synchronized(oracle, v, roof, bound)
    words = lyndon_scan(oracle, v, bound)
    if not words:
        assert verdict.kind == "Unknown"
        return
    assert list(verdict.witnesses) == words
    for w, g in zip(verdict.witnesses, verdict.generators):
        assert g.coords == cyclic_window_sum(reference, roof.past, roof.future, w.symbols)


def first_missing_window(roof, reference, words):
    """The window whose absence the scan reports: the first one missing from
    the table in the first word, in scan order, that reads one."""
    for w in words:
        n, width = len(w), roof.past + roof.future + 1
        for j in range(n):
            window = tuple(w.symbols[(j - roof.past + i) % n] for i in range(width))
            if window not in reference:
                return Word(window)
    return None


@SCAN
@given(st.data(), scans())
def test_a_missing_window_raises_the_first_one_read(data, case):
    oracle, windows, v, bound = case
    roof, reference = data.draw(roofs(windows))
    assume(len(reference) > 1)
    dropped = data.draw(st.sampled_from(sorted(reference)))
    del reference[dropped]
    table = {w: value for w, value in roof.table.items() if w.symbols != dropped}
    roof = LocallyConstantRoof(roof.past, roof.future, table)
    missing = first_missing_window(roof, reference, lyndon_scan(oracle, v, bound))
    if missing is None:
        decide_mixing_synchronized(oracle, v, roof, bound)
        return
    with pytest.raises(MissingWindowError) as got:
        decide_mixing_synchronized(oracle, v, roof, bound)
    assert str(got.value) == "window %s not in roof table (inadmissible context)" % missing


@pytest.mark.parametrize("oracle, v, symbols, missing", [
    (balanced_oracle, "0", (0, 1, 2), 3),
    # the symbols of 01 other than 1 are those of 0, which comes first
    (balanced_oracle, "0", (0, 2, 3), 1),
    # the symbols of 01 other than 0 are those of 1, which comes first
    (two_orbit_oracle, "1", (1,), 0),
])
def test_a_symbol_outside_a_width_one_table_is_named(oracle, v, symbols, missing):
    basis = RealBasis.rational()
    roof = LocallyConstantRoof.from_symbols({s: basis.from_rational(s + 1) for s in symbols})
    with pytest.raises(MissingWindowError, match=r"^window %d not in roof table" % missing):
        decide_mixing_synchronized(oracle(), Word.parse(v), roof, 6)


@SCAN
@given(st.data(), st.integers(2, 3), st.integers(0, 12))
def test_birkhoff_sum_reads_shifted_and_eventually_periodic_points(data, k, n):
    symbols = tuple(range(k))
    roof, reference = data.draw(roofs(lambda width: [w.symbols for w in _all_words(symbols, width)]))
    words = st.lists(st.sampled_from(symbols), min_size=1, max_size=4).map(Word)
    period, offset = data.draw(words), data.draw(st.integers(-6, 6))
    points = [EventuallyPeriodicPoint(period, Word(), period, offset),
              EventuallyPeriodicPoint(data.draw(words), data.draw(words.map(lambda w: w[1:])),
                                      period, offset)]
    for p in points:
        expected = window_sum(reference, roof.past, roof.future, p.__getitem__, n) if n else None
        got = birkhoff_sum(roof, p, n)
        assert got.coords == (expected or tuple(Fraction(0) for _ in range(len(roof.basis))))


@SCAN
@given(st.data(), st.integers(2, 3))
def test_birkhoff_sums_on_one_roof_read_its_cached_rows(data, k):
    """Many sums on one roof, which caches its integer rows on first use,
    equal the plain window sums, reduced; a window missing from the table raises,
    naming the first one read, and later sums on the roof still hold."""
    symbols = tuple(range(k))
    roof, reference = data.draw(roofs(lambda width: [w.symbols for w in _all_words(symbols, width)]))
    if data.draw(st.booleans()) and len(reference) > 1:
        dropped = data.draw(st.sampled_from(sorted(reference)))
        del reference[dropped]
        table = {w: value for w, value in roof.table.items() if w.symbols != dropped}
        roof = LocallyConstantRoof(roof.past, roof.future, table)
    words = st.lists(st.sampled_from(symbols), min_size=1, max_size=6).map(Word)
    for period in data.draw(st.lists(words, min_size=1, max_size=6)):
        p = EventuallyPeriodicPoint(period, Word(), period, data.draw(st.integers(-6, 6)))
        n = data.draw(st.integers(1, 12))
        try:
            expected = window_sum(reference, roof.past, roof.future, p.__getitem__, n)
        except KeyError as exc:
            with pytest.raises(MissingWindowError) as got:
                birkhoff_sum(roof, p, n)
            assert str(got.value) == (
                "window %s not in roof table (inadmissible context)" % Word(exc.args[0]))
        else:
            # in lowest terms, so that equal sums are equal QVectors
            assert birkhoff_sum(roof, p, n) == QVector(roof.basis, expected)
