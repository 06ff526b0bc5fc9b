import itertools
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EmptyShiftError,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
    base_period,
    determinize,
    full_shift,
    higher_block_recode,
    is_transitive,
    is_word_admissible,
    sft_from_forbidden_words,
)

from reference import cycles_up_to

BINARY = Alphabet.of_size(2)


def golden_mean():
    return sft_from_forbidden_words(BINARY, [Word.parse("11")])


def fig2_graph():
    """Five-vertex graph with cycles of lengths 2, 3 and 5."""
    edges = [
        ("A", "B", 0), ("B", "A", 0), ("B", "C", 0), ("C", "D", 0),
        ("D", "E", 0), ("E", "A", 0), ("E", "C", 0),
    ]
    return EdgeShift("ABCDE", edges, Alphabet.of_size(1))


class TestConstructors:
    def test_full_shift(self):
        s = full_shift(BINARY)
        assert len(s.vertices) == 1 and len(s.edges) == 2
        assert is_word_admissible(s, Word.parse("0110"))

    def test_full_shift_singleton(self):
        s = full_shift(Alphabet.of_size(1))
        assert is_word_admissible(s, Word.parse("000"))

    def test_full_shift_four_symbols(self):
        s = full_shift(Alphabet.of_size(4))
        assert len(s.edges) == 4

    def test_a_negative_symbol_is_refused(self):
        # window codes read symbols as digits: on {-1, 1} the code of -1 is
        # that of 1, and the roof -1 -> 1, 1 -> 2 was decided with delta 2, not 1
        with pytest.raises(ValueError, match="^alphabet symbols must be non-negative, got -1$"):
            Alphabet((-1, 1))

    def test_golden_mean_language(self):
        s = golden_mean()
        assert len(s.vertices) == 2
        for n in range(7):
            for w in itertools.product((0, 1), repeat=n):
                expected = "11" not in "".join(map(str, w))
                assert is_word_admissible(s, Word(w)) == expected

    def test_no_forbidden_words_is_full(self):
        s = sft_from_forbidden_words(BINARY, [])
        assert len(s.vertices) == 1 and len(s.edges) == 2

    def test_all_blocks_forbidden_is_empty(self):
        forbidden = [Word(w) for w in itertools.product((0, 1), repeat=2)]
        with pytest.raises(EmptyShiftError):
            sft_from_forbidden_words(BINARY, forbidden)


class TestHigherBlock:
    def test_full_shift_two_blocks(self):
        recoded, windows = higher_block_recode(full_shift(BINARY), 1)
        assert sorted(str(v) for v in recoded.names) == ["0", "1"]
        assert len(recoded.edges) == 4
        assert sorted(str(w) for w in windows.values()) == ["00", "01", "10", "11"]

    def test_golden_mean_two_blocks(self):
        recoded, _ = higher_block_recode(golden_mean(), 2)
        assert sorted(str(v) for v in recoded.names) == ["00", "01", "10"]

    def test_preserves_language(self):
        shift = golden_mean()
        recoded, _ = higher_block_recode(shift, 3)
        for n in range(9):
            for w in itertools.product((0, 1), repeat=n):
                assert is_word_admissible(recoded, Word(w)) == is_word_admissible(
                    shift, Word(w)
                )

    def test_window_map_consistency(self):
        shift = golden_mean()
        recoded, windows = higher_block_recode(shift, 2)
        for i, e in enumerate(recoded.edges):
            w = windows[i]
            assert len(w) == 3
            assert w[-1] == e.label
            assert is_word_admissible(shift, w)

    def test_depth_zero_is_the_resolving_base(self):
        # p has two 0-edges to q: the base is the subset graph, one edge per
        # base edge, each reading its own label
        shift = EdgeShift("pq", [("p", "q", 0), ("p", "q", 0), ("q", "p", 1)], BINARY)
        recoded, windows = higher_block_recode(shift, 0)
        assert recoded.is_right_resolving()
        assert (len(recoded.vertices), len(recoded.edges)) == (2, 2)
        assert {i: str(w) for i, w in windows.items()} == {
            i: str(e.label) for i, e in enumerate(recoded.edges)}
        golden = golden_mean()
        assert higher_block_recode(golden, 0)[0] is golden
        with pytest.raises(ValueError):
            higher_block_recode(golden, -1)


class TestStructure:
    def test_full_shift_transitive(self):
        assert is_transitive(full_shift(BINARY))

    def test_disjoint_loops_not_transitive(self):
        s = EdgeShift([0, 1], [(0, 0, 0), (1, 1, 1)], BINARY)
        assert not is_transitive(s)

    def test_fig2_transitive(self):
        assert is_transitive(fig2_graph())

    def test_base_period_full_shift(self):
        assert base_period(full_shift(BINARY)) == 1

    def test_base_period_three_cycle(self):
        s = EdgeShift([0, 1, 2], [(0, 1, 0), (1, 2, 0), (2, 0, 0)], Alphabet.of_size(1))
        assert base_period(s) == 3

    def test_base_period_fig2(self):
        assert base_period(fig2_graph()) == 1

    def test_base_period_divides_cycle_lengths(self):
        for s in (golden_mean(), fig2_graph()):
            g = base_period(s)
            for cyc in cycles_up_to(s, 12):
                assert len(cyc) % g == 0


class TestSynchronizing:
    def test_definition_on_random_extensions(self):
        shift = golden_mean()
        v = Word.parse("1")
        words = [w for n in range(7) for w in admissible_words(shift, n)]
        for u in words:
            for w in words:
                if is_word_admissible(shift, u + v) and is_word_admissible(shift, v + w):
                    assert is_word_admissible(shift, u + v + w)


class TestDeterminize:
    def test_same_language(self):
        even = EdgeShift(
            "AB",
            [("A", "A", 1), ("A", "B", 0), ("B", "A", 0), ("B", "B", 1)],
            BINARY,
        )
        det = determinize(even)
        assert det.is_right_resolving()
        for n in range(7):
            for w in itertools.product((0, 1), repeat=n):
                assert is_word_admissible(det, Word(w)) == is_word_admissible(
                    even, Word(w)
                )


    def test_keeps_the_terminal_component(self):
        # the full set {p, q} loops on 0 but is left for good on 1
        shift = EdgeShift("pq", [("p", "q", 0), ("p", "q", 0), ("q", "p", 0), ("p", "q", 1)], BINARY)
        det = determinize(shift)
        assert set(det.names) == {frozenset("p"), frozenset("q")}
        assert det.is_right_resolving() and is_transitive(det)
        for n in range(7):
            for w in itertools.product((0, 1), repeat=n):
                assert is_word_admissible(det, Word(w)) == is_word_admissible(shift, Word(w))

    def test_keeps_every_subset_of_an_intransitive_graph(self):
        # two loops have no common terminal component
        shift = EdgeShift(range(2), [(0, 0, 1), (0, 0, 1), (1, 1, 0)], BINARY)
        assert set(determinize(shift).names) == {frozenset({0}), frozenset({1})}


class TestPoints:
    def test_periodic_lookup(self):
        p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert p[0] == 0 and p[1] == 1 and p[-1] == 1

    def test_shift_of_periodic(self):
        # the shifted point is the same parts read one place further on
        p = EventuallyPeriodicPoint(Word.parse("01"), Word(), Word.parse("01"), 1)
        assert p[0] == 1 and p[1] == 0

    def test_spike_core(self):
        p = EventuallyPeriodicPoint.from_parts(
            Word.parse("0"), Word.parse("1"), Word.parse("0")
        )
        assert p[0] == 1
        assert all(p[j] == 0 for j in (-3, -1, 1, 5))

    def test_shift_agrees_with_index_offset(self):
        p = EventuallyPeriodicPoint.from_parts(
            Word.parse("10"), Word.parse("11101"), Word.parse("001"), 2
        )
        for n in range(-6, 12):
            q = EventuallyPeriodicPoint(p.left_period, p.core, p.right_period, p.origin_offset + n)
            assert all(q[i] == p[i + n] for i in range(-8, 8))

    def test_run_built_point_is_immutable_and_pickles(self):
        p = EventuallyPeriodicPoint.from_runs(
            Word.parse("0"), [(Word.parse("10"), 3), (Word(), 2)], Word.parse("1"), -1
        )
        assert pickle.loads(pickle.dumps(p)) == p
        with pytest.raises(AttributeError):
            p.origin_offset = 0
        with pytest.raises(ValueError, match="non-negative"):
            EventuallyPeriodicPoint.from_runs(Word.parse("0"), [(Word.parse("1"), -1)], Word.parse("0"))

    def test_minimal_period(self):
        assert EventuallyPeriodicPoint.periodic(Word.parse("0101")).minimal_period() == 2
        aperiodic = EventuallyPeriodicPoint.from_parts(
            Word.parse("0"), Word.parse("1"), Word.parse("0")
        )
        assert aperiodic.minimal_period() is None

@given(st.lists(st.integers(0, 1), min_size=0, max_size=8))
def test_subword_closure(symbols):
    """If a word is admissible, so is every subword."""
    shift = golden_mean()
    w = Word(symbols)
    if is_word_admissible(shift, w):
        for i in range(len(w)):
            for j in range(i, len(w) + 1):
                assert is_word_admissible(shift, w[i:j])


@given(st.integers(1, 3), st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_recode_language_random(k, symbols):
    shift = golden_mean()
    recoded, _ = higher_block_recode(shift, k)
    w = Word(symbols)
    assert is_word_admissible(recoded, w) == is_word_admissible(shift, w)
