"""The scan's oracle automata against the implementations they replaced.

Each ``ShiftOracle`` is a start state and a step that the orbit scan
carries, one step per DFS node.  The balanced-2/3 coded shift's step and
its periodic test on the state after the word, the two-orbit shift's
scaffold-parse step and closed-form periodic test, and the edge-shift
oracle's step, the memoized ``subset_walk`` that ``is_word_admissible``
walks too, must give the answers of the run-list, rotation, whole-word
parse, repetition and plain set-walk versions, kept in ``reference.py``
or in ``special.two_orbit_is_admissible``, including their errors.  The
scan on the automata must list the words that ``reference.lyndon_scan``
lists when it asks those versions of every prefix, as the scan did before
it carried states.
"""

import dataclasses
import itertools
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from suspmix.decider import ShiftOracle, periodic_words_in_cylinder
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EmptyShiftError,
    Word,
    full_shift,
    is_word_admissible,
    sft_from_forbidden_words,
)
from suspmix.special import (
    BetaShift,
    QuadraticReal,
    _balanced_periodic,
    balanced_oracle,
    build_beta_graph,
    two_orbit_is_admissible,
    two_orbit_oracle,
    two_orbit_periodic_admissible,
)

from reference import (
    balanced_member_runs,
    balanced_periodic_rotation,
    balanced_periodic_runs,
    lyndon_scan,
    set_walk_admissible,
    two_orbit_periodic_by_repetition,
)

KERNELS = settings(max_examples=100, deadline=None)
GRAPHS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def all_words(symbols, max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(symbols, repeat=n)]


def per_orbit(reference, words):
    """``reference`` asked once per orbit, its answer given to every rotation.

    The periodic references read w-bar, so they cannot tell rotations apart;
    the kernels under test are asked of every rotation."""
    answers = {}
    for w in words:
        if w not in answers:
            answer = reference(Word(w))
            answers.update((w[i:] + w[:i], answer) for i in range(len(w) or 1))
        yield w, answers[w]


def walk(oracle, w):
    """The state of ``oracle.step`` walked from ``oracle.start`` over w, or None."""
    state = oracle.start
    for s in w:
        state = oracle.step(state, s)
        if state is None:
            return None
    return state


def step_walk(oracle, w):
    """Whether ``oracle.step``, walked from ``oracle.start``, reads all of w."""
    return walk(oracle, w) is not None


def walked(oracle, max_len, prune):
    """Words of length <= max_len over the oracle's alphabet, each with the
    state of the step walk after it or None, one step per word from its
    parent's state; with ``prune``, only the members and the words one
    symbol past one."""
    stack = [((), oracle.start)]
    while stack:
        w, state = stack.pop()
        yield w, state
        if len(w) < max_len and (state is not None or not prune):
            stack.extend((w + (s,), None if state is None else oracle.step(state, s))
                         for s in oracle.alphabet.symbols)


def test_balanced_member_on_every_short_word():
    oracle = balanced_oracle()
    for w in all_words(range(4), 8):
        assert oracle.is_admissible(Word(w)) == balanced_member_runs(w), w


def test_balanced_periodic_on_every_short_word():
    for w, expected in per_orbit(balanced_periodic_runs, all_words(range(4), 8)):
        assert _balanced_periodic(Word(w)) == expected, w


def test_balanced_periodic_reads_the_state_on_every_short_word():
    """Every member of length <= 10, with the state that the scan passes and
    without, and every word one symbol past a member: the rotation test
    agrees.  Any other word of that length has a rejected proper prefix,
    which is then a factor of its repetition too."""
    for w, state in walked(balanced_oracle(), 10, prune=True):
        expected = balanced_periodic_rotation(Word(w))
        if state is None:
            assert not expected and not _balanced_periodic(Word(w)), w
        else:
            assert _balanced_periodic(Word(w), state) == expected == _balanced_periodic(Word(w)), w


# runs of a few symbols, so that equal 2- and 3-runs are common, with
# symbols outside the coded alphabet
run_words = st.lists(st.tuples(st.integers(-1, 4), st.integers(1, 5)), max_size=8).map(
    lambda runs: tuple(s for s, n in runs for _ in range(n))[:16]
)


@KERNELS
@given(st.one_of(run_words, st.lists(st.integers(-1, 4), max_size=16).map(tuple)))
def test_balanced_kernels_on_longer_words(w):
    """The references do not reject symbols outside 0-3; the periodic test
    answers only for members, as w is a factor of w-bar."""
    oracle, member = balanced_oracle(), balanced_member_runs(w)
    assert oracle.is_admissible(Word(w)) == member
    expected = member and balanced_periodic_runs(Word(w))
    assert balanced_periodic_rotation(Word(w)) == balanced_periodic_runs(Word(w))
    assert _balanced_periodic(Word(w)) == expected
    if member:
        assert _balanced_periodic(Word(w), walk(oracle, w)) == expected


def test_two_orbit_step_walk_on_every_short_word():
    """Every binary word of length <= 16; the scan reaches bound 15, and
    ``ref.two_orbit_b16`` bound 16."""
    for w, state in walked(two_orbit_oracle(), 16, prune=False):
        assert (state is not None) == two_orbit_is_admissible(w), w


def capped_closed_form(w: Word, i_cap) -> bool:
    """The closed form of the shift whose alternating generators 1(01)^k
    stop at k = i_cap: (01)-bar, their limit, drops out; 1-bar stays."""
    return two_orbit_periodic_admissible(w) and (i_cap is None or 0 not in w.symbols)


@pytest.mark.parametrize("i_cap", [None, 0, 1, 2, 3])
def test_two_orbit_closed_form_on_every_short_word(i_cap):
    reference = lambda w: two_orbit_periodic_by_repetition(w, i_cap)
    for w, expected in per_orbit(reference, all_words((0, 1), 12)):
        assert capped_closed_form(Word(w), i_cap) == expected, w


@pytest.mark.parametrize("i_cap", [None, 0, 1, 2, 3])
def test_two_orbit_closed_form_rejects_other_symbols(i_cap):
    for text in ["2", "12", "0121", "1111112", "2101"]:
        w = Word.parse(text)
        assert not capped_closed_form(w, i_cap)
        assert not two_orbit_periodic_by_repetition(w, i_cap)


def test_capped_two_orbit_oracle_keeps_only_the_fixed_point():
    assert not two_orbit_periodic_by_repetition(Word.parse("01"), 2)
    assert not two_orbit_is_admissible(Word.parse("01") * 4, 2)
    assert two_orbit_periodic_by_repetition(Word.parse("1"), 2)
    oracle = two_orbit_oracle()
    assert oracle.periodic_admissible(Word.parse("01"))
    assert oracle.periodic_admissible(Word.parse("1"))


# -- edge-shift oracles ---------------------------------------------------------


def answer(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def periodic_by_repetition(shift, w):
    return len(w) > 0 and set_walk_admissible(shift, w * len(shift.vertices))


def assert_matches_subset_walk(shift, max_len):
    """Every word over the alphabet and one symbol past it, asked in a row
    of the same shift, so that later words meet the memo of earlier ones;
    the symbol past the alphabet comes before and after the walk dies.
    The oracle's step walk must agree."""
    oracle = ShiftOracle.from_edge_shift(shift)
    outside = max(shift.alphabet.symbols) + 1
    for w in map(Word, all_words(shift.alphabet.symbols + (outside,), max_len)):
        expected = answer(set_walk_admissible, shift, w)
        assert answer(is_word_admissible, shift, w) == expected, w
        assert answer(oracle.is_admissible, w) == expected, w
        # the step walk stops where the walk dies, before a later symbol
        # outside the alphabet could raise
        walked = answer(step_walk, oracle, w)
        assert walked == expected or (walked is False and isinstance(expected, str)), w
        assert answer(oracle.periodic_admissible, w) == answer(periodic_by_repetition, shift, w), w


@st.composite
def forbidden_word_sfts(draw):
    k = draw(st.integers(2, 3))
    words = st.lists(st.integers(0, k - 1), min_size=2, max_size=3).map(Word)
    try:
        return sft_from_forbidden_words(Alphabet.of_size(k), draw(st.lists(words, max_size=4)))
    except EmptyShiftError:
        return full_shift(Alphabet.of_size(k))


@st.composite
def edge_graphs(draw):
    """Small multigraphs; parallel edges and repeated out-labels are common,
    so most are not right-resolving."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(0, k - 1)), min_size=1, max_size=10))
    try:
        return EdgeShift(range(n), edges, Alphabet.of_size(k))
    except EmptyShiftError:
        assume(False)


@GRAPHS
@given(forbidden_word_sfts())
def test_edge_oracle_on_forbidden_word_sfts(shift):
    assert_matches_subset_walk(shift, 4)


@GRAPHS
@given(edge_graphs())
def test_edge_oracle_on_edge_graphs(shift):
    assert_matches_subset_walk(shift, 4)


def test_edge_oracle_checks_symbols_after_the_walk_dies():
    # 11 is spelled by no path; the 5 after it is still outside the alphabet
    shift = sft_from_forbidden_words(Alphabet.of_size(2), [Word.parse("11")])
    oracle = ShiftOracle.from_edge_shift(shift)
    assert not oracle.is_admissible(Word.parse("0110"))
    for text in ["1105", "115", "5", "0105"]:
        with pytest.raises(ValueError, match="symbol 5 outside alphabet"):
            is_word_admissible(shift, Word.parse(text))
        with pytest.raises(ValueError, match="symbol 5 outside alphabet"):
            oracle.is_admissible(Word.parse(text))
        with pytest.raises(ValueError, match="symbol 5 outside alphabet"):
            oracle.periodic_admissible(Word.parse(text))
    assert not oracle.periodic_admissible(Word())
    assert oracle.is_admissible(Word())


def test_edge_oracle_on_a_non_right_resolving_graph():
    # two 0-edges leave A, so a word's path set is not one vertex
    shift = EdgeShift(
        ["A", "B", "C"],
        [("A", "B", 0), ("A", "C", 0), ("B", "A", 1), ("C", "C", 0), ("C", "A", 2)],
        Alphabet.of_size(3),
    )
    assert not shift.is_right_resolving()
    assert_matches_subset_walk(shift, 6)


# -- the scan on the automata ----------------------------------------------------


def old_style(alphabet, is_admissible, periodic_admissible):
    """An oracle given by its two membership callables only, as the scan's
    oracles were before they carried states; ``lyndon_scan`` asks it."""
    return SimpleNamespace(alphabet=alphabet, is_admissible=is_admissible,
                           periodic_admissible=periodic_admissible)


def beta_oracles(spec, depth):
    graph = build_beta_graph(BetaShift.create(spec), depth)
    copies = len(graph.vertices)
    return ShiftOracle.from_edge_shift(graph), old_style(
        graph.alphabet, lambda w: set_walk_admissible(graph, w),
        lambda w: len(w) > 0 and set_walk_admissible(graph, w * copies))


def two_orbit_cases(bounds):
    two_orbit = old_style(Alphabet.of_size(2), two_orbit_is_admissible,
                          two_orbit_periodic_by_repetition)
    for bound in bounds:
        for v in ("1", "0", "01", ""):
            yield "two-orbit", (two_orbit_oracle(), two_orbit), Word.parse(v), bound


def scan_cases():
    balanced = old_style(Alphabet.of_size(4), lambda w: balanced_member_runs(w.symbols),
                         balanced_periodic_runs)
    for bound in range(1, 10):
        for v in ("0", "2", "23", ""):
            yield "coded", (balanced_oracle(), balanced), Word.parse(v), bound
    yield from two_orbit_cases(range(1, 13))
    # the beta shifts of the scan workload, each at its depth and bound
    for spec, depth, bound in [(QuadraticReal(F(1, 2), F(1, 2), 5), 2, 12),
                               (QuadraticReal(F(1), F(1), 2), 3, 8),
                               (F(5, 2), 2, 10), (F(7, 3), 3, 9), (F(3, 2), 3, 12),
                               (QuadraticReal(F(1), F(1), 3), 2, 9)]:
        yield "beta %s" % (spec,), beta_oracles(spec, depth), Word.parse("0"), bound
    # two-orbit up to bound 16, as ``ref.two_orbit_b16`` scans; these come
    # last so that the cases above keep their numbered ids
    yield from two_orbit_cases(range(13, 17))


@pytest.mark.parametrize("name, oracles, v, bound", list(scan_cases()))
def test_scan_on_automata_lists_the_old_callables_words(name, oracles, v, bound):
    """The same words, and one step per node that the old scan asked about:
    a step from a wrong state would prune other nodes."""
    automaton, callables = oracles
    steps, queries = [], []
    step, member = automaton.step, callables.is_admissible
    automaton = dataclasses.replace(automaton, step=lambda q, s: steps.append(s) or step(q, s))
    callables = SimpleNamespace(**dict(vars(callables),
                                       is_admissible=lambda w: queries.append(w) or member(w)))
    assert periodic_words_in_cylinder(automaton, v, bound) == lyndon_scan(callables, v, bound)
    assert steps == [w[-1] for w in queries]
