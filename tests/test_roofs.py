import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from suspmix.decider import weigh_windows
from suspmix.exact import QVector, RealBasis
from suspmix.roofs import (
    EvaluableRoof,
    LocallyConstantRoof,
    MissingWindowError,
    WeightedShift,
    _ShiftedView,
    _zero_tail_start,
    birkhoff_sum,
    example_roof_harmonic,
    walters_norm,
)
from suspmix.shift import (
    Alphabet,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
    full_shift,
    higher_block_recode,
    sft_from_forbidden_words,
)

from reference import cycles_up_to, harmonic_walk

BINARY = Alphabet.of_size(2)
RATIONAL = RealBasis.rational()


def rational_roof_two_three():
    """2 on [0], 3 on [1]: the running locally constant example."""
    return LocallyConstantRoof.from_symbols(
        {0: RATIONAL.from_rational(2), 1: RATIONAL.from_rational(3)}
    )


class TestLocallyConstantRoof:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            LocallyConstantRoof.from_symbols(
                {0: RATIONAL.from_rational(0), 1: RATIONAL.from_rational(1)}
            )

    def test_nonpositive_value_named_at_its_first_window(self):
        # the value is tested once, and the first window that holds it is named
        zero, one = RATIONAL.from_rational(0), RATIONAL.from_rational(1)
        table = {Word.parse("00"): one, Word.parse("01"): zero, Word.parse("10"): zero,
                 Word.parse("11"): zero}
        with pytest.raises(ValueError, match="^roof value 0 at window 01 is not positive$"):
            LocallyConstantRoof(0, 1, table)

    @pytest.mark.parametrize("rows", [
        [("0", 1), ("1", 0), ("01", 2)],
        [("0", 1), ("01", 2), ("1", 0)],
        [("0", 1), ("1", 1), ("2", -1)],
        [("0", 1), ("x", 2)],
    ])
    def test_texts_fail_as_words_fail(self, rows):
        # the first bad window in table order is named, as by the Word table
        table = {w: RATIONAL.from_rational(v) for w, v in rows}
        with pytest.raises(ValueError) as want:
            LocallyConstantRoof(0, 0, {Word.parse(w): v for w, v in table.items()})
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(want.value))):
            LocallyConstantRoof.from_texts(0, 0, table)

    @given(st.dictionaries(st.text("0123", min_size=2, max_size=2), st.integers(1, 9), min_size=1))
    def test_texts_give_the_word_table(self, rows):
        table = {w: RATIONAL.from_rational(Fraction(v, 3)) for w, v in rows.items()}
        roof = LocallyConstantRoof.from_texts(1, 0, table)
        assert roof.table == {Word.parse(w): v for w, v in table.items()}
        assert roof.rendered() == {w: table[w].render() for w in sorted(table)}

    def test_value_at(self):
        r = rational_roof_two_three()
        p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert r.value_at(p, 0) == RATIONAL.from_rational(2)
        assert r.value_at(p, 1) == RATIONAL.from_rational(3)

    def test_min_max(self):
        r = rational_roof_two_three()
        assert r.min_value() == RATIONAL.from_rational(2)
        assert r.max_value() == RATIONAL.from_rational(3)

    @given(st.lists(st.tuples(st.integers(1, 40), st.integers(-5, 5), st.integers(1, 5)),
                    min_size=1, max_size=8))
    def test_min_max_agree_with_the_float_choice(self, coords):
        # positive, well-separated values: the exact order is that of the floats
        basis = RealBasis.with_constants(("a", math.sqrt(2)))
        values = [QVector(basis, (Fraction(p, q), Fraction(c, 7))) for p, c, q in coords]
        floats = sorted(map(float, values))
        assume(floats[0] > 1e-6)
        assume(all(y - x > 1e-6 or y == x for x, y in zip(floats, floats[1:])))
        table = {Word([i]): v for i, v in enumerate(values)}
        r = LocallyConstantRoof(0, 0, table)
        assert r.min_value() == min(values, key=float)
        assert r.max_value() == max(values, key=float)

    def test_from_function_window(self):
        shift = full_shift(BINARY)
        r = LocallyConstantRoof.from_function(
            0, 1, lambda w: RATIONAL.from_rational(1 + w[0] + 2 * w[1]), shift
        )
        p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert r.value_at(p, 0) == RATIONAL.from_rational(3)  # window 01
        assert r.value_at(p, 1) == RATIONAL.from_rational(2)  # window 10


SURD = RealBasis.with_constants(("a", math.sqrt(2)))


@st.composite
def tables_and_points(draw):
    """A table over an alphabet with gaps, of width 1 to 3, whose values are
    rational or irrational (some with coefficients of both signs), and
    periodic points over that alphabet, some reading a window it lacks."""
    alphabet = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    past = draw(st.integers(0, 2))
    future = draw(st.integers(0, 2 - past))
    windows = list(itertools.product(sorted(alphabet), repeat=past + future + 1))
    keep = draw(st.lists(st.booleans(), min_size=len(windows), max_size=len(windows)))
    assume(any(keep))
    value = st.tuples(st.integers(-3, 6), st.integers(0, 3), st.integers(1, 4)).map(
        lambda c: QVector(SURD, (Fraction(c[0], c[2]), Fraction(c[1], c[2]))))
    table = {}
    for w in draw(st.permutations([w for w, k in zip(windows, keep) if k])):
        table[w] = draw(value.filter(lambda v: float(v) > 0.1))
    words = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)
    points = draw(st.lists(st.tuples(words, st.integers(0, 12)), min_size=1, max_size=4))
    return past, future, table, [(EventuallyPeriodicPoint.periodic(Word(w)), n) for w, n in points]


def sum_or_missing(roof, p, n):
    try:
        return birkhoff_sum(roof, p, n)
    except MissingWindowError as exc:
        return "missing: %s" % exc


class TestOneStoredForm:
    """A roof from a Word table, from window texts or from code rows is one
    stored form, and the Word table is a read-only view of it."""

    @given(tables_and_points())
    def test_every_constructor_gives_one_roof(self, drawn):
        past, future, table, points = drawn
        base = max(2, 1 + max(map(max, table)))
        den = math.lcm(*(v.den for v in table.values()))
        rows = {sum(s * base ** i for i, s in enumerate(reversed(w))):
                tuple(n * (den // v.den) for n in v.num) for w, v in table.items()}
        roofs = [
            LocallyConstantRoof(past, future, {Word(w): v for w, v in table.items()}),
            LocallyConstantRoof.from_texts(past, future,
                                           {"".join(map(str, w)): v for w, v in table.items()}),
            LocallyConstantRoof._on_rows(past, future, SURD, base, den, rows),
        ]
        want = list(table.values())
        for roof in roofs:
            assert list(roof._codes[2].items()) == list(rows.items())
            assert roof._codes[:2] == (base, den)
            assert list(roof.table.items()) == [(Word(w), v) for w, v in table.items()]
            assert roof.values() == want
            assert roof.min_value() == min(want, key=float)
            assert roof.rendered() == {"".join(map(str, w)): table[w].render() for w in sorted(table)}
            assert [sum_or_missing(roof, p, n) for p, n in points] == [
                sum_or_missing(roofs[0], p, n) for p, n in points]
            with pytest.raises(TypeError):
                roof.table[Word(next(iter(table)))] = want[0]

    def test_a_negative_symbol_is_refused(self):
        # a window code reads -1 as base - 1: the roof read 3 as its least
        # value and no Birkhoff sum could find the window -1
        table = {Word([-1]): RATIONAL.from_rational(2), Word([0]): RATIONAL.from_rational(3)}
        with pytest.raises(ValueError, match="^window -1 has a negative symbol$"):
            LocallyConstantRoof(0, 0, table)


class TestBirkhoffSum:
    def test_running_example(self):
        r = rational_roof_two_three()
        p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert birkhoff_sum(r, p, 2) == RATIONAL.from_rational(5)

    def test_constant_roof(self):
        c = RATIONAL.from_rational(Fraction(7, 3))
        r = LocallyConstantRoof.constant(c, BINARY)
        p = EventuallyPeriodicPoint.periodic(Word.parse("0"))
        assert birkhoff_sum(r, p, 6) == c.scale(6)

    def test_harmonic_witness_formula(self):
        """Sums over ...u 1 0^m 1^n v^inf match the closed-form harmonic total."""
        roof = example_roof_harmonic()
        u, v = Word.parse("01"), Word.parse("10")
        for m in range(1, 8):
            for n in range(1, 6):
                core = u + Word.parse("1") + Word([0]) * m + Word([1]) * n
                x = EventuallyPeriodicPoint.from_parts(v, core, v, 0)
                omega_u1 = birkhoff_sum(roof, x, len(u) + 1)
                expected = omega_u1 + m + n + sum(1.0 / j for j in range(2, m + 2))
                got = birkhoff_sum(roof, x, len(u) + 1 + m + n)
                assert abs(got - expected) < 1e-9

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_cocycle_identity(self, a, b):
        r = rational_roof_two_three()
        left, core, right = Word.parse("011"), Word.parse("1"), Word.parse("01")
        p = EventuallyPeriodicPoint(left, core, right, 1)
        shifted = EventuallyPeriodicPoint(left, core, right, 1 + a)
        total = birkhoff_sum(r, p, a + b)
        assert total == birkhoff_sum(r, p, a) + birkhoff_sum(r, shifted, b)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=5), st.integers(0, 12),
           st.integers(-3, 3))
    def test_counted_windows_sum_as_terms_do(self, word, n, origin):
        # against one table term per shift, over a two-constant basis
        basis = RealBasis.with_constants(("a", 1.4142135623730951), ("b", 2.718281828459045))
        a, b = basis.unit(1), basis.unit(2)
        r = LocallyConstantRoof.from_function(
            1, 0, lambda w: basis.from_rational(Fraction(1, 1 + w[0])) + a.scale(w[1]) + b.scale(2),
            full_shift(BINARY))
        p = EventuallyPeriodicPoint(Word.parse("01"), Word(word), Word.parse("1"), origin)
        expected = basis.zero()
        for j in range(n):
            expected = expected + r.value_at(p, j)
        assert birkhoff_sum(r, p, n) == expected

    def test_missing_window_named_at_its_first_occurrence(self):
        r = LocallyConstantRoof.from_symbols({0: RATIONAL.from_rational(1)})
        p = EventuallyPeriodicPoint.periodic(Word.parse("0012"))
        with pytest.raises(MissingWindowError, match="^window 1 not in roof table"):
            birkhoff_sum(r, p, 4)

    def test_periodic_multiples(self):
        r = rational_roof_two_three()
        p = EventuallyPeriodicPoint.periodic(Word.parse("011"))
        one = birkhoff_sum(r, p, 3)
        for k in range(1, 5):
            assert birkhoff_sum(r, p, 3 * k) == one.scale(k)


def roof_weights(roof, shift):
    """The roof's weights on the block presentation of depth past + future."""
    depth = roof.past + roof.future
    return weigh_windows(*higher_block_recode(shift, depth), depth + 1, roof)


class TestEdgeWeights:
    def test_depth_one_on_full_shift(self):
        r = rational_roof_two_three()
        weighted = roof_weights(r, full_shift(BINARY))
        by_label = {e.label: weighted.weights[i] for i, e in enumerate(weighted.shift.edges)}
        assert by_label[0] == RATIONAL.from_rational(2)
        assert by_label[1] == RATIONAL.from_rational(3)

    def test_constant_roof(self):
        c = RATIONAL.from_rational(5)
        r = LocallyConstantRoof.constant(c, BINARY)
        weighted = roof_weights(r, full_shift(BINARY))
        assert all(w == c for w in weighted.weights)

    def test_cycle_sums_match_birkhoff(self):
        shift = full_shift(BINARY)
        r = LocallyConstantRoof.from_function(
            0, 1, lambda w: RATIONAL.from_rational(1 + 2 * w[0] + w[1]), shift
        )
        weighted = roof_weights(r, shift)
        for cyc in cycles_up_to(weighted.shift, 4):
            labels = Word(weighted.shift.edges[i].label for i in cyc)
            p = EventuallyPeriodicPoint.periodic(labels)
            path_sum = RATIONAL.zero()
            for i in cyc:
                path_sum = path_sum + weighted.weights[i]
            assert path_sum == birkhoff_sum(r, p, len(cyc))

    def test_golden_mean_cycle_sums(self):
        shift = sft_from_forbidden_words(BINARY, [Word.parse("11")])
        r = LocallyConstantRoof.from_function(
            1, 1, lambda w: RATIONAL.from_rational(1 + w[0] + w[1] + w[2]), shift
        )
        weighted = roof_weights(r, shift)
        for cyc in cycles_up_to(weighted.shift, 5):
            labels = Word(weighted.shift.edges[i].label for i in cyc)
            p = EventuallyPeriodicPoint.periodic(labels)
            path_sum = RATIONAL.zero()
            for i in cyc:
                path_sum = path_sum + weighted.weights[i]
            assert path_sum == birkhoff_sum(r, p, len(cyc))


class TestWaltersNorm:
    def test_constant(self):
        c = RATIONAL.from_rational(Fraction(5, 2))
        r = LocallyConstantRoof.constant(c, BINARY)
        assert walters_norm(r) == c.scale(2)

    def test_depth_one_is_twice_sup(self):
        # windows of a depth-one roof always sit inside the agreement zone
        r = rational_roof_two_three()
        assert walters_norm(r) == RATIONAL.from_rational(6)

    def test_constant_in_disguise(self):
        r = LocallyConstantRoof.from_symbols(
            {0: RATIONAL.from_rational(1), 1: RATIONAL.from_rational(1)}
        )
        assert walters_norm(r) == RATIONAL.from_rational(2)

    def test_past_window_contributes(self):
        # r(x) depends on x_{-2}: points agreeing on [-1, 1] can differ there
        shift = full_shift(BINARY)
        r = LocallyConstantRoof.from_function(
            2, 0, lambda w: RATIONAL.from_rational(1 + 2 * w[0]), shift
        )
        assert walters_norm(r) == RATIONAL.from_rational(8)


class TestHarmonicRoof:
    def test_values(self):
        roof = example_roof_harmonic()
        x = EventuallyPeriodicPoint.from_parts(
            Word.parse("1"), Word.parse("0001"), Word.parse("1"), 0
        )
        assert abs(roof.value_at(x) - 1.25) < 1e-12
        assert roof.value_at(EventuallyPeriodicPoint.periodic(Word.parse("1"))) == 1.0
        assert roof.value_at(EventuallyPeriodicPoint.periodic(Word.parse("0"))) == 1.0

    def test_vectorized_agrees_with_evaluator(self):
        roof = example_roof_harmonic()
        rng = np.random.default_rng(7)
        symbols = rng.integers(0, 2, size=50)
        symbols[-1] = 1  # pin the tail so scalar and vector paths agree
        vals = roof.vectorized(symbols)
        x = EventuallyPeriodicPoint.from_parts(
            Word.parse("1"), Word(symbols.tolist()), Word.parse("1"), 0
        )
        for j in range(len(symbols) - 1):
            assert abs(vals[j] - roof.value_at(x, j)) < 1e-12

    @given(
        st.lists(st.sampled_from([0, 0, 1]), min_size=1, max_size=4),
        st.lists(st.sampled_from([0, 0, 0, 1]), max_size=8),
        st.lists(st.sampled_from([0, 0, 0, 1]), min_size=1, max_size=4),
        st.integers(0, 10),
        st.lists(st.integers(-15, 15), max_size=2),
    )
    def test_evaluator_matches_the_walk(self, left, core, right, origin, offsets):
        roof = example_roof_harmonic()
        p = EventuallyPeriodicPoint.from_parts(Word(left), Word(core), Word(right), origin)
        x = p
        for off in offsets:
            x = _ShiftedView(x, off)
        # from index `limit` on, x reads only its right tail, whose whole period
        # lies before `limit`; so a walk capped there finds the same first 1
        # as the uncapped walk, or none when the tail is all zeros
        limit = len(left) + len(core) + origin + sum(map(abs, offsets)) + len(right) + 2
        assert roof.evaluator(x) == harmonic_walk(x, limit)

    def test_evaluator_on_zero_tails(self):
        roof = example_roof_harmonic()
        nowhere = [
            EventuallyPeriodicPoint.periodic(Word.parse("0")),
            EventuallyPeriodicPoint.from_parts(Word.parse("1"), Word.parse("000"), Word.parse("00"), 1),
            _ShiftedView(EventuallyPeriodicPoint.from_parts(
                Word.parse("01"), Word.parse("10"), Word.parse("0"), 0), 2),
        ]
        for x in nowhere:
            assert roof.evaluator(x) == 1.0
        in_core = EventuallyPeriodicPoint.from_parts(Word.parse("0"), Word.parse("000001"), Word.parse("0"), 0)
        assert roof.evaluator(in_core) == 1.0 + 1.0 / 6.0
        behind_view = _ShiftedView(_ShiftedView(in_core, -4), 1)
        assert roof.evaluator(behind_view) == 1.0 + 1.0 / 9.0
        # a point of another type is walked as before
        assert roof.evaluator([0, 0, 0, 1]) == 1.25

    def test_zero_tail_start_through_views(self):
        # core "0110" at [-2, 2), zero tail from 2; the views move it to 2 + 2
        p = EventuallyPeriodicPoint.from_parts(Word.parse("1"), Word.parse("0110"), Word.parse("0"), 2)
        assert _zero_tail_start(p) == 2
        assert _zero_tail_start(_ShiftedView(_ShiftedView(p, 3), -5)) == 4
        q = EventuallyPeriodicPoint.from_parts(Word.parse("0"), Word.parse("0"), Word.parse("01"), 0)
        assert _zero_tail_start(_ShiftedView(q, 1)) is None
        assert _zero_tail_start([0, 0, 0]) is None

    def test_refuses_other_symbols(self):
        # at the 2 of (201)-bar the evaluator once read the run of zeros
        # after it (4/3), and the numpy path gave 1.0
        roof = example_roof_harmonic()
        with pytest.raises(ValueError):
            roof.value_at(EventuallyPeriodicPoint.periodic(Word.parse("201")))
        with pytest.raises(ValueError):
            roof.vectorized(np.array([[2, 0, 1] * 3]))
        # a zero's value reads up to the next 1, and the 2 comes first
        with pytest.raises(ValueError):
            roof.value_at(EventuallyPeriodicPoint.periodic(Word.parse("021")))

    def test_modulus_nonincreasing(self):
        roof = example_roof_harmonic()
        mods = [roof.walters_modulus(k) for k in range(1, 30)]
        assert all(a >= b for a, b in zip(mods, mods[1:]))


def test_locally_constant_walters_property():
    """Once windows resolve, Birkhoff sums of agreeing points are equal."""
    shift = sft_from_forbidden_words(BINARY, [Word.parse("11")])
    r = LocallyConstantRoof.from_function(
        1, 1, lambda w: RATIONAL.from_rational(1 + w[0] + 3 * w[1] + w[2]), shift
    )
    k = r.past + r.future
    n = 5
    words = admissible_words(shift, n + 2 * k + 2)
    p_words = [w for w in words]
    for w in p_words[:10]:
        # two points sharing the central block x_{[-k, n+k]}
        x = EventuallyPeriodicPoint.from_parts(Word.parse("0"), w, Word.parse("0"), k + 1)
        y = EventuallyPeriodicPoint.from_parts(Word.parse("00"), w, Word.parse("0"), k + 1)
        assert birkhoff_sum(r, x, n) == birkhoff_sum(r, y, n)
