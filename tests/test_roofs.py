import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

    def test_value_at(self):
        r = rational_roof_two_three()
        p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert r.value_at(p, 0) == RATIONAL.from_rational(2)
        assert r.value_at(p, 1) == RATIONAL.from_rational(3)

    def test_min_max(self):
        r = rational_roof_two_three()
        assert r.min_value() == RATIONAL.from_rational(2)
        assert r.max_value() == RATIONAL.from_rational(3)

    def test_from_function_window(self):
        shift = full_shift(BINARY)
        r = LocallyConstantRoof.from_function(
            0, 1, lambda w: RATIONAL.from_rational(1 + w[0] + 2 * w[1]), shift
        )
        p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert r.value_at(p, 0) == RATIONAL.from_rational(3)  # window 01
        assert r.value_at(p, 1) == RATIONAL.from_rational(2)  # window 10


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
    return weigh_windows(*higher_block_recode(shift, depth), depth + 1, roof.value_on_window)


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
