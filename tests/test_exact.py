import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from suspmix.exact import (
    AmbiguousSignError,
    QVector,
    RealBasis,
    floor_mod,
    parse_qvector,
    rational_gcd,
    setwise_commensurate,
    span_rank,
)
from suspmix.special import QuadraticReal

RATIONAL = RealBasis.rational()
AB = RealBasis.with_constants(("a", 1.2599210498948732), ("b", 1.4422495703074083))


def qv(basis, *coords):
    return QVector(basis, tuple(Fraction(c) for c in coords))


def brute_force_rational_gcd(values, limit=100):
    best = None
    for q in range(1, limit + 1):
        for p in range(1, limit + 1):
            g = Fraction(p, q)
            if all((v / g).denominator == 1 for v in values):
                if best is None or g > best:
                    best = g
    return best


class TestRealBasis:
    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_an_approximation_not_finite_and_positive(self, a):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            RealBasis.with_constants(("a", a))


class TestRationalGcd:
    def test_integers(self):
        assert rational_gcd([Fraction(2), Fraction(3)]) == 1

    def test_fractions(self):
        assert rational_gcd([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)

    def test_single(self):
        assert rational_gcd([Fraction(7, 5)]) == Fraction(7, 5)

    def test_negative_values_use_absolute_value(self):
        assert rational_gcd([Fraction(-4), Fraction(6)]) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rational_gcd([Fraction(0), Fraction(1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rational_gcd([])

    @given(
        st.lists(
            # Denominators from {1,2,3,4,5} keep the answer's denominator
            # within the oracle's p, q <= 100 search range.
            st.builds(
                Fraction,
                st.integers(min_value=1, max_value=10),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_agrees_with_brute_force(self, values):
        assert rational_gcd(values) == brute_force_rational_gcd(values)

    @given(
        st.lists(
            st.fractions(
                min_value=Fraction(1, 10), max_value=10, max_denominator=12
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_divides_every_value_exactly(self, values):
        g = rational_gcd(values)
        for v in values:
            assert (v / g).denominator == 1


class TestSpanRank:
    def test_proportional_vectors(self):
        assert span_rank([qv(AB, 0, 1, 1), qv(AB, 0, 2, 2)]) == 1

    def test_standard_basis(self):
        assert span_rank([qv(AB, 0, 1, 0), qv(AB, 0, 0, 1)]) == 2

    def test_empty(self):
        assert span_rank([]) == 0

    def test_zero_vector_has_rank_zero(self):
        assert span_rank([AB.zero()]) == 0

    def test_dependent_triple(self):
        v1 = qv(AB, 1, 2, 0)
        v2 = qv(AB, 0, 1, 1)
        assert span_rank([v1, v2, v1 + v2]) == 2

    def test_mixed_bases_rejected(self):
        with pytest.raises(ValueError):
            span_rank([RATIONAL.from_rational(1), AB.zero()])


class TestSetwiseCommensurate:
    def test_integers_give_delta_one(self):
        delta = setwise_commensurate(
            [RATIONAL.from_rational(2), RATIONAL.from_rational(3)]
        )
        assert delta == RATIONAL.from_rational(1)

    def test_independent_constants_give_none(self):
        assert setwise_commensurate([AB.unit(1), AB.unit(2)]) is None

    def test_common_irrational_generator(self):
        ab = AB.unit(1) + AB.unit(2)
        delta = setwise_commensurate([ab, ab.scale(2), ab.scale(3)])
        assert delta == ab

    def test_zero_values_ignored(self):
        delta = setwise_commensurate(
            [RATIONAL.zero(), RATIONAL.from_rational(Fraction(1, 2))]
        )
        assert delta == RATIONAL.from_rational(Fraction(1, 2))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            setwise_commensurate([RATIONAL.zero()])

    def test_delta_normalized_positive(self):
        delta = setwise_commensurate(
            [RATIONAL.from_rational(-2), RATIONAL.from_rational(-3)]
        )
        assert float(delta) > 0

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_agrees_with_span_rank(self, pairs):
        values = [qv(AB, 0, p, q) for p, q in pairs]
        nonzero = [v for v in values if not v.is_zero()]
        if not nonzero:
            return
        delta = setwise_commensurate(values)
        if span_rank(nonzero) >= 2:
            assert delta is None
        else:
            assert delta is not None
            for v in nonzero:
                q = v.ratio_to(delta)
                assert q is not None and q.denominator == 1

    def test_maximality(self):
        values = [
            RATIONAL.from_rational(Fraction(3, 4)),
            RATIONAL.from_rational(Fraction(5, 4)),
        ]
        delta = setwise_commensurate(values)
        assert delta == RATIONAL.from_rational(Fraction(1, 4))
        for k in range(2, 11):
            bigger = delta.scale(k)
            assert any(
                v.ratio_to(bigger) is None or v.ratio_to(bigger).denominator != 1
                for v in values
            )


class TestQVector:
    def test_float_value(self):
        v = qv(AB, 1, 1, 0)
        assert abs(float(v) - (1 + 1.2599210498948732)) < 1e-12

    def test_is_positive_guard(self):
        tiny = AB.unit(1).scale(Fraction(1, 10**12)) - AB.from_rational(
            Fraction(12599210498948732, 10**28)
        )
        assert not tiny.is_zero()
        with pytest.raises(AmbiguousSignError):
            tiny.is_positive()

    def test_zero_is_not_positive(self):
        assert not AB.zero().is_positive()

    def test_ratio_to(self):
        v = qv(AB, 0, 2, 4)
        w = qv(AB, 0, 1, 2)
        assert v.ratio_to(w) == 2
        assert w.ratio_to(qv(AB, 0, 1, 3)) is None

    def test_render_roundtrip(self):
        v = qv(AB, Fraction(5, 3), Fraction(-1, 2), 7)
        assert parse_qvector(v.render(), AB) == v

    def test_render_examples(self):
        assert qv(AB, 0, 1, 1).render() == "a + b"
        assert qv(AB, 2, 0, 0).render() == "2"
        assert AB.zero().render() == "0"
        assert qv(AB, 0, Fraction(-1, 2), 0).render() == "-1/2*a"

    @given(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=20),
            st.fractions(min_value=-9, max_value=9, max_denominator=20),
            st.fractions(min_value=-9, max_value=9, max_denominator=20),
        )
    )
    def test_render_roundtrip_random(self, coords):
        v = qv(AB, *coords)
        assert parse_qvector(v.render(), AB) == v


class TestSignAndOrder:
    def test_same_sign_coefficients_need_no_float(self):
        # 1e-13 is inside the float guard band, but no coefficient is negative
        tiny = RATIONAL.from_rational(Fraction(1, 10**13))
        assert tiny.is_positive() and tiny.sign() == 1
        assert not (-tiny).is_positive() and (-tiny).sign() == -1
        assert qv(AB, 0, Fraction(1, 10**15), Fraction(1, 10**15)).sign() == 1
        assert qv(AB, Fraction(-1, 10**15), 0, Fraction(-1, 10**15)).sign() == -1
        assert AB.zero().sign() == 0

    def test_order_and_abs(self):
        a, b = AB.unit(1), AB.unit(2)  # a ~ 1.26, b ~ 1.44
        assert a < b and b > a and not b < a and not a < a
        assert min([b, a]) is a and max([a, b]) is b
        assert abs(a - b) == abs(b - a) == b - a
        assert abs(AB.zero()) == AB.zero()

    def test_mixed_signs_inside_the_guard_still_raise(self):
        near = AB.unit(1).scale(Fraction(1, 10**12))
        other = AB.from_rational(Fraction(12599210498948732, 10**28))
        with pytest.raises(AmbiguousSignError):
            near < other
        with pytest.raises(AmbiguousSignError):
            abs(near - other)


def fraction_floor_mod(x, unit):
    n = math.floor(x / unit)
    return n, x - n * unit


# values within 1e-13 of a multiple of the unit, on either side of it
near_multiples = st.builds(
    lambda k, unit, e: (k * unit + e, unit),
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4)),
    st.sampled_from([Fraction(-1, 10**13), Fraction(0), Fraction(1, 10**13)]),
)
anywhere = st.tuples(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**9),
    st.fractions(min_value=Fraction(1, 10**6), max_value=1000, max_denominator=10**9),
)


class TestFloorMod:
    @given(st.one_of(near_multiples, anywhere), st.integers(0, 2))
    def test_matches_fraction_floor_and_mod(self, case, element):
        # a rational multiple of one basis element has a same-sign coefficient row
        x, unit = case
        n, r = fraction_floor_mod(x, unit)
        e = AB.unit(element)
        assert floor_mod(e.scale(x), e.scale(unit)) == (n, e.scale(r))

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=50),
           st.fractions(min_value=-20, max_value=20, max_denominator=50),
           st.sampled_from([2, 3, 5, 7, 10]))
    def test_floors_a_quadratic_real(self, a, b, d):
        x = QuadraticReal(a, b, d)
        with localcontext() as ctx:
            # 60 digits: a + b*sqrt(d) with these a, b is an integer or far from one
            ctx.prec = 60
            value = (Decimal(a.numerator) / a.denominator
                     + Decimal(b.numerator) / b.denominator * Decimal(d).sqrt())
            want = [n for n in range(-200, 200) if n <= value < n + 1]
        assert floor_mod(x, 1) == (want[0], x - want[0])
        assert math.floor(x) == want[0]

    def test_a_bad_first_guess_is_corrected(self):
        # the float quotient rounds up to the next integer; the signs step back
        x, unit = RATIONAL.from_rational(Fraction(3 * 10**17 - 1, 10**17)), RATIONAL.from_rational(1)
        assert math.floor(float(x) / float(unit)) == 3
        assert floor_mod(x, unit) == (2, RATIONAL.from_rational(Fraction(10**17 - 1, 10**17)))
