"""Exact values as integer rows, against the plain-Fraction references.

A QVector keeps integer numerators over one common denominator; these
tests compare every operation with the same operation on a tuple of
Fractions (``tests/reference.py``), check that ``Word`` hashes as the
dataclass did, and that equal values hash alike however they were made, so
that code may dedupe them by value.
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from suspmix.decider import grid_verdict
from suspmix.exact import QVector, RealBasis, common_rows, from_rows, parse_qvector, span_rank
from suspmix.roofs import _check_table
from suspmix.shift import Word

from reference import (
    fraction_float,
    fraction_parse,
    fraction_rank,
    fraction_ratio,
    fraction_render,
)

BASES = [
    RealBasis.rational(),
    RealBasis.with_constants(("a", 1.2599210498948732)),
    RealBasis.with_constants(("a", 1.2599210498948732), ("b", 1.4422495703074083)),
]
AB = BASES[2]

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)


@st.composite
def vector_pairs(draw):
    """A basis of rank 1 to 3 and two coordinate tuples over it."""
    basis = draw(st.sampled_from(BASES))
    coords = st.tuples(*[coefficients] * len(basis))
    return basis, draw(coords), draw(coords)


def check_canonical(v: QVector) -> None:
    assert v.den > 0
    assert math.gcd(v.den, *v.num) == 1
    assert all(type(n) is int for n in v.num)


@given(vector_pairs(), coefficients)
def test_qvector_matches_fraction_tuples(pair, k):
    basis, x, y = pair
    u, v = QVector(basis, x), QVector(basis, y)
    for w in (u, v):
        check_canonical(w)
    assert u.coords == x and v.coords == y
    assert all(type(c) is Fraction for c in u.coords)
    results = {
        u + v: tuple(a + b for a, b in zip(x, y)),
        u - v: tuple(a - b for a, b in zip(x, y)),
        -u: tuple(-a for a in x),
        u.scale(k): tuple(k * a for a in x),
        k * u: tuple(k * a for a in x),
        u * k: tuple(k * a for a in x),
    }
    for got, want in results.items():
        check_canonical(got)
        assert got.coords == want
    assert u.ratio_to(v) == fraction_ratio(x, y)
    assert v.ratio_to(u) == fraction_ratio(y, x)
    assert u.is_zero() == (not any(x))
    assert (u == v) == (x == y)
    if u == v:
        assert hash(u) == hash(v)
    assert u == QVector(basis, x) and hash(u) == hash(QVector(basis, x))
    assert float(u).hex() == fraction_float(x, basis.approx).hex()
    assert u.render() == fraction_render(x, basis.names)
    assert parse_qvector(u.render(), basis) == u


@given(vector_pairs())
def test_equal_values_from_different_routes_are_identical(pair):
    basis, x, y = pair
    u, v = QVector(basis, x), QVector(basis, y)
    routed = (u + v) - v
    assert routed == u and hash(routed) == hash(u)
    assert (routed.num, routed.den) == (u.num, u.den)
    assert {u, routed} == {u}


def test_qvector_interface():
    v = QVector(AB, (Fraction(1, 2), 0, Fraction(-3, 4)))
    assert (v.num, v.den) == ((2, 0, -3), 4)
    with pytest.raises(ValueError, match="coordinate count does not match basis size"):
        QVector(AB, (1, 2))
    with pytest.raises(ValueError, match="different bases"):
        v + BASES[0].zero()
    with pytest.raises(AttributeError):
        v.den = 1
    assert pickle.loads(pickle.dumps(v)) == v
    assert repr(v) == "QVector(basis=%r, coords=%r)" % (AB, v.coords)
    assert v != v.coords
    # the methods the benchmark's tracer wraps are defined on the class
    for name in ("__add__", "__sub__", "__neg__", "scale", "__mul__", "__rmul__", "is_positive"):
        assert name in vars(QVector)


@pytest.mark.parametrize("text", [
    "2/4*a", "0.5", "-1*a", "a + a", "a - a", "-a + 1/3 - 2*b", " 3/6 + 0.25*b ", "1_0/4",
    "-0", "+2*a", "1e2", "1.5e-1*b", "2/-4", "", "1/0", "1/0*a", "x*q", "q", "2*q", "2 *a",
    "2* a", "a+b", "1 + ", "²*a", "1/²", "١/٢*b",
])
def test_parse_matches_fraction_parse(text):
    try:
        want = fraction_parse(text, AB.names)
    except ZeroDivisionError:
        # an input error that names the text, where Fraction divides by zero
        with pytest.raises(ValueError) as got:
            parse_qvector(text, AB)
        assert str(got.value) == "zero denominator in %r" % text
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            parse_qvector(text, AB)
        assert str(got.value) == str(exc)
    else:
        got = parse_qvector(text, AB)
        check_canonical(got)
        assert got.coords == want


terms = st.tuples(
    st.sampled_from(["", "-", "+"]),
    st.one_of(
        st.integers(0, 40).map(str),
        st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda t: "%d/%d" % t),
        st.sampled_from(["0.5", "1.25", "3.", ".75", "١", "1_2", "x"]),
    ),
    st.sampled_from(["", "*a", "*b", "*1", "*q"]),
)


@given(st.lists(terms, min_size=1, max_size=4), st.lists(st.sampled_from([" + ", " - "]), min_size=3, max_size=3))
def test_parse_matches_fraction_parse_random(parts, joins):
    text = "".join((joins[i - 1] if i else "") + "".join(t) for i, t in enumerate(parts))
    test_parse_matches_fraction_parse(text)


rows = st.lists(st.tuples(*[coefficients] * 3), max_size=6)


@given(rows, st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3))
def test_span_rank_matches_fraction_elimination(base_rows, combos):
    # append combinations of the first two rows, so some inputs are rank deficient
    all_rows = list(base_rows)
    if len(base_rows) >= 2:
        x, y = base_rows[0], base_rows[1]
        all_rows += [tuple(p * a + q * b for a, b in zip(x, y)) for p, q in combos]
    vectors = [QVector(AB, r) for r in all_rows]
    assert span_rank(vectors) == fraction_rank(all_rows)


@given(st.lists(st.tuples(*[st.integers(-5, 5)] * 3), max_size=6))
def test_span_rank_on_integer_rows(int_rows):
    assert span_rank([QVector(AB, r) for r in int_rows]) == fraction_rank(int_rows)


words = st.lists(st.integers(0, 3), max_size=6)


@given(words, words)
def test_word_hash_equality_and_order(s, t):
    a, b = Word(s), Word(t)
    assert hash(a) == hash((tuple(s),))
    assert hash(a) == hash(a)  # the stored value
    assert (a == b) == (tuple(s) == tuple(t))
    assert (a < b) == (tuple(s) < tuple(t))
    assert (a <= b) == (tuple(s) <= tuple(t))
    assert a == Word(s) and hash(a) == hash(Word(s))
    assert repr(a) == "Word(symbols=%r)" % (tuple(s),)
    assert pickle.loads(pickle.dumps(a)) == a
    assert a[1:] == Word(s[1:]) and hash(a[1:]) == hash((tuple(s[1:]),))


@given(st.lists(st.integers(0, 12), max_size=6))
def test_word_text_spells_each_symbol(s):
    assert str(Word(s)) == ("".join(map(str, s)) if s else "ε")


def test_basis_hash_is_the_dataclass_hash_and_is_rebuilt_on_unpickling():
    for basis in BASES:
        assert hash(basis) == hash((basis.names, basis.approx))
        assert {basis: 1}[RealBasis(basis.names, basis.approx)] == 1
        # a string hash differs between processes, so a pickle carries none
        assert b"_hash" not in pickle.dumps(basis)
        copy = pickle.loads(pickle.dumps(basis))
        assert copy == basis and hash(copy) == hash(basis)


# -- one identity: equal values hash alike, however they were made ------------


def routes(basis: RealBasis, x: tuple, y: tuple, k: Fraction) -> list[QVector]:
    """Values made from x and y by every route that makes a QVector."""
    u, v = QVector(basis, x), QVector(basis, y)
    m = 6  # from_rows is handed each row unreduced, times m
    made = [u, v, u + v, v + u, (u + v) - v, u - v, -(v - u), -u, -(-u), u.scale(k), k * u,
            u.scale(1), u.scale(0), u - u, parse_qvector(u.render(), basis),
            parse_qvector(v.render(), basis), basis.zero(), QVector(basis, [0] * len(basis))]
    made += from_rows(basis, [[m * n for n in u.num], [m * n for n in v.num]], m * u.den)
    made += [basis.unit(i) for i in range(len(basis))]
    made += [QVector(basis, [int(i == j) for j in range(len(basis))]) for i in range(len(basis))]
    made += [basis.from_rational(x[0]), QVector(basis, [x[0]] + [0] * (len(basis) - 1))]
    return made + [pickle.loads(pickle.dumps(w)) for w in made]


@given(vector_pairs(), coefficients)
def test_equal_values_hash_alike(pair, k):
    basis, x, y = pair
    # two equal but distinct bases, and the pickles make more of them
    twin = RealBasis(basis.names, basis.approx)
    made = routes(basis, x, y, k) + routes(twin, x, y, k)
    for a in made:
        for b in made:
            if a == b:
                assert hash(a) == hash(b)
    # over equal bases, values are equal exactly when their coefficients are
    assert len(set(made)) == len({w.coords for w in made})


def test_the_roof_check_sign_tests_each_distinct_value_once(monkeypatch):
    tested = []
    is_positive = QVector.is_positive
    monkeypatch.setattr(QVector, "is_positive", lambda v: tested.append(v) or is_positive(v))
    half = (Fraction(1, 2), 0, 1)
    # three windows, two equal values that are not one object
    _check_table(0, 0, {Word([0]): QVector(AB, half), Word([1]): QVector(AB, half),
                        Word([2]): AB.unit(1)})
    assert tested == [QVector(AB, half), AB.unit(1)]


def test_common_rows_scales_each_distinct_value_once():
    half = (Fraction(1, 2), 0, Fraction(1, 3))
    values = [QVector(AB, half), AB.unit(2), QVector(AB, half)]
    den, rows = common_rows(values)
    assert (den, rows) == (6, [(3, 0, 2), (0, 0, 6), (3, 0, 2)])
    assert rows[0] is rows[2]


palette = st.lists(st.tuples(*[st.integers(-4, 4)] * 3).filter(any), min_size=1, max_size=4)


@given(palette, st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_grid_verdicts_do_not_ask_which_object_is_a_value(coords, picks):
    shared = [QVector(AB, c) for c in coords]
    one_object = [shared[i % len(shared)] for i in picks]
    fresh = [QVector(AB, g.coords) for g in one_object]
    a, b = grid_verdict(one_object, "NotTopMixing"), grid_verdict(fresh, "NotTopMixing")
    assert a.delta == b.delta
    assert a.to_record() == b.to_record()
