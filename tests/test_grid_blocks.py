"""Cycle data on integer rows, and the grid constant of the certifying
presentations.

``cycle_data`` sums on integer rows over one common denominator; the
reference in ``tests/reference.py`` does three QVector operations per
edge.  Normalization and the cross-section take delta from the cycle
values of the symbol-named presentation each builds, which must equal
the delta that ``decide_mixing_sft`` finds on its exact-depth recode.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from suspmix.decider import (
    cycle_data,
    decide_mixing_sft,
    normalize_to_delta_grid,
    normalizing_blocks,
    section_blocks,
    unit_cross_section,
)
from suspmix.exact import QVector, RealBasis
from suspmix.roofs import LocallyConstantRoof, WeightedShift
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EmptyShiftError,
    Word,
    admissible_words,
    is_transitive,
    sft_from_forbidden_words,
)

import reference

BASES = [
    RealBasis.rational(),
    RealBasis.with_constants(("a", 1.2599210498948732)),
    RealBasis.with_constants(("a", 1.2599210498948732), ("b", 1.4422495703074083)),
]
PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**9)),
)


@st.composite
def weighted_graphs(draw):
    """A strongly connected multigraph (a spanning cycle plus extra edges)
    with weights of mixed denominators over a basis of rank 1 to 3."""
    basis = draw(st.sampled_from(BASES))
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[(i + 1) % n], 0) for i in range(n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.just(0)),
                           max_size=12))
    shift = EdgeShift(range(n), edges, Alphabet.of_size(1))
    weights = tuple(
        QVector(basis, draw(st.tuples(*[coefficients] * len(basis)))) for _ in shift.edges
    )
    return WeightedShift(shift, weights, {})


@PROPERTY
@given(weighted_graphs())
def test_cycle_data_matches_the_qvector_reference(weighted):
    got, want = cycle_data(weighted), reference.cycle_data(weighted)
    vertices = weighted.shift.vertices
    assert got.root == want.root
    assert got.tree == [want.tree.get(v) for v in vertices]
    assert got.potentials == [want.potentials[v] for v in vertices]
    assert got.cycle_values == want.cycle_values
    for v in got.cycle_values + tuple(got.potentials):
        assert v.den > 0 and math.gcd(v.den, *v.num) == 1


def test_cycle_data_refuses_weights_over_different_bases():
    # the weights become rows over one basis when the presentation is
    # weighted, so the mix is refused there; the QVector reference, given
    # the weights as they are, refuses it when it sums them
    shift = EdgeShift([0], [(0, 0, 0), (0, 0, 0)], Alphabet.of_size(1))
    weights = (BASES[0].unit(0), BASES[1].unit(0))
    with pytest.raises(ValueError, match="different bases"):
        WeightedShift(shift, weights, {})
    with pytest.raises(ValueError, match="different bases"):
        reference.cycle_data(SimpleNamespace(shift=shift, weights=weights))


# -- the grid constant of normalize and section --------------------------------

ALPHA = RealBasis.with_constants(("alpha", 1.6180339887498949), ("beta", 2.718281828459045))


@st.composite
def sft_roofs(draw):
    """A transitive forbidden-word SFT on 2 or 3 symbols and a table roof of
    width 1 to 4: grid values, a constant plus a coboundary, or values with
    irrational parts."""
    alphabet = Alphabet.of_size(draw(st.integers(2, 3)))
    words = draw(st.lists(st.lists(st.sampled_from(alphabet.symbols), min_size=2, max_size=3),
                          max_size=4))
    try:
        shift = sft_from_forbidden_words(alphabet, [Word(w) for w in words])
    except EmptyShiftError:
        assume(False)
    assume(is_transitive(shift))
    width = draw(st.integers(1, 4))
    past = draw(st.integers(0, width - 1))
    windows = admissible_words(shift, width)
    kind = draw(st.sampled_from(["grid", "coboundary", "incommensurable"]))
    if kind == "grid":
        step = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        table = {w: ALPHA.from_rational(step * draw(st.integers(1, 5))) for w in windows}
    elif kind == "coboundary":
        # r = c + h(x[1..]) - h(x[..-1]) on the window, positive as |h| < 1
        c = ALPHA.unit(draw(st.integers(0, 2))) + ALPHA.from_rational(Fraction(1, 2))
        h = {w: Fraction(draw(st.integers(-3, 3)), 7)
             for w in itertools.product(alphabet.symbols, repeat=width - 1)}
        table = {w: c + ALPHA.from_rational(h[w.symbols[1:]] - h[w.symbols[:-1]])
                 for w in windows}
    else:
        table = {w: QVector(ALPHA, (draw(st.integers(1, 5)), draw(st.integers(0, 2)),
                                    draw(st.integers(0, 2))))
                 for w in windows}
    return shift, LocallyConstantRoof(past, width - 1 - past, table)


@PROPERTY
@given(sft_roofs())
def test_normalize_and_section_delta_is_the_decision_delta(case):
    shift, roof = case
    verdict = decide_mixing_sft(shift, roof)
    assert verdict.kind in ("TopMixing", "NotTopMixing")
    for blocks in (normalizing_blocks(shift, roof), section_blocks(shift, roof)):
        delta = blocks.delta()
        if verdict.kind == "TopMixing":
            assert delta is None
        else:
            assert delta == verdict.delta
            assert delta.render() == verdict.delta.render()
    if verdict.kind == "NotTopMixing":
        blocks = normalizing_blocks(shift, roof)
        built = normalize_to_delta_grid(shift, roof, verdict.delta)
        reused = normalize_to_delta_grid(shift, roof, verdict.delta, blocks)
        assert (built.roof.table, built.transfer.table) == (reused.roof.table, reused.transfer.table)


def test_section_reuses_the_blocks_it_is_given():
    shift = sft_from_forbidden_words(Alphabet.of_size(2), [Word.parse("11")])
    roof = LocallyConstantRoof(0, 1, {Word.parse(w): ALPHA.from_rational(v)
                                      for w, v in (("00", 2), ("01", 1), ("10", 2))})
    blocks = section_blocks(shift, roof)
    delta = blocks.delta()
    assert delta == ALPHA.from_rational(1)
    built, reused = unit_cross_section(shift, roof, delta), unit_cross_section(shift, roof, delta, blocks)
    assert (built.vertices, built.edges) == (reused.vertices, reused.edges)


small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def grid_roofs(draw):
    """A transitive forbidden-word SFT and a roof of width 1 to 3 over a basis
    of rank 1 to 3: multiples of a positive step plus a coboundary, so the
    flow is not mixing and the step, a multiple of delta, may exceed the
    least roof value."""
    alphabet = Alphabet.of_size(draw(st.integers(2, 3)))
    words = draw(st.lists(st.lists(st.sampled_from(alphabet.symbols), min_size=2, max_size=3),
                          max_size=3))
    try:
        shift = sft_from_forbidden_words(alphabet, [Word(w) for w in words])
    except EmptyShiftError:
        assume(False)
    assume(is_transitive(shift))
    basis = draw(st.sampled_from(BASES))
    step = QVector(basis, [abs(c) for c in draw(st.tuples(*[small] * len(basis)))])
    assume(not step.is_zero())
    width = draw(st.integers(1, 3))
    h = {w: QVector(basis, draw(st.tuples(*[small] * len(basis))))
         for w in itertools.product(alphabet.symbols, repeat=width - 1)}
    table = {}
    for w in admissible_words(shift, width):
        value = step.scale(draw(st.integers(1, 3))) + h[w.symbols[1:]] - h[w.symbols[:-1]]
        assume(float(value) > 1e-6)
        table[w] = value
    past = draw(st.integers(0, width - 1))
    return shift, LocallyConstantRoof(past, width - 1 - past, table)


@PROPERTY
@given(grid_roofs(), st.integers(1, 3))
def test_normalize_matches_the_float_guided_reference(case, divisor):
    shift, roof = case
    verdict = decide_mixing_sft(shift, roof)
    assert verdict.kind == "NotTopMixing"
    delta = verdict.delta.scale(Fraction(1, divisor))
    try:
        want = reference.normalize_to_delta_grid(shift, roof, delta)
    except ArithmeticError:
        assume(False)
    got = normalize_to_delta_grid(shift, roof, delta)
    assert (got.delta, got.transfer.table, got.roof.table) == want
    assert list(got.roof.table) == list(want[2])
