"""The periodic-orbit scan against brute force over all periodic words.

The references here enumerate every word up to the bound, as the scan did
before it walked Lyndon words: the orbit sets, verdicts and grids must
agree.  Also covered: the indexed two-orbit scaffold against its linear
scan, the linear-time non-cohomology witness, and invariant checks that
survive ``python -O``.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import suspmix
from suspmix.decider import (
    ShiftOracle,
    _nonzero_cycle_witness,
    are_cohomologous,
    cycle_data,
    decide_mixing_synchronized,
    periodic_obstruction,
    periodic_words_in_cylinder,
)
from suspmix.exact import RealBasis, setwise_commensurate, span_rank
from suspmix.roofs import LocallyConstantRoof, WeightedShift, birkhoff_sum
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EmptyShiftError,
    EventuallyPeriodicPoint,
    Word,
    full_shift,
    sft_from_forbidden_words,
)
from suspmix.special import _SEQ_PREFIX, _factor_occurs, two_orbit_periodic_words

from reference import cycles_up_to

BINARY = Alphabet.of_size(2)
RATIONAL = RealBasis.rational()
ROOT2 = RealBasis.with_constants(("r", 1.4142135623730951))
SCAN = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def primitive_root(w: tuple) -> tuple:
    n = len(w)
    return next(w[:d] for d in range(1, n + 1) if n % d == 0 and w[:d] * (n // d) == w)


def orbit_of(w) -> tuple:
    """The least rotation of the primitive root: one name per orbit."""
    root = primitive_root(tuple(w))
    return min(root[i:] + root[:i] for i in range(len(root)))


def in_cylinder(w, v) -> bool:
    return all(w[k % len(w)] == v[k] for k in range(len(v)))


def periodic_words(oracle: ShiftOracle, v: Word, bound: int) -> list[Word]:
    """Every word w, |w| <= bound, with w-bar in the shift and in [v]."""
    return [
        Word(bits)
        for q in range(1, bound + 1)
        for bits in itertools.product(oracle.alphabet.symbols, repeat=q)
        if in_cylinder(bits, v) and oracle.periodic_admissible(Word(bits))
    ]


@st.composite
def sft_cases(draw):
    k = draw(st.integers(2, 3))
    words = st.lists(st.integers(0, k - 1), min_size=2, max_size=3).map(Word)
    forbidden = draw(st.lists(words, max_size=4))
    try:
        shift = sft_from_forbidden_words(Alphabet.of_size(k), forbidden)
    except EmptyShiftError:
        shift = full_shift(Alphabet.of_size(k))
    v = Word(draw(st.lists(st.integers(0, k - 1), max_size=2)))
    return shift, v, draw(st.integers(1, 6))


@SCAN
@given(sft_cases())
def test_scan_finds_one_word_per_orbit(case):
    shift, v, bound = case
    oracle = ShiftOracle.from_edge_shift(shift)
    got = periodic_words_in_cylinder(oracle, v, bound)
    for w in got:
        assert len(w) <= bound and in_cylinder(w, v)
        assert primitive_root(tuple(w)) == tuple(w)
    orbits = [orbit_of(w) for w in got]
    assert len(set(orbits)) == len(orbits)
    assert set(orbits) == {orbit_of(w) for w in periodic_words(oracle, v, bound)}


@SCAN
@given(sft_cases(), st.integers(0, 1), st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2)),
                                                min_size=9, max_size=9))
def test_verdict_matches_all_word_sums(case, future, values):
    shift, v, bound = case
    k = len(shift.alphabet)

    def value(window):
        a, b = values[sum(s * k**i for i, s in enumerate(window))]
        return ROOT2.from_rational(a) + ROOT2.unit(1).scale(b)

    roof = LocallyConstantRoof.from_function(0, future, value, shift)
    oracle = ShiftOracle.from_edge_shift(shift)
    verdict = decide_mixing_synchronized(oracle, v, roof, bound)
    words = periodic_words(oracle, v, bound)
    if not words:
        assert verdict.kind == "Unknown"
        return
    sums = [birkhoff_sum(roof, EventuallyPeriodicPoint.periodic(w), len(w)) for w in words]
    if span_rank(sums) >= 2:
        assert verdict.kind == "TopMixing" and verdict.delta is None
    else:
        assert verdict.kind == "NotMixingUpToBound"
        assert verdict.delta == setwise_commensurate(sums)
    assert len(verdict.witnesses) == len(verdict.generators)
    for w, s in zip(verdict.witnesses, verdict.generators):
        assert s == birkhoff_sum(roof, EventuallyPeriodicPoint.periodic(w), len(w))


def test_orbit_closed_only_by_a_power_is_found():
    # 0-bar is spelled by the 2-cycle A -> B -> A and by no loop
    shift = EdgeShift(["A", "B"], [("A", "B", 0), ("B", "A", 0), ("A", "A", 1)], BINARY)
    oracle = ShiftOracle.from_edge_shift(shift)
    assert oracle.periodic_admissible(Word.parse("0"))
    assert not oracle.periodic_admissible(Word.parse("10"))
    assert periodic_words_in_cylinder(oracle, Word.parse("0"), 3) == [
        Word.parse("0"), Word.parse("001")]


def test_two_orbit_scan_finds_exactly_its_two_orbits():
    assert sorted(map(str, two_orbit_periodic_words(16))) == ["01", "1"]


def linear_factor_occurs(interior, lead, trail) -> bool:
    """The scaffold lookup as a scan over every start position."""
    a, t = _SEQ_PREFIX, len(interior)
    if t == 0:
        return lead <= 4 and trail <= 4
    for i in range(1, len(a) - t):
        if a[i : i + t] != interior:
            continue
        if lead and a[i - 1] < lead:
            continue
        if trail and (i + t >= len(a) or a[i + t] < trail):
            continue
        return True
    return False


def test_scaffold_index_matches_linear_scan():
    for t in range(7):
        for pattern in itertools.product((3, 4), repeat=t):
            for lead in range(5):
                for trail in range(5):
                    interior = list(pattern)
                    expected = linear_factor_occurs(interior, lead, trail)
                    assert _factor_occurs(interior, lead, trail) == expected, (pattern, lead, trail)


def test_non_cohomology_witness_on_a_large_presentation():
    # 2^11 block vertices: enumerating cycles up to |V| would never finish
    width = 11
    blocks = [Word(bits) for bits in itertools.product((0, 1), repeat=width)]
    r = LocallyConstantRoof(0, width - 1, {w: RATIONAL.from_rational(1 + w[0]) for w in blocks})
    bumped = dict(r.table)
    bumped[Word([1] * width)] = RATIONAL.from_rational(Fraction(5, 2))
    s = LocallyConstantRoof(0, width - 1, bumped)
    result = are_cohomologous(s, r, full_shift(Alphabet.of_size(2)))
    assert not result.cohomologous
    witness = result.witness_orbit
    assert not periodic_obstruction(s, r, witness).is_zero()
    assert witness.minimal_period() <= 2 ** width


def witness_edges(weighted: WeightedShift) -> list[int]:
    """The witness cycle as edge indices; each edge carries its own label."""
    shift = weighted.shift
    by_label = {e.label: i for i, e in enumerate(shift.edges)}
    witness = _nonzero_cycle_witness(cycle_data(weighted))
    cycle = [by_label[s] for s in witness.right_period]
    starts = [shift.edges[i].source for i in cycle]
    assert len(set(starts)) == len(cycle)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert shift.edges[a].target == shift.edges[b].source
    return cycle


def cycle_sum(weighted: WeightedShift, cycle: list[int]):
    return sum((weighted.weights[i] for i in cycle), RATIONAL.zero())


def test_witness_when_the_potential_tree_is_not_breadth_first():
    # cycle_data's in-tree reaches b from d, a breadth-first one from a
    a, b, c, d = "abcd"
    edges = [(d, b, 0), (a, d, 1), (b, a, 2), (c, a, 3), (d, c, 4)]
    shift = EdgeShift([a, b, c, d], edges, Alphabet.of_size(5))
    weights = tuple(RATIONAL.from_rational(x) for x in (1, -1, 0, 0, 0))
    weighted = WeightedShift(shift, weights, {})
    assert not cycle_sum(weighted, witness_edges(weighted)).is_zero()


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 5))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    # a ring keeps the graph strongly connected
    pairs = [(i, (i + 1) % n) for i in range(n)] + extra
    edges = [(u, v, label) for label, (u, v) in enumerate(pairs)]
    shift = EdgeShift(list(range(n)), edges, Alphabet.of_size(len(edges)))
    values = draw(st.lists(st.integers(-2, 2), min_size=len(edges), max_size=len(edges)))
    return WeightedShift(shift, tuple(RATIONAL.from_rational(x) for x in values), {})


@SCAN
@given(weighted_graphs())
def test_witness_exactly_when_some_cycle_is_nonzero(weighted):
    cycles = cycles_up_to(weighted.shift, len(weighted.shift.vertices))
    nonzero = any(not cycle_sum(weighted, c).is_zero() for c in cycles)
    assert bool(cycle_data(weighted).nonzero_cycle_values()) == nonzero
    if nonzero:
        assert not cycle_sum(weighted, witness_edges(weighted)).is_zero()


@SCAN
@given(st.lists(st.integers(1, 3), min_size=16, max_size=16), st.integers(0, 15))
def test_cohomology_witness_on_four_block_roofs(values, bumped):
    # the 4-block presentation of the full 2-shift, where in-trees built
    # depth first and breadth first differ
    blocks = [Word(bits) for bits in itertools.product((0, 1), repeat=4)]
    r = LocallyConstantRoof(0, 3, {w: RATIONAL.from_rational(x) for w, x in zip(blocks, values)})
    table = dict(r.table)
    table[blocks[bumped]] = table[blocks[bumped]] + RATIONAL.from_rational(1)
    s = LocallyConstantRoof(0, 3, table)
    result = are_cohomologous(s, r, full_shift(BINARY))
    assert not result.cohomologous
    assert not periodic_obstruction(s, r, result.witness_orbit).is_zero()


def test_invariants_survive_optimized_mode():
    src = str(Path(suspmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "from suspmix.decider import MixingVerdict\n"
        "from suspmix.exact import RealBasis\n"
        "try:\n"
        "    MixingVerdict('NotTopMixing', delta=RealBasis.rational().from_rational(-1))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.stdout.strip() == "raised"
