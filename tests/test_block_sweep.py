"""The block sweep behind admissible words and block presentations.

``admissible_words``, ``higher_block_recode`` and the symbol-named
presentation all read one sweep of (block -> path ends) maps.  The
references here are the constructions the sweep replaced: a frontier of
(end, block) pairs grown from each start vertex, and a loop that recodes
at every block length until each vertex is named by its block.  The last
tests build several presentations of one shift, which must decide alike.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from suspmix.decider import (
    HypothesisError,
    are_cohomologous,
    decide_mixing_sft,
    normalize_to_delta_grid,
    normalizing_blocks,
    section_blocks,
    unit_cross_section,
)
from suspmix.exact import RealBasis
from suspmix.roofs import LocallyConstantRoof
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EmptyShiftError,
    Word,
    admissible_words,
    determinize,
    higher_block_recode,
    is_word_admissible,
    resolving_base,
    sft_from_forbidden_words,
    symbol_named_presentation,
)

BINARY = Alphabet.of_size(2)
TERNARY = Alphabet.of_size(3)
RATIONAL = RealBasis.rational()
SWEEP = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def forbidden_sft(forbidden):
    try:
        return sft_from_forbidden_words(TERNARY, [Word(w) for w in forbidden])
    except EmptyShiftError:
        return None


def edge_graph(n, edges):
    try:
        return EdgeShift(range(n), edges, BINARY)
    except EmptyShiftError:
        return None


forbidden_sfts = st.lists(
    st.lists(st.integers(0, 2), min_size=2, max_size=3), min_size=1, max_size=5
).map(forbidden_sft)

edge_graphs = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1)),
        min_size=1, max_size=9,
    ).map(lambda edges: edge_graph(n, edges))
)

non_resolving_graphs = edge_graphs.filter(lambda s: s is not None and not s.is_right_resolving())


def reference_recode(shift, k):
    """higher_block_recode as a frontier of (end, block) pairs per start vertex."""
    base = resolving_base(shift)
    pairs = set()
    for v in base.vertices:
        frontier = {(v, ())}
        for _ in range(k):
            frontier = {
                (base.edges[i].target, blk + (base.edges[i].label,))
                for u, blk in frontier
                for i in base.out_edges(u)
            }
        pairs |= frontier
    by_block = {}
    for v, blk in pairs:
        by_block.setdefault(blk, set()).add(v)

    def name(v, blk):
        return Word(blk) if len(by_block[blk]) == 1 else (v, Word(blk))

    ordered = sorted(pairs, key=lambda p: (p[1], str(p[0])))
    edges, windows = [], []
    for v, blk in ordered:
        for i in base.out_edges(v):
            e = base.edges[i]
            edges.append((name(v, blk), name(e.target, blk[1:] + (e.label,)), e.label))
            windows.append(Word(blk + (e.label,)))
    recoded = EdgeShift([name(v, blk) for v, blk in ordered], edges, shift.alphabet)
    return recoded, dict(enumerate(windows))


def reference_presentation(shift, k):
    """Recode at k, k+1, ... until every vertex is a Word (None past k+|V|+1)."""
    base = resolving_base(shift)
    for kk in range(k, k + len(shift.vertices) + 2):
        recoded, windows = higher_block_recode(base, kk)
        if all(isinstance(v, Word) for v in recoded.vertices):
            return recoded, windows, kk
    return None


def same_presentation(got, want):
    if want is None:
        return got is None
    (g, g_windows, g_k), (w, w_windows, w_k) = got, want
    return (g.vertices, g.edges, g_windows, g_k) == (w.vertices, w.edges, w_windows, w_k)


@SWEEP
@given(st.one_of(forbidden_sfts, edge_graphs), st.integers(1, 3))
def test_higher_block_recode_matches_the_per_vertex_frontier(shift, k):
    assume(shift is not None)
    got, want = higher_block_recode(shift, k), reference_recode(shift, k)
    assert (got[0].vertices, got[0].edges, got[1]) == (want[0].vertices, want[0].edges, want[1])
    # each (end, block) pair is named once, and its edges share that name
    names = {id(v) for v in got[0].vertices}
    assert all(id(e.source) in names and id(e.target) in names for e in got[0].edges)


@SWEEP
@given(forbidden_sfts, st.integers(1, 3))
def test_symbol_named_presentation_on_forbidden_word_sfts(shift, k):
    assume(shift is not None)
    assert same_presentation(symbol_named_presentation(shift, k), reference_presentation(shift, k))


@SWEEP
@given(non_resolving_graphs, st.integers(1, 3))
def test_symbol_named_presentation_on_non_resolving_graphs(shift, k):
    assert same_presentation(symbol_named_presentation(shift, k), reference_presentation(shift, k))


def test_symbol_named_presentation_is_found_at_its_bound():
    """A 3-vertex graph whose determinization first names every vertex
    at block length 5 = k + |V| + 1, the last length tried."""
    shift = EdgeShift(range(3), [(2, 1, 0), (2, 0, 1), (2, 0, 0), (1, 2, 0), (0, 1, 0)], BINARY)
    found = symbol_named_presentation(shift, 1)
    assert found is not None and found[2] == 5
    assert same_presentation(found, reference_presentation(shift, 1))
    assert symbol_named_presentation(shift, 2)[2] == 5


@SWEEP
@given(st.one_of(forbidden_sfts, edge_graphs))
def test_admissible_words_is_the_brute_force_filter(shift):
    assume(shift is not None)
    for n in range(7):
        brute = [Word(w) for w in itertools.product(shift.alphabet.symbols, repeat=n)
                 if is_word_admissible(shift, Word(w))]
        assert admissible_words(shift, n) == brute


@SWEEP
@given(forbidden_sfts, st.integers(0, 1), st.integers(0, 1), st.data())
def test_edge_roof_value_depends_only_on_the_target_block(shift, past, future, data):
    """The cross-section reads each block's level count off any edge into it."""
    assume(shift is not None)
    found = symbol_named_presentation(shift, past + future + 1)
    assume(found is not None)
    recoded, windows, kk = found
    width = past + future + 1
    values = data.draw(st.lists(st.integers(1, 4), min_size=3**width, max_size=3**width))
    roof = LocallyConstantRoof(past, future, {
        Word(w): RATIONAL.from_rational(values[i])
        for i, w in enumerate(itertools.product(range(3), repeat=width))
    })
    for i, e in enumerate(recoded.edges):
        assert roof.value_at(windows[i], kk - future) == roof.value_at(e.target, kk - 1 - future)


def even_shift():
    """A -1-> A, A -0-> B, B -0-> A: no block length names the vertices."""
    return EdgeShift("AB", [("A", "A", 1), ("A", "B", 0), ("B", "A", 0)], BINARY)


def test_even_shift_decides_on_the_exact_depth_recode_only():
    shift = even_shift()
    roof = LocallyConstantRoof.from_symbols({0: RATIONAL.from_rational(1),
                                             1: RATIONAL.from_rational(2)})
    verdict = decide_mixing_sft(shift, roof)
    two = RATIONAL.from_rational(2)
    assert verdict.kind == "NotTopMixing"
    assert verdict.delta == two
    assert symbol_named_presentation(shift, 1) is None
    with pytest.raises(HypothesisError):
        are_cohomologous(roof, roof, shift)
    with pytest.raises(HypothesisError):
        normalize_to_delta_grid(shift, roof, two)
    with pytest.raises(HypothesisError):
        unit_cross_section(shift, roof, two)


# -- one shift, several presentations -----------------------------------------

SQRT2 = RealBasis.with_constants(("a", 1.4142135623730951))


@st.composite
def transitive_graphs(draw):
    """A ring through 1-4 vertices and up to five more edges, binary labels."""
    n = draw(st.integers(1, 4))
    labels = st.integers(0, 1)
    edges = [(i, (i + 1) % n, draw(labels)) for i in range(n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), labels),
                           max_size=5))
    return EdgeShift(range(n), edges, BINARY)


def out_split(shift, v, first):
    """Split v in two: v keeps the out-edges that ``first`` marks, a new
    vertex takes the rest, and every edge into v goes into both."""
    new = len(shift.vertices)
    outs = iter(first)
    edges = []
    for e in shift.edges:
        source = e.source if e.source != v or next(outs) else new
        targets = (v, new) if e.target == v else (e.target,)
        edges += [(source, t, e.label) for t in targets]
    return EdgeShift(list(shift.vertices) + [new], edges, BINARY)


def verdict_delta_reason(shift, roof):
    verdict = decide_mixing_sft(shift, roof)
    return verdict.kind, verdict.delta, verdict.reason


@SWEEP
@given(transitive_graphs(), st.integers(0, 1), st.data())
def test_every_presentation_gives_one_verdict(shift, future, data):
    """A duplicated edge, renamed vertices, an out-split state and the
    subset graph present the same shift, so they get the same verdict,
    delta and reason.  Normalize and section read delta off their own
    block presentations, where one exists, and find the same one.  Roofs
    of width 1 and 2 take rational values or ones with an irrational
    part."""
    basis = data.draw(st.sampled_from([RATIONAL, SQRT2]))
    width = future + 1
    roof = LocallyConstantRoof(0, future, {
        Word(w): basis.from_rational(data.draw(st.integers(1, 4))) + (
            basis.unit(1) if basis is SQRT2 and data.draw(st.booleans()) else basis.zero())
        for w in itertools.product((0, 1), repeat=width)
    })
    want = verdict_delta_reason(shift, roof)
    assert want[0] != "Unknown"
    duplicated = EdgeShift(shift.vertices, list(shift.edges) + [data.draw(st.sampled_from(shift.edges))],
                           BINARY)
    names = data.draw(st.permutations("abcd"))
    renamed = EdgeShift([names[v] for v in reversed(shift.vertices)],
                        [(names[e.source], names[e.target], e.label) for e in shift.edges], BINARY)
    v = data.draw(st.sampled_from(shift.vertices))
    split = out_split(shift, v, data.draw(st.lists(st.booleans(), min_size=len(shift.out_edges(v)),
                                                   max_size=len(shift.out_edges(v)))))
    variants = (duplicated, renamed, split, determinize(shift))
    for variant in variants:
        assert verdict_delta_reason(variant, roof) == want, variant
    for variant in (shift,) + variants:
        for blocks in (normalizing_blocks, section_blocks):
            try:
                delta = blocks(variant, roof).delta()
            except HypothesisError:
                continue  # no block length names every vertex
            assert delta == want[1], (variant, blocks.__name__)


def test_a_presentation_without_a_synchronizing_word():
    """Two copies of the full 2-shift's vertex in a 2-cycle close no walk of
    odd length; the subset graph, one vertex with both loops, does."""
    shift = EdgeShift("AB", [("A", "B", 0), ("A", "B", 1), ("B", "A", 0), ("B", "A", 1)], BINARY)
    one = RATIONAL.from_rational(1)
    for past, future in ((0, 0), (0, 1)):
        roof = LocallyConstantRoof(past, future, {
            Word(w): one for w in itertools.product((0, 1), repeat=past + future + 1)})
        assert verdict_delta_reason(shift, roof) == ("NotTopMixing", one, "")
