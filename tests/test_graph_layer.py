"""The stdlib graph layer: reachability, transitivity, iterative traversals.

networkx serves here only as an independent reference; the library itself
must not load it.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import suspmix
from suspmix.decider import cycle_data, decide_mixing_sft
from suspmix.exact import RealBasis
from suspmix.roofs import LocallyConstantRoof, WeightedShift
from suspmix.shift import Alphabet, Edge, EdgeShift, EmptyShiftError, Word, _essential_part, is_transitive
from suspmix.special import BetaShift, QuadraticReal, build_beta_graph

from reference import beta_graph_core, cycles_up_to, essential_part

BINARY = Alphabet.of_size(2)
RATIONAL = RealBasis.rational()


def multigraph_strategy(**list_options):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1)),
                     max_size=14, **list_options),
        )
    )


multigraphs = multigraph_strategy()
# At most one edge per (source, target, label): parallel edges and self-loops
# still occur, two per pair at most, so the number of paths of length <= 5
# that a cycle enumeration walks stays small.
distinct_edge_multigraphs = multigraph_strategy(unique_by=lambda edge: edge)


def build(n, edges):
    try:
        return EdgeShift(range(n), edges, BINARY)
    except EmptyShiftError:
        return None


def reference_digraph(shift):
    g = nx.MultiDiGraph()
    g.add_nodes_from(shift.vertices)
    g.add_edges_from((e.source, e.target) for e in shift.edges)
    return g


@given(multigraphs)
def test_is_transitive_matches_networkx(graph):
    shift = build(*graph)
    if shift is not None:
        assert is_transitive(shift) == nx.is_strongly_connected(reference_digraph(shift))


@given(multigraphs)
def test_essential_part_matches_the_pruning_loop(graph):
    n, edges = graph
    edges = [Edge(*e) for e in edges]
    assert _essential_part(list(range(n)), edges) == essential_part(list(range(n)), edges)


@pytest.mark.parametrize("inward", [True, False])
def test_long_tail_is_pruned_in_linear_time(inward):
    """A 2-cycle core with a 20,000-vertex path into (or out of) it: the
    pruning loop drops one tail vertex per pass over every edge."""
    n = 20_000
    path = [(i, i + 1, 0) for i in range(n)] if inward else [(i + 1, i, 0) for i in range(n)]
    edges = path + [(n, n + 1, 1), (n + 1, n, 0)]
    start = time.perf_counter()
    shift = EdgeShift(range(n + 2), edges, BINARY)
    elapsed = time.perf_counter() - start
    assert shift.names == (n, n + 1)
    assert [(shift.names[e.source], shift.names[e.target]) for e in shift.edges] == [
        (n, n + 1), (n + 1, n)]
    assert elapsed < 1.0


def recursive_cycles(shift, length):
    """cycles_up_to as a plain recursive DFS (the order reference)."""
    found = []

    def extend(path, start, current):
        if path and current == start:
            found.append(list(path))
        if len(path) == length:
            return
        for i in shift.out_edges(current):
            path.append(i)
            extend(path, start, shift.edges[i].target)
            path.pop()

    for v in shift.vertices:
        extend([], v, v)
    seen, out = set(), []
    for cyc in found:
        key = min(tuple(cyc[r:] + cyc[:r]) for r in range(len(cyc)))
        if key not in seen:
            seen.add(key)
            out.append(cyc)
    return out


@given(distinct_edge_multigraphs, st.integers(0, 5))
@settings(deadline=None)
def test_cycles_up_to_keeps_the_recursive_order(graph, length):
    shift = build(*graph)
    if shift is not None:
        assert cycles_up_to(shift, length) == recursive_cycles(shift, length)


BETAS = [
    Fraction(3, 2),
    Fraction(9, 4),
    Fraction(5, 3),
    QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5),
    QuadraticReal(1, 1, 2),
    QuadraticReal(1, 1, 3),
]


@pytest.mark.parametrize("beta", BETAS, ids=str)
@pytest.mark.parametrize("depth", range(2, 7))
def test_beta_graph_core_is_the_scc_of_v1(beta, depth):
    shift = BetaShift.create(beta)
    nu = list(shift.nu)
    full = nx.MultiDiGraph()
    full.add_nodes_from("V%d" % n for n in range(1, depth + 1))
    for n in range(1, depth + 1):
        if n < depth:
            full.add_edge("V%d" % n, "V%d" % (n + 1))
        for _ in range(nu[n - 1]):
            full.add_edge("V%d" % n, "V1")
    scc = next(c for c in nx.strongly_connected_components(full) if "V1" in c)
    assert set(build_beta_graph(shift, depth).names) == scc


@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_beta_graph_keeps_the_two_sweep_core(beta):
    """One pruned build gives the vertices and edges that the core of the
    sweeps from V1 keeps, at every depth; only the vertex order differs."""
    shift = BetaShift.create(beta)
    for depth in range(1, 17):
        graph = build_beta_graph(shift, depth)
        vertices, edges = beta_graph_core(shift, depth)
        assert sorted(graph.names) == vertices, depth
        assert [(graph.names[e.source], graph.names[e.target], e.label)
                for e in graph.edges] == edges, depth


def ring_with_chord(n, labels):
    """Vertices 0..n-1 in a ring, plus a chord from n-1 back to n // 2."""
    edges = [(i, (i + 1) % n, labels[i]) for i in range(n)]
    edges.append((n - 1, n // 2, 1))
    return EdgeShift(range(n), edges, BINARY)


def test_hundred_thousand_vertex_ring_decides():
    n = 10**5
    labels = [(i * i + i // 7) % 2 for i in range(n)]
    value = {0: 4, 1: 6}
    roof = LocallyConstantRoof.from_symbols(
        {s: RATIONAL.from_rational(v) for s, v in value.items()})
    verdict = decide_mixing_sft(ring_with_chord(n, labels), roof)
    ring_sum = sum(value[s] for s in labels)
    chord_sum = value[1] + sum(value[s] for s in labels[n // 2 : n - 1])
    assert verdict.kind == "NotTopMixing"
    assert verdict.delta == RATIONAL.from_rational(math.gcd(ring_sum, chord_sum))


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_traversals_need_no_deep_stack():
    n = 300
    shift = ring_with_chord(n, [i % 2 for i in range(n)])
    roof = LocallyConstantRoof.from_symbols({0: RATIONAL.from_rational(1),
                                             1: RATIONAL.from_rational(2)})
    # the ring itself, weighted: it presents the one orbit of (01)-bar, so
    # decide_mixing_sft would weight its 2-vertex subset graph instead
    weighted = WeightedShift(shift, tuple(roof.value_on_window(Word([e.label])) for e in shift.edges), {})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        data = cycle_data(weighted)
        cycles = cycles_up_to(shift, n)
    finally:
        sys.setrecursionlimit(limit)
    assert len(data.potentials) == n
    assert len(data.nonzero_cycle_values()) == 2
    # the chord cycle, the ring, and the chord cycle run twice
    assert sorted(len(c) for c in cycles) == [n // 2, n, n]


def test_cli_import_does_not_load_networkx():
    src = str(Path(suspmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, suspmix.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.stdout.strip() == "False"
