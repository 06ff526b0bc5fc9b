"""Mixing decisions and cohomology constructions for suspension flows.

The flow over a transitive shift with a positive locally constant roof is
not topologically mixing exactly when all periodic-orbit lengths lie on a
common grid delta*Z.  For SFT bases this is decided exactly via a
spanning-tree potential on the weighted presentation; for other bases the
periodic spectrum is scanned up to a bound and findings are reported as
semidecisions.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Hashable, Optional

from suspmix.exact import (QVector, RealBasis, _row_floor_mod, _row_multiple, floor_mod,
                           from_rows, setwise_commensurate)
from suspmix.roofs import (LocallyConstantRoof, WeightedShift, WindowFunction, _missing,
                           birkhoff_sum)
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Windows,
    Word,
    _code_symbols,
    higher_block_recode,
    is_transitive,
    is_word_admissible,
    subset_walk,
    symbol_named_presentation,
)


class HypothesisError(ValueError):
    """A stated precondition of a decision procedure does not hold."""


@dataclass(frozen=True)
class MixingVerdict:
    """Outcome of a mixing decision.

    ``kind`` is one of "TopMixing", "NotTopMixing", "NotMixingUpToBound",
    "Unknown".  ``delta`` is the maximal grid constant for the two
    non-mixing kinds; ``bound`` the period bound of a semidecision;
    ``generators`` the values whose rational span settled the decision.
    """

    kind: str
    delta: Optional[QVector] = None
    bound: Optional[int] = None
    reason: str = ""
    generators: tuple = ()
    witnesses: tuple = ()

    def __post_init__(self):
        if self.kind in ("NotTopMixing", "NotMixingUpToBound") and (
            self.delta is None or not self.delta.is_positive()
        ):
            raise ArithmeticError(
                "%s verdict needs a positive delta, got %s" % (self.kind, self.delta)
            )

    def to_record(self) -> dict:
        rec = {"verdict": self.kind}
        if self.delta is not None:
            rec["delta"] = self.delta.render()
            rec["basis"] = list(self.delta.basis.names)
        if self.bound is not None:
            rec["bound"] = self.bound
        if self.reason:
            rec["reason"] = self.reason
        # a scan lists a few distinct sums over many orbits
        texts = {g: g.render() for g in set(self.generators)}
        rec["generators"] = [texts[g] for g in self.generators]
        rec["witness_orbits"] = list(map(str, self.witnesses))
        return rec


class CycleData:
    """Spanning-tree potentials and edge cycle-values of a weighted graph.

    ``potentials[v]`` is the weight of a tree path discounted so that tree
    edges have cycle-value zero; ``cycle_values[i] = p(src) + w - p(tgt)``
    for edge i.  ``tree[v]`` is the in-tree edge leaving v toward the
    root (None at the root), so the tree path from v to the root sums to
    -p(v).  The root is the vertex whose name's text is least, so that the
    potentials do not depend on the numbering.  The subgroup
    generated by closed-walk weight sums equals the subgroup generated by
    the cycle values: each cycle value is a difference of two closed-walk
    sums through the root, and every closed-walk sum telescopes to a sum
    of cycle values.  Both are kept as integer rows over the common
    denominator ``den`` of the weights (``potential_rows``,
    ``value_rows``); ``potentials`` and ``cycle_values`` are their
    QVectors, made on first use, and ``nonzero_cycle_values`` makes one
    QVector per distinct nonzero value.
    """

    def __init__(self, weighted: WeightedShift, root: int, den: int,
                 potential_rows: list[tuple[int, ...]], value_rows: list[tuple[int, ...]],
                 tree: list[Optional[int]]):
        self.weighted, self.root, self.den = weighted, root, den
        self.potential_rows, self.value_rows, self.tree = potential_rows, value_rows, tree

    @functools.cached_property
    def potentials(self) -> list[QVector]:
        return from_rows(self.weighted.basis, self.potential_rows, self.den)

    @functools.cached_property
    def cycle_values(self) -> tuple[QVector, ...]:
        return tuple(from_rows(self.weighted.basis, self.value_rows, self.den))

    def nonzero_cycle_values(self) -> list[QVector]:
        """The nonzero cycle values in edge order."""
        return from_rows(self.weighted.basis, [r for r in self.value_rows if any(r)], self.den)


def cycle_data(weighted: WeightedShift) -> CycleData:
    """Potentials and cycle values over a strongly connected weighted shift."""
    shift = weighted.shift
    if not is_transitive(shift):
        raise HypothesisError("weighted presentation is not strongly connected")
    den, rows = weighted.rows
    sources, targets = shift.sources, shift.targets
    root = min(shift.vertices, key=shift.texts.__getitem__)
    # in-tree toward the root: the tree edge v -> u found from u has cycle
    # value zero, so p(v) + w = p(u)
    potentials: list = [None] * len(shift.vertices)
    potentials[root] = (0,) * len(rows[0])
    tree: list = [None] * len(shift.vertices)
    frontier = [root]
    while frontier:
        u = frontier.pop()
        pu = potentials[u]
        for i in shift.in_edges(u):
            v = sources[i]
            if potentials[v] is None:
                potentials[v] = tuple(map(sub, pu, rows[i]))
                tree[v] = i
                frontier.append(v)
    values = [
        tuple([a + w - b for a, w, b in zip(potentials[s], row, potentials[t])])
        for s, row, t in zip(sources, rows, targets)
    ]
    return CycleData(weighted, root, den, potentials, values, tree)


def weigh_windows(
    recoded: EdgeShift, windows: Windows, width: int, function: WindowFunction
) -> WeightedShift:
    """A block presentation weighted by a table.

    ``windows`` holds the block each edge reads, as from
    ``higher_block_recode``; the edge weighs the row of ``function`` (a
    roof, say) on the block's last ``width`` symbols, looked up by window
    code.  A window missing from the table raises MissingWindowError for
    the first edge that reads one.  Closed walks then sum the table over
    the periodic orbits they spell.
    """
    base = windows.base
    den, rows = function.code_rows(base)
    mod = base**width
    try:
        weights = [rows[code % mod] for code in windows.codes]
    except KeyError as exc:
        raise _missing(Word(_code_symbols(exc.args[0], width, base))) from None
    return WeightedShift.from_rows(recoded, function.basis, den, weights, windows)


def decide_mixing_sft(shift: EdgeShift, roof: LocallyConstantRoof) -> MixingVerdict:
    """Exact mixing decision for an SFT base (grid criterion on cycle values)."""
    if not is_transitive(shift):
        return MixingVerdict("Unknown", reason="base shift is not transitive")
    depth = roof.past + roof.future
    weighted = weigh_windows(*higher_block_recode(shift, depth), depth + 1, roof)
    reason = ""
    if len(weighted.shift.labels) == len(weighted.shift.vertices):
        reason = "base is a single periodic orbit; the dichotomy is vacuous there"
    # positive roofs force a nonzero cycle value on every cycle
    return grid_verdict(cycle_data(weighted).nonzero_cycle_values(), "NotTopMixing", reason=reason)


def grid_verdict(generators: list[QVector], kind: str, bound: Optional[int] = None,
                 reason: str = "", witnesses: tuple = ()) -> MixingVerdict:
    """The grid rule on nonzero sums that generate the group of orbit sums.

    The flow mixes unless every sum lies on one grid δℤ: rank >= 2 over Q
    gives TopMixing, otherwise ``kind`` with δ the positive generator.
    Both are taken over the distinct sums in order of first occurrence.
    """
    delta = setwise_commensurate(list(dict.fromkeys(generators)))
    if delta is None:
        return MixingVerdict("TopMixing", generators=tuple(generators), witnesses=witnesses)
    return MixingVerdict(kind, delta=delta, bound=bound, reason=reason,
                         generators=tuple(generators), witnesses=witnesses)


# -- synchronized / oracle-presented shifts ---------------------------------


@dataclass
class ShiftOracle:
    """Language access for shifts given without a finite presentation: an
    automaton that the orbit scan carries, from ``start`` on the empty word.

    ``step(state, symbol)`` is the next state, or None once the word has
    left the language.  ``is_admissible`` answers finite-word membership,
    by default a walk of ``step``; ``periodic_admissible(w, state=None)``
    answers whether the bi-infinite repetition of w lies in the shift.
    The scan asks it only of members and passes the state after w, so a
    test may read the wrap-around from it; None means it walks ``step``.
    """

    alphabet: Alphabet
    start: Hashable
    step: Callable[[Hashable, int], Optional[Hashable]]
    periodic_admissible: Callable[..., bool]
    is_admissible: Optional[Callable[[Word], bool]] = None

    def __post_init__(self):
        if self.is_admissible is None:
            self.is_admissible = self._walk

    def _walk(self, w: Word) -> bool:
        state, step = self.start, self.step
        for s in w:
            state = step(state, s)
            if state is None:
                return False
        return True

    @classmethod
    def from_edge_shift(cls, shift: EdgeShift) -> "ShiftOracle":
        """The oracle of the shift that an edge graph presents.

        Its state is the set of vertices that the paths spelling the word
        end at, and its step is the shift's memoized ``subset_walk``, which
        ``is_word_admissible`` walks too.  w-bar is in the shift iff a
        closed path spells a power of w; a path spelling w^|V| passes some
        vertex twice at a boundary between copies of w, so it exists
        exactly then.
        """
        copies = len(shift.vertices)
        return cls(shift.alphabet, *subset_walk(shift),
                   lambda w, state=None: len(w) > 0 and is_word_admissible(shift, w * copies),
                   lambda w: is_word_admissible(shift, w))


def periodic_words_in_cylinder(
    oracle: ShiftOracle, v: Word, period_bound: int
) -> list[Word]:
    """One word w per primitive periodic orbit of period <= bound through [v].

    The orbits are enumerated as Lyndon words by a single prenecklace DFS
    over all lengths (Fredricksen-Kessler-Maiorana), with ``v[0]`` ordered
    first so that every orbit visiting ``v[0]`` has its Lyndon word start
    there.  Every prefix of a Lyndon word is a factor of its repetition,
    so a prefix that ``oracle.step`` rejects is pruned.  Each stack entry
    carries its parent's oracle state, so each node costs one step; a Word
    is built, and ``periodic_admissible`` asked with the node's state,
    only at Lyndon nodes.
    The returned word is the Lyndon word when ``|v| <= 1``, else its first
    rotation whose repetition starts with v, so w-bar always lies in [v].
    The order is that of the DFS.  A bound below 1 raises ValueError.
    """
    if period_bound < 1:
        raise ValueError("period bound must be at least 1, got %d" % period_bound)
    symbols = list(oracle.alphabet.symbols)
    if len(v):
        if v[0] not in symbols:
            return []
        symbols.remove(v[0])
        symbols.insert(0, v[0])
    # the symbols ranked above each symbol, highest first, as they are pushed
    above = {s: tuple(symbols[:i:-1]) for i, s in enumerate(symbols)}
    step, periodic_admissible, start = oracle.step, oracle.periodic_admissible, oracle.start
    rotate = len(v) > 1
    found = []
    prefix: list = []
    # (length, period, last symbol, oracle state before it): the prefix of
    # that length, whose smallest period is p, is a prenecklace; it is
    # Lyndon iff p == length
    stack = [(1, 1, s, start) for s in reversed(symbols[:1] if len(v) else symbols)]
    pop, push = stack.pop, stack.append
    while stack:
        t, p, s, state = pop()
        state = step(state, s)
        if state is None:
            continue
        del prefix[t - 1 :]
        prefix.append(s)
        if p == t:
            word = Word(prefix)
            w = _rotation_in_cylinder(word, v) if rotate else word
            if w is not None and periodic_admissible(word, state):
                found.append(w)
        if t < period_bound:
            repeat = prefix[t - p]
            t += 1
            for a in above[repeat]:
                push((t, t, a, state))
            push((t, p, repeat, state))
    return found


def _rotation_in_cylinder(lyndon: Word, v: Word) -> Optional[Word]:
    """The first rotation of ``lyndon`` whose repetition starts with v,
    for |v| >= 2."""
    n = len(lyndon)
    for i in range(n):
        if all(lyndon[(i + k) % n] == v[k] for k in range(len(v))):
            return lyndon[i:] + lyndon[:i]
    return None


def _orbit_sums(roof: LocallyConstantRoof, words: list[Word]) -> list[QVector]:
    """Exact Birkhoff sum over one period of each w-bar.

    The sum depends only on the multiset of roof windows that occur
    cyclically in w, so one exact sum is computed per distinct multiset,
    keyed by its windows sorted; a width-1 roof's windows are the symbols
    of w.  A word that reads a window missing from the table shares its
    multiset with no earlier word (that one would have raised), so its sum
    is computed, and raises.
    """
    width = roof.past + roof.future + 1
    by_windows: dict = {}
    sums = []
    for w in words:
        if width == 1:
            key = tuple(sorted(w.symbols))
        else:
            n = len(w)
            cyclic = w.symbols * (width // n + 2)
            key = tuple(sorted(zip(*[cyclic[k : k + n] for k in range(width)])))
        total = by_windows.get(key)
        if total is None:
            total = by_windows[key] = birkhoff_sum(roof, EventuallyPeriodicPoint.periodic(w), len(w))
        sums.append(total)
    return sums


def decide_mixing_synchronized(
    oracle: ShiftOracle,
    v: Word,
    roof: LocallyConstantRoof,
    period_bound: int,
) -> MixingVerdict:
    """Semidecision from periodic orbits through a synchronizing word.

    Orbit-length rank >= 2 certifies mixing; a common grid among the
    orbits found is only evidence and is reported as NotMixingUpToBound
    (``grid_verdict``).  Every orbit is listed, with its sum, in
    ``witnesses`` and ``generators``.
    """
    words = periodic_words_in_cylinder(oracle, v, period_bound)
    if not words:
        return MixingVerdict(
            "Unknown",
            bound=period_bound,
            reason="no periodic point found in the cylinder within the period bound",
        )
    # positive roofs give nonzero sums
    return grid_verdict(_orbit_sums(roof, words), "NotMixingUpToBound", bound=period_bound,
                        witnesses=tuple(words))


# -- cohomology -------------------------------------------------------------


class TransferFunction(WindowFunction):
    """A locally constant function g with window x[-past .. future].

    Unlike a roof, values may be zero or negative, and ``future`` may be
    -1 (the window then ends left of the origin).  Stored as integer rows
    keyed by window code, as every ``WindowFunction``; ``table`` is a
    read-only view of them.
    """

    def is_zero(self) -> bool:
        return not any(map(any, self._codes[2].values()))


@dataclass
class CohomologyResult:
    cohomologous: bool
    transfer: Optional[TransferFunction]
    witness_orbit: Optional[EventuallyPeriodicPoint] = None


def _symbol_named(shift: EdgeShift, k: int) -> tuple[EdgeShift, Windows, int]:
    """``symbol_named_presentation`` at block length k, which must exist.

    Raises HypothesisError when no block length up to k + |V| + 1 names
    every vertex.
    """
    found = symbol_named_presentation(shift, k)
    if found is None:
        raise HypothesisError(
            "no block length up to %d makes vertices symbol-determined" % (k + len(shift.vertices) + 1)
        )
    return found


def are_cohomologous(
    r: LocallyConstantRoof, s: LocallyConstantRoof, shift: EdgeShift
) -> CohomologyResult:
    """Decide whether r - s is a coboundary g∘σ - g, constructing g.

    Exact: cohomologous iff every cycle of the weighted difference has
    value zero; g is then read off the spanning-tree potentials.  When
    false, a periodic witness orbit with a nonzero obstruction is
    attached.  The difference is taken on the rows of r and s, once per
    distinct window of the presentation.
    """
    if not is_transitive(shift):
        raise HypothesisError("cohomology test requires a transitive SFT base")
    past = max(r.past, s.past)
    future = max(r.future, s.future)
    width = past + future + 1
    recoded, windows, k = _symbol_named(shift, width)
    difference = _difference(r, s, past, future, windows)
    weighted = weigh_windows(recoded, windows, width, difference)
    data = cycle_data(weighted)
    if any(map(any, data.value_rows)):
        return CohomologyResult(False, None, _nonzero_cycle_witness(data))
    # d(e) = p(target) - p(source) on every edge: g is the potential read
    # on source blocks, which cover positions [j - (k - future), j + future - 1]
    potentials, diffs = data.potential_rows, weighted.rows[1]
    for i, (u, t) in enumerate(zip(recoded.sources, recoded.targets)):
        if diffs[i] != tuple(map(sub, potentials[t], potentials[u])):
            raise ArithmeticError("transfer does not reproduce the difference on edge %d" % i)
    blocks = recoded.blocks
    g = TransferFunction(k - future, future - 1, weighted.basis, blocks.base, data.den,
                         dict(zip(blocks.codes, potentials)))
    return CohomologyResult(True, g)


def _difference(r: LocallyConstantRoof, s: LocallyConstantRoof, past: int, future: int,
                windows: Windows) -> WindowFunction:
    """r - s on the windows x[-past .. future] that end the blocks of
    ``windows``, each roof reading its own window inside that one.

    The rows are taken once per distinct window, in order of first
    occurrence; a window that r, then s, lacks raises MissingWindowError.
    """
    base = windows.base
    (den_r, rows_r), (den_s, rows_s) = r.code_rows(base), s.code_rows(base)
    den = math.lcm(den_r, den_s)
    scale_r, scale_s = den // den_r, den // den_s
    width = past + future + 1
    mismatch = r.basis is not s.basis and r.basis != s.basis
    # a roof's window is the code's digits past - roof.past .. past + roof.future
    reads = []
    for roof, table in ((r, rows_r), (s, rows_s)):
        own = roof.past + roof.future + 1
        reads.append((table, base ** (future - roof.future), base**own, own))
    rows = {}
    mod = base**width
    for code in dict.fromkeys(c % mod for c in windows.codes):
        got = []
        for table, drop, keep, own in reads:
            window = code // drop % keep
            if window not in table:
                raise _missing(Word(_code_symbols(window, own, base)))
            got.append(table[window])
        if mismatch:
            raise ValueError("operands live over different bases")
        rows[code] = tuple([a * scale_r - b * scale_s for a, b in zip(*got)])
    return WindowFunction(past, future, r.basis, base, den, rows)


def _nonzero_cycle_witness(data: CycleData) -> EventuallyPeriodicPoint:
    """The periodic orbit of a simple cycle whose weight sum is nonzero.

    For the first edge e with a nonzero cycle value, take any path P from
    the root to src(e).  Closed through the in-tree, the walks P then
    src(e) -> root and P, e then tgt(e) -> root differ in sum by
    p(src) + w(e) - p(tgt), the cycle value of e, so one of them is
    nonzero; split into simple cycles, it leaves a nonzero one.  Linear
    in the size of the graph.
    """
    shift = data.weighted.shift
    rows = data.weighted.rows[1]
    sources, targets, tree = shift.sources, shift.targets, data.tree
    e = next(i for i, c in enumerate(data.value_rows) if any(c))
    # breadth-first out-tree for the root -> src(e) leg, -1 at the root
    parent: list = [None] * len(shift.vertices)
    parent[data.root] = -1
    queue = deque([data.root])
    while queue:
        u = queue.popleft()
        for i in shift.out_edges(u):
            if parent[targets[i]] is None:
                parent[targets[i]] = i
                queue.append(targets[i])
    from_root = []
    x = sources[e]
    while parent[x] != -1:
        from_root.append(parent[x])
        x = sources[parent[x]]
    from_root.reverse()

    def to_root(x) -> list[int]:
        edges = []
        while tree[x] is not None:
            edges.append(tree[x])
            x = targets[tree[x]]
        return edges

    for walk in (from_root + to_root(sources[e]), from_root + [e] + to_root(targets[e])):
        for cyc in _simple_cycles(shift, walk):
            if any(map(sum, zip(*(rows[i] for i in cyc)))):
                return EventuallyPeriodicPoint.periodic(Word(shift.labels[i] for i in cyc))
    raise ArithmeticError("nonzero cycle value but no nonzero simple cycle")


def _simple_cycles(shift: EdgeShift, walk: list[int]) -> list[list[int]]:
    """Split a closed walk into simple cycles, each closed as it occurs."""
    if not walk:
        return []
    stack: list[int] = []
    # per vertex, the length of the stack when the current path reached it
    position: list = [None] * len(shift.vertices)
    position[shift.sources[walk[0]]] = 0
    cycles = []
    for i in walk:
        stack.append(i)
        v = shift.targets[i]
        if position[v] is None:
            position[v] = len(stack)
            continue
        cyc = stack[position[v] :]
        del stack[position[v] :]
        for j in cyc[:-1]:
            position[shift.targets[j]] = None
        cycles.append(cyc)
    return cycles


def periodic_obstruction(
    r: LocallyConstantRoof, s: LocallyConstantRoof, p: EventuallyPeriodicPoint
) -> QVector:
    """Birkhoff sum of r - s over one period of p; nonzero refutes cohomology."""
    q = p.minimal_period()
    if q is None:
        raise ValueError("obstruction requires a periodic point")
    return birkhoff_sum(r, p, q) - birkhoff_sum(s, p, q)


# -- grid normalization and cross-sections ----------------------------------


@dataclass
class GridNormalization:
    """Roof s on the delta-grid together with the transfer function g.

    Satisfies s = r - g + g∘σ exactly, with every value of s a positive
    integer multiple of delta.
    """

    transfer: TransferFunction
    roof: LocallyConstantRoof
    delta: QVector


@dataclass
class GridBlocks:
    """A table roof's weights on a symbol-named block presentation.

    Every vertex is named by its block of length ``k``, so closed walks
    correspond one to one with periodic orbits, and a closed walk sums the
    roof over its orbit.  The cycle values therefore generate the group of
    periodic-orbit sums, as on any presentation of the shift: ``delta()``
    is the grid constant that decide_mixing_sft certifies on its own.
    """

    weighted: WeightedShift
    k: int

    @functools.cached_property
    def data(self) -> CycleData:
        return cycle_data(self.weighted)

    def delta(self) -> Optional[QVector]:
        """The positive generator of the cycle values, None at rank >= 2."""
        return grid_verdict(self.data.nonzero_cycle_values(), "NotTopMixing").delta


def normalizing_blocks(shift: EdgeShift, roof: LocallyConstantRoof) -> GridBlocks:
    """The presentation normalize_to_delta_grid works on: blocks of length
    at least past + future (and 1).

    Raises HypothesisError when no block length names every vertex.
    """
    recoded, windows, k = _symbol_named(shift, max(roof.past + roof.future, 1))
    return GridBlocks(weigh_windows(recoded, windows, roof.past + roof.future + 1, roof), k)


def section_blocks(shift: EdgeShift, roof: LocallyConstantRoof) -> GridBlocks:
    """The presentation unit_cross_section works on: on blocks of length at
    least past + future + 1, an edge's roof value depends only on its
    target block.

    Raises HypothesisError when no block length names every vertex.
    """
    width = roof.past + roof.future + 1
    recoded, windows, k = _symbol_named(shift, width)
    return GridBlocks(weigh_windows(recoded, windows, width, roof), k)


def normalize_to_delta_grid(
    shift: EdgeShift,
    roof: LocallyConstantRoof,
    delta: QVector,
    blocks: Optional[GridBlocks] = None,
) -> GridNormalization:
    """Cohomologous roof with values in delta*N, via mod-delta potentials.

    ``delta`` must divide every cycle value of the presentation, as a
    divisor of its ``delta()`` does.  ``blocks`` is that presentation, from
    ``normalizing_blocks``; it is built here when not given.  If delta is
    not below the minimum roof value it is first shrunk to delta/k, which
    satisfies the same containment.  A delta that is not positive raises
    ValueError; every value of s is then a positive multiple of delta.
    """
    if delta.sign() <= 0:
        raise ValueError("delta must be positive, got %s" % delta)
    if blocks is None:
        blocks = normalizing_blocks(shift, roof)
    data, k = blocks.data, blocks.k
    weighted = data.weighted
    recoded, windows, basis = weighted.shift, weighted.windows, weighted.basis
    # the cycle values and delta as rows over one denominator
    values, unit, den = _on_one_denominator(data.value_rows, data.den, delta, basis)
    pivot = next((i for i, x in enumerate(unit) if x), None)
    multiples = []
    for i, c in enumerate(values):
        m = _row_multiple(c, unit, pivot)
        if m is None:
            raise HypothesisError("delta %s does not divide cycle value %s" % (delta, data.cycle_values[i]))
        multiples.append(m)
    shrink = floor_mod(delta, roof.min_value())[0] + 1
    if shrink > 1:
        delta = delta.scale(Fraction(1, shrink))
    # -p(v) = n_v*delta + g(v) with g(v) in [0, delta)
    potentials, unit, den = _on_one_denominator(data.potential_rows, data.den, delta, basis)
    n, g_rows = zip(*(_row_floor_mod(basis, [-x for x in p], unit, den) for p in potentials))
    vertices = recoded.blocks
    g = TransferFunction(k - roof.future, roof.future - 1, basis, vertices.base, den,
                         dict(zip(vertices.codes, g_rows)))
    # s = w - g + g∘σ is the cycle value plus (n_src - n_tgt)*delta on each
    # edge: delta's row times m, over delta's denominator
    s_rows = {}
    for code, m, source, target in zip(windows.codes, multiples, recoded.sources, recoded.targets):
        m = shrink * m + n[source] - n[target]
        if m < 1:
            raise ArithmeticError("normalized value %d*(%s) is not in %s*N" % (m, delta, delta))
        s_rows[code] = m
    by_multiple = {m: tuple(m * x for x in delta.num) for m in set(s_rows.values())}
    s = LocallyConstantRoof._on_rows(k - roof.future, roof.future, basis, windows.base, delta.den,
                                     {code: by_multiple[m] for code, m in s_rows.items()})
    return GridNormalization(g, s, delta)


def _on_one_denominator(rows: list, den: int, delta: QVector, basis: RealBasis):
    """(rows, delta's row, common denominator): integer rows over ``den``
    and delta, brought to the least common denominator of the two."""
    if delta.basis is not basis and delta.basis != basis:
        raise ValueError("operands live over different bases")
    common = math.lcm(den, delta.den)
    scale = common // den
    if scale > 1:
        rows = [tuple([x * scale for x in row]) for row in rows]
    unit_scale = common // delta.den
    return rows, tuple([x * unit_scale for x in delta.num]), common


def unit_cross_section(
    shift: EdgeShift,
    roof: LocallyConstantRoof,
    delta: QVector,
    blocks: Optional[GridBlocks] = None,
) -> EdgeShift:
    """Return-map graph of the cross-section at heights j*delta.

    Every roof value must be a positive integer multiple of delta.  Each
    block vertex u with value k_u*delta expands into levels "u@0" ...
    "u@k_u-1" chained upward, with top levels feeding the bottom levels
    of the successors; the induced flow has constant roof delta.
    ``blocks`` is the presentation from ``section_blocks``; it is built
    here when needed and not given.
    """
    if all(v == delta for v in roof.values()):
        # the section at height 0 is the base itself
        return shift
    if blocks is None:
        blocks = section_blocks(shift, roof)
    weighted = blocks.weighted
    recoded = weighted.shift
    den, rows = weighted.rows
    rows, unit, _ = _on_one_denominator(rows, den, delta, weighted.basis)
    pivot = next((i for i, x in enumerate(unit) if x), None)
    # the levels of v are numbered bottom[v] .. bottom[v + 1] - 1
    bottom, names = [], []
    for v in recoded.vertices:
        m = _row_multiple(rows[recoded.in_edges(v)[0]], unit, pivot)
        if m is None or m < 1:
            raise HypothesisError("roof value at %s is not a positive integer multiple of %s"
                                  % (recoded.texts[v], delta))
        bottom.append(len(names))
        names += ["%s@%d" % (recoded.texts[v], l) for l in range(m)]
    bottom.append(len(names))
    edges = [(u, u + 1, 0) for v in recoded.vertices for u in range(bottom[v], bottom[v + 1] - 1)]
    edges += [(bottom[s + 1] - 1, bottom[t], 0) for s, t in zip(recoded.sources, recoded.targets)]
    return EdgeShift(names, edges, Alphabet.of_size(1), numbered=True)


# -- density of non-mixing roofs --------------------------------------------


def approximate_locally_constant(
    samples: dict[Word, float], eps: float
) -> LocallyConstantRoof:
    """Rational-valued locally constant roof within eps of the samples.

    Values are rounded to the grid of denominator ceil(1/eps); the output
    has rational range, so its suspension flow is never topologically
    mixing.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if any(v <= 0 for v in samples.values()):
        raise ValueError("samples must be positive")
    q = math.ceil(1 / eps)
    basis = RealBasis.rational()
    lengths = {len(w) for w in samples}
    if len(lengths) != 1:
        raise ValueError("sample windows must share one length")
    table = {}
    for w, v in samples.items():
        approx = Fraction(round(v * q), q)
        if approx <= 0:
            approx = Fraction(1, q)
        table[w] = basis.from_rational(approx)
    return LocallyConstantRoof(past=0, future=lengths.pop() - 1, table=table)
