"""Shift spaces presented as labeled directed multigraphs.

Subshifts of finite type (and truncated graph presentations of other
shifts) are stored as edge shifts: finite directed multigraphs with one
alphabet symbol per edge.  The points of the shift are the bi-infinite
label sequences of bi-infinite edge walks.  All presentations are kept
essential (every vertex has an incoming and an outgoing edge).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class EmptyShiftError(ValueError):
    """Raised when a construction yields a shift with no points."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbols (small non-negative integers)."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        return cls(tuple(range(n)))

    def __contains__(self, symbol) -> bool:
        return symbol in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, order=True)
class Word:
    """A finite string of symbols; compares lexicographically."""

    symbols: tuple[int, ...]
    # not a field: the hash, stored on first use (sets of words hash each
    # vertex many times; long words built by the simulator are never hashed)
    _hash = None

    def __init__(self, symbols: Iterable[int] = ()):
        object.__setattr__(self, "symbols", tuple(symbols))

    def __hash__(self) -> int:
        # the value the dataclass would compute, so set iteration order holds
        h = self._hash
        if h is None:
            h = hash((self.symbols,))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        # the dataclass version compares 1-tuples it builds on every call
        if other.__class__ is not Word:
            return NotImplemented
        return self.symbols == other.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        got = self.symbols[i]
        return Word(got) if isinstance(i, slice) else got

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols)

    def __mul__(self, k: int) -> "Word":
        return Word(self.symbols * k)

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols) if self.symbols else "ε"

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Word from a string of single-character decimal symbols."""
        return cls(int(c) for c in text.strip())


class Edge(NamedTuple):
    """One labeled edge of an EdgeShift."""

    source: object
    target: object
    label: int


class EdgeShift:
    """A shift space presented by a finite labeled directed multigraph.

    Every presentation is pruned to its essential part: vertices without
    incoming or outgoing edges are dropped, until none lacks either.

    Parameters
    ----------
    vertices : iterable
        Hashable vertex names.
    edges : iterable of (source, target, label)
        Directed labeled edges; parallel edges are allowed.
    alphabet : Alphabet
        Ambient alphabet; every edge label must belong to it.

    Raises
    ------
    EmptyShiftError
        If pruning removes every vertex.
    """

    def __init__(self, vertices, edges, alphabet: Alphabet):
        vertices = list(dict.fromkeys(vertices))
        declared = set(vertices)
        labels = frozenset(alphabet.symbols)
        edges = list(map(Edge._make, edges))
        for e in edges:
            if e.label not in labels:
                raise ValueError("edge label %r outside alphabet" % (e.label,))
            if e.source not in declared or e.target not in declared:
                raise ValueError("edge %r uses undeclared vertex" % (e,))
        vertices, edges = _essential_part(vertices, edges)
        if not vertices:
            raise EmptyShiftError("presentation has no bi-infinite walks")
        self.vertices: tuple = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.alphabet = alphabet
        self._out: dict = {v: [] for v in self.vertices}
        self._in: dict = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            self._out[e.source].append(i)
            self._in[e.target].append(i)
        # (start state set, step memo) of is_word_admissible, made on first use
        self._walk = None

    # -- basic queries ------------------------------------------------------

    def out_edges(self, v) -> list[int]:
        """Indices into ``edges`` of the out-edges of v."""
        return self._out[v]

    def in_edges(self, v) -> list[int]:
        return self._in[v]

    def is_right_resolving(self) -> bool:
        for v in self.vertices:
            labels = [self.edges[i].label for i in self._out[v]]
            if len(labels) != len(set(labels)):
                return False
        return True

    def step(self, states: set, symbol: int) -> set:
        """Targets of edges labeled ``symbol`` leaving any state in ``states``."""
        out = set()
        for v in states:
            for i in self._out[v]:
                if self.edges[i].label == symbol:
                    out.add(self.edges[i].target)
        return out

    def __repr__(self) -> str:
        return "EdgeShift(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))


def _essential_part(vertices, edges):
    """Drop vertices lacking in- or out-edges, until none lacks either.

    The degrees are counted once; when no vertex lacks either, the input
    is returned as it is.  Otherwise one worklist over the degrees drops
    each edge once; the kept vertices and edges stay in their input order.
    """
    outdeg = Counter(e.source for e in edges)
    indeg = Counter(e.target for e in edges)
    if len(outdeg) == len(indeg) == len(vertices):
        return vertices, edges
    into = {v: [] for v in vertices}
    out = {v: [] for v in vertices}
    for i, e in enumerate(edges):
        out[e.source].append(i)
        into[e.target].append(i)
    dropped = [v for v in vertices if not indeg[v] or not outdeg[v]]
    dead = set(dropped)
    cut = [False] * len(edges)
    while dropped:
        v = dropped.pop()
        for i in out[v] + into[v]:
            if cut[i]:
                continue
            cut[i] = True
            e = edges[i]
            outdeg[e.source] -= 1
            indeg[e.target] -= 1
            for u in (e.source, e.target):
                if u not in dead and (not indeg[u] or not outdeg[u]):
                    dead.add(u)
                    dropped.append(u)
    return [v for v in vertices if v not in dead], [e for i, e in enumerate(edges) if not cut[i]]


# -- constructors -----------------------------------------------------------


def full_shift(alphabet: Alphabet) -> EdgeShift:
    """The full shift: one vertex with a self-loop per symbol."""
    return EdgeShift(["*"], [("*", "*", s) for s in alphabet.symbols], alphabet)


def sft_from_forbidden_words(alphabet: Alphabet, forbidden: Iterable[Word]) -> EdgeShift:
    """SFT of all bi-infinite sequences avoiding every forbidden word.

    Built as a higher-block graph on windows of length max|forbidden| - 1
    and pruned to its essential part.

    Raises
    ------
    EmptyShiftError
        If every sufficiently long word contains a forbidden word.
    """
    forbidden = {tuple(w) for w in forbidden}
    if not forbidden:
        return full_shift(alphabet)
    if any(len(f) < 2 for f in forbidden):
        raise ValueError("forbidden words must have length >= 2")
    k = max(len(f) for f in forbidden)

    def clean(block):
        return not any(
            block[i : i + len(f)] == f
            for f in forbidden
            for i in range(len(block) - len(f) + 1)
        )

    blocks = [b for b in itertools.product(alphabet.symbols, repeat=k - 1) if clean(b)]
    edges = []
    for b in blocks:
        for c in alphabet.symbols:
            if clean(b + (c,)):
                edges.append((Word(b), Word(b[1:] + (c,)), c))
    try:
        return EdgeShift([Word(b) for b in blocks], edges, alphabet)
    except EmptyShiftError:
        raise EmptyShiftError("every bi-infinite sequence hits a forbidden word")


def _block_sweep(shift: EdgeShift):
    """Yield, for n = 0, 1, 2, ..., the map from each admissible n-block
    (a tuple of symbols) to the set of ends of the edge paths spelling it."""
    ends: dict[tuple, set] = {(): set(shift.vertices)}
    while True:
        yield ends
        longer: dict[tuple, set] = {}
        for blk, vs in ends.items():
            for v in vs:
                for i in shift._out[v]:
                    e = shift.edges[i]
                    longer.setdefault(blk + (e.label,), set()).add(e.target)
        ends = longer


def _block_graph(base: EdgeShift, ends: dict[tuple, set]) -> tuple[EdgeShift, dict[int, Word]]:
    """The presentation on the (end, block) pairs of one map of the sweep.

    A vertex is shown as its plain block when that block has one end.  The
    edge out of (v, block) along base edge e is labeled e's symbol and
    reads the window block + symbol.  Each pair is named once, and the
    vertex and every edge end share that name.
    """
    names = {}
    for blk in sorted(ends):
        vs = ends[blk]
        if len(vs) == 1:
            names[next(iter(vs)), blk] = Word(blk)
        else:
            for v in sorted(vs, key=str):
                names[v, blk] = (v, Word(blk))
    edges = []
    windows = {}
    for (v, blk), source in names.items():
        for i in base.out_edges(v):
            e = base.edges[i]
            window = blk + (e.label,)
            windows[len(edges)] = Word(window)
            edges.append((source, names[e.target, window[1:]], e.label))
    return EdgeShift(list(names.values()), edges, base.alphabet), windows


def higher_block_recode(shift: EdgeShift, k: int) -> tuple[EdgeShift, dict[int, Word]]:
    """Conjugate presentation whose vertices are admissible k-blocks.

    The blocks are read on ``resolving_base(shift)``.  Vertices are
    (endpoint, k-block) pairs, displayed as plain k-blocks whenever the
    block alone determines the endpoint.  Edge labels give the symbol
    appended on the right, so the label language is unchanged.  At k = 0
    the presentation is ``resolving_base(shift)`` itself.

    Returns
    -------
    (EdgeShift, dict)
        The recoded shift and a map from its edge indices to the
        (k+1)-block window each edge reads.
    """
    if k < 0:
        raise ValueError("block length must be >= 0")
    base = resolving_base(shift)
    if k == 0:
        return base, {i: Word([e.label]) for i, e in enumerate(base.edges)}
    return _block_graph(base, next(itertools.islice(_block_sweep(base), k, None)))


def symbol_named_presentation(
    shift: EdgeShift, k: int
) -> tuple[EdgeShift, dict[int, Word], int] | None:
    """Higher-block presentation whose vertices are all plain blocks.

    Uses the least block length kk >= k at which every admissible
    kk-block has one path end on ``resolving_base(shift)``, so each vertex
    is a ``Word``.

    Returns
    -------
    (EdgeShift, dict, int) or None
        The recoded shift, its window map (as in ``higher_block_recode``)
        and kk; None if no kk up to k + |V| + 1 qualifies.
    """
    base = resolving_base(shift)
    for kk, ends in enumerate(_block_sweep(base)):
        if kk >= k and all(len(vs) == 1 for vs in ends.values()):
            return _block_graph(base, ends) + (kk,)
        if kk == k + len(shift.vertices) + 1:
            return None


def resolving_base(shift: EdgeShift) -> EdgeShift:
    """The graph that block recodes read: the input if it is right-resolving
    and, when strongly connected, has a synchronizing word; else its
    determinization.  Then closed walks give every orbit through that word
    in one period; two vertices in a 2-cycle with both labels on each edge
    close no walk spelling 0."""
    if shift.is_right_resolving() and (has_synchronizing_word(shift) or not is_transitive(shift)):
        return shift
    return determinize(shift)


def has_synchronizing_word(shift: EdgeShift) -> bool:
    """True iff some word is spelled only by paths that end at one vertex."""
    return any(len(t) == 1 for _, t, _ in _subset_edges(shift))


def _subset_edges(shift: EdgeShift) -> Iterator[tuple[frozenset, frozenset, int]]:
    """Edges (S, T, c) of the subset graph from the set of all vertices: T is
    the nonempty set of ends of the c-labeled edges out of S.  Depth first."""
    start = frozenset(shift.vertices)
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for c in shift.alphabet.symbols:
            t = frozenset(shift.step(s, c))
            if t:
                yield s, t, c
                if t not in seen:
                    seen.add(t)
                    stack.append(t)


def determinize(shift: EdgeShift) -> EdgeShift:
    """Right-resolving presentation of the same language by subset construction.

    On a strongly connected input only the terminal component of the subset
    graph is kept: the subsets that every subset reaches.  It is strongly
    connected, has a synchronizing word, and presents the same shift (Lind
    & Marcus, §3.3).
    """
    edges = list(_subset_edges(shift))
    states = {frozenset(shift.vertices), *(t for _, t, _ in edges)}
    subsets = EdgeShift(states, edges, shift.alphabet)
    if not is_transitive(shift):
        return subsets
    # every subset reaches each smallest one, so what that reaches is terminal
    keep = reachable(subsets, min(subsets.vertices, key=len))
    return EdgeShift([s for s in subsets.vertices if s in keep],
                     [e for e in subsets.edges if e.source in keep], shift.alphabet)


# -- language and structure -------------------------------------------------


def is_word_admissible(shift: EdgeShift, w: Word) -> bool:
    """True iff some edge path spells w.

    That is iff the subset walk from the set of all vertices, one
    ``shift.step`` per symbol, ends at a nonempty set.  The walk's steps,
    (state set, symbol) -> next state set, are memoized on the shift, so
    the words asked of one shift share them.  The alphabet is checked on
    a memo miss; the empty set steps to itself, so a symbol outside the
    alphabet raises ValueError also after the walk has died.
    """
    walk = shift._walk
    if walk is None:
        walk = shift._walk = (frozenset(shift.vertices), {})
    states, steps = walk
    for s in w.symbols:
        following = steps.get((states, s))
        if following is None:
            if s not in shift.alphabet:
                raise ValueError("symbol %r outside alphabet" % (s,))
            following = steps[states, s] = frozenset(shift.step(states, s))
        states = following
    return bool(states)


def admissible_words(shift: EdgeShift, length: int) -> list[Word]:
    """All admissible words of exactly the given length."""
    return sorted(Word(b) for b in next(itertools.islice(_block_sweep(shift), length, None)))


def reachable(shift: EdgeShift, root, forward: bool = True) -> set:
    """Vertices reachable from root along edges (against them if not forward)."""
    adjacency = shift._out if forward else shift._in
    seen = {root}
    stack = [root]
    while stack:
        for i in adjacency[stack.pop()]:
            e = shift.edges[i]
            v = e.target if forward else e.source
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_transitive(shift: EdgeShift) -> bool:
    """True iff the presenting graph is strongly connected."""
    root = shift.vertices[0]
    n = len(shift.vertices)
    return len(reachable(shift, root)) == n and len(reachable(shift, root, forward=False)) == n


def base_period(shift: EdgeShift) -> int:
    """gcd of the lengths of all cycles; the base shift is mixing iff 1."""
    if not is_transitive(shift):
        raise ValueError("base_period requires a strongly connected presentation")
    root = shift.vertices[0]
    level = {root: 0}
    queue = [root]
    while queue:
        u = queue.pop()
        for i in shift.out_edges(u):
            v = shift.edges[i].target
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return math.gcd(*(level[e.source] + 1 - level[e.target] for e in shift.edges)) or 1


# -- points -----------------------------------------------------------------


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """A bi-infinite sequence: periodic left tail, finite core, periodic right tail.

    The core occupies indices ``[-origin_offset, -origin_offset + len(core))``;
    the right tail repeats from where the core ends, the left tail repeats
    leftward from where the core begins.  The same parts with
    ``origin_offset + a`` give the shifted point, read at i as this one at
    i + a.

    Examples
    --------
    >>> p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
    >>> [p[i] for i in range(-2, 4)]
    [0, 1, 0, 1, 0, 1]
    """

    left_period: Word
    core: Word
    right_period: Word
    origin_offset: int = 0

    def __post_init__(self):
        if len(self.left_period) == 0 or len(self.right_period) == 0:
            raise ValueError("periodic tails must be nonempty")

    @classmethod
    def periodic(cls, w: Word) -> "EventuallyPeriodicPoint":
        """The periodic point w-repeated, with w starting at index 0."""
        return cls(w, Word(), w, 0)

    @classmethod
    def from_parts(cls, left: Word, core: Word, right: Word, origin_offset: int = 0):
        return cls(left, core, right, origin_offset)

    def __getitem__(self, i: int) -> int:
        start = -self.origin_offset
        if i < start:
            return self.left_period[(i - start) % len(self.left_period)]
        if i < start + len(self.core):
            return self.core[i - start]
        return self.right_period[(i - start - len(self.core)) % len(self.right_period)]

    def is_periodic_with(self, q: int) -> bool:
        """Exact check that the whole sequence has period q."""
        if q < 1:
            return False
        span = (
            len(self.core)
            + q
            + math.lcm(q, len(self.left_period))
            + math.lcm(q, len(self.right_period))
        )
        lo = -self.origin_offset - span
        hi = -self.origin_offset + len(self.core) + span
        return all(self[i] == self[i + q] for i in range(lo, hi + 1))

    def minimal_period(self) -> int | None:
        """Smallest period, or None if the point is not periodic."""
        bound = len(self.core) + math.lcm(len(self.left_period), len(self.right_period))
        for q in range(1, bound + 1):
            if self.is_periodic_with(q):
                return q
        return None

