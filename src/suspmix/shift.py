"""Shift spaces presented as labeled directed multigraphs.

Subshifts of finite type (and truncated graph presentations of other
shifts) are stored as edge shifts: finite directed multigraphs with one
alphabet symbol per edge.  The points of the shift are the bi-infinite
label sequences of bi-infinite edge walks.  All presentations are kept
essential (every vertex has an incoming and an outgoing edge).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


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
        if min(self.symbols) < 0:
            # a window code reads symbols as digits, so -1 would pass for base - 1
            raise ValueError("alphabet symbols must be non-negative, got %d" % min(self.symbols))

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        return cls(tuple(range(n)))

    def __contains__(self, symbol) -> bool:
        return symbol in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)


# the text of each one-digit symbol
_DIGITS = {s: str(s) for s in range(10)}


@dataclass(frozen=True, order=True)
class Word:
    """A finite string of symbols; compares lexicographically."""

    symbols: tuple[int, ...]
    # not a field: the hash, stored on first use (sets of words hash each
    # vertex many times; long words built by the simulator are never hashed)
    _hash = None

    def __init__(self, symbols: Iterable[int] = ()):
        # past the frozen check, as object.__setattr__, with one call fewer:
        # the scan builds a Word per Lyndon node
        self.__dict__["symbols"] = tuple(symbols)

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
        if not self.symbols:
            return "ε"
        try:
            return "".join(map(_DIGITS.__getitem__, self.symbols))
        except KeyError:  # a symbol outside 0-9
            return "".join(map(str, self.symbols))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Word from a string of single-character decimal symbols."""
        return cls(map(int, text.strip()))


# -- window codes -------------------------------------------------------------
#
# The block presentations and the exact tables on them key a window (a
# tuple of non-negative symbols) by its code: the symbols read as the
# digits of a number in a base above every symbol, first symbol most
# significant.  Windows of one length then sort by code as they sort as
# Words, and the last j symbols of a window are its code mod base**j.


def _window_code(symbols: Iterable[int], base: int) -> int:
    """The code of a window of symbols, each in [0, base)."""
    code = 0
    for s in symbols:
        code = code * base + s
    return code


def _code_symbols(code: int, width: int, base: int) -> tuple[int, ...]:
    """The ``width`` symbols of the window whose code is ``code``."""
    symbols = [0] * width
    for i in range(width - 1, -1, -1):
        code, symbols[i] = divmod(code, base)
    return tuple(symbols)


def _code_text(code: int, width: int, base: int) -> str:
    """``str`` of the Word whose code is ``code``, made without it."""
    if not width:
        return "ε"
    if base == 2:
        return format(code, "0%db" % width)
    return "".join(map(str, _code_symbols(code, width, base)))


class Windows(Mapping):
    """Blocks of one length, one per index, held as window codes.

    ``windows[i]`` is the Word whose code is ``codes[i]`` in ``base``, made
    on each access; the presentations' own work reads ``codes``.  Equal to
    the dict from each index to its Word.
    """

    def __init__(self, codes: Sequence[int], width: int, base: int):
        self.codes = codes
        self.width = width
        self.base = base

    def __getitem__(self, i: int) -> Word:
        if i.__class__ is not int or not 0 <= i < len(self.codes):
            raise KeyError(i)
        return Word(_code_symbols(self.codes[i], self.width, self.base))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.codes)))


class Edge(NamedTuple):
    """One labeled edge of an EdgeShift, between vertex numbers."""

    source: int
    target: int
    label: int


class EdgeShift:
    """A shift space presented by a finite labeled directed multigraph.

    Every presentation is pruned to its essential part: vertices without
    incoming or outgoing edges are dropped, until none lacks either.  The
    kept vertices are numbered 0 .. V-1 in their declared order; edge i
    runs from ``sources[i]`` to ``targets[i]`` reading ``labels[i]``.
    ``names[v]`` is the name vertex v was declared with: only reports, and
    choices that must not depend on the numbering, read it.

    Parameters
    ----------
    vertices : iterable
        Hashable vertex names.
    edges : iterable of (source, target, label)
        Directed labeled edges between named vertices; parallel edges are
        allowed.  With ``numbered``, the names are distinct and the edges'
        ends are positions in them.
    alphabet : Alphabet
        Ambient alphabet; every edge label must belong to it.

    Raises
    ------
    EmptyShiftError
        If pruning removes every vertex.
    """

    def __init__(self, vertices, edges, alphabet: Alphabet, numbered: bool = False):
        if numbered:
            names, edges = list(vertices), list(edges)
        else:
            names = list(dict.fromkeys(vertices))
            number = {v: i for i, v in enumerate(names)}
            try:
                edges = [(number[s], number[t], c) for s, t, c in edges]
            except KeyError as exc:
                raise ValueError("edge uses undeclared vertex %r" % (exc.args[0],)) from None
        outside = next((e[2] for e in edges if e[2] not in alphabet.symbols), None)
        if outside is not None:
            raise ValueError("edge label %r outside alphabet" % (outside,))
        kept, edges = _essential_part(range(len(names)), edges)
        if not kept:
            raise EmptyShiftError("presentation has no bi-infinite walks")
        if len(kept) < len(names):
            number = {v: i for i, v in enumerate(kept)}
            names = [names[v] for v in kept]
            edges = [(number[s], number[t], c) for s, t, c in edges]
        self._names = names
        self.vertices = range(len(names))
        self.sources, self.targets, self.labels = (tuple(x) for x in zip(*edges))
        self.alphabet = alphabet
        self._out: list[list[int]] = [[] for _ in names]
        self._in: list[list[int]] = [[] for _ in names]
        for i, (s, t) in enumerate(zip(self.sources, self.targets)):
            self._out[s].append(i)
            self._in[t].append(i)
        # (start, memoized step) of subset_walk, made on first use
        self._walk = None

    # -- basic queries ------------------------------------------------------

    @functools.cached_property
    def names(self) -> tuple:
        """The name each vertex was declared with."""
        return tuple(self._names)

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as records, built on first use."""
        return tuple(map(Edge, self.sources, self.targets, self.labels))

    @functools.cached_property
    def texts(self) -> tuple[str, ...]:
        """``str`` of each vertex's name, made once."""
        return tuple(map(str, self.names))

    def out_edges(self, v: int) -> list[int]:
        """Indices into ``edges`` of the out-edges of v."""
        return self._out[v]

    def in_edges(self, v: int) -> list[int]:
        return self._in[v]

    def is_right_resolving(self) -> bool:
        return all(len(out) == len({self.labels[i] for i in out}) for out in self._out)

    def step(self, states, symbol: int) -> set[int]:
        """Targets of edges labeled ``symbol`` leaving any state in ``states``."""
        out, targets, labels = self._out, self.targets, self.labels
        return {targets[i] for v in states for i in out[v] if labels[i] == symbol}

    def __repr__(self) -> str:
        return "EdgeShift(%d vertices, %d edges)" % (len(self.vertices), len(self.labels))


def _essential_part(vertices, edges):
    """Drop vertices lacking in- or out-edges, until none lacks either.

    The degrees of the (source, target, label) edges are counted once; when
    no vertex lacks either, the input is returned as it is.  Otherwise one
    worklist over the degrees drops each edge once; the kept vertices and
    edges stay in their input order.
    """
    outdeg = Counter(e[0] for e in edges)
    indeg = Counter(e[1] for e in edges)
    if len(outdeg) == len(indeg) == len(vertices):
        return vertices, edges
    touching = {v: [] for v in vertices}
    for i, e in enumerate(edges):
        touching[e[0]].append(i)
        touching[e[1]].append(i)
    dropped = [v for v in vertices if not indeg[v] or not outdeg[v]]
    dead = set(dropped)
    cut = [False] * len(edges)
    while dropped:
        for i in touching[dropped.pop()]:
            if not cut[i]:
                cut[i] = True
                outdeg[edges[i][0]] -= 1
                indeg[edges[i][1]] -= 1
                for u in edges[i][:2]:
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
    number = {b: i for i, b in enumerate(blocks)}
    edges = []
    for i, b in enumerate(blocks):
        for c in alphabet.symbols:
            if clean(b + (c,)):
                edges.append((i, number[b[1:] + (c,)], c))
    try:
        return EdgeShift([Word(b) for b in blocks], edges, alphabet, numbered=True)
    except EmptyShiftError:
        raise EmptyShiftError("every bi-infinite sequence hits a forbidden word")


def _block_sweep(shift: EdgeShift):
    """Yield, for n = 0, 1, 2, ..., the map from each admissible n-block
    (a tuple of symbols) to the set of ends of the edge paths spelling it."""
    out, targets, labels = shift._out, shift.targets, shift.labels
    ends: dict[tuple, set[int]] = {(): set(shift.vertices)}
    while True:
        yield ends
        longer: dict[tuple, set[int]] = {}
        for blk, vs in ends.items():
            for v in vs:
                for i in out[v]:
                    longer.setdefault(blk + (labels[i],), set()).add(targets[i])
        ends = longer


def _block_graph(base: EdgeShift, ends: dict[tuple, set]) -> tuple["_BlockShift", Windows]:
    """The presentation on the (end, block) pairs of one map of the sweep.

    The pairs are numbered by block, and the ends of one block by their
    names' text.  The edge out of (v, block) along base edge e is labeled
    e's symbol and reads the window block + symbol.  Blocks and windows
    are window codes in the base max(symbol) + 1.
    """
    b = max(base.alphabet.symbols) + 1
    blocks = sorted((_window_code(blk, b), blk) for blk in ends)
    texts = base.texts
    pairs, codes, number = [], [], {}
    for code, blk in blocks:
        for v in sorted(ends[blk], key=texts.__getitem__):
            number[v, code] = len(pairs)
            pairs.append((v, blk))
            codes.append(code)
    k = len(blocks[0][1])
    mod = b**k
    out, targets, labels = base._out, base.targets, base.labels
    edges, windows = [], []
    for (v, code), source in number.items():
        code *= b
        for i in out[v]:
            window = code + labels[i]
            windows.append(window)
            edges.append((source, number[targets[i], window % mod], labels[i]))
    return _BlockShift(base, ends, pairs, edges, Windows(codes, k, b)), Windows(windows, k + 1, b)


class _BlockShift(EdgeShift):
    """The presentation on the (end, block) pairs of one map of the sweep;
    ``blocks`` holds each vertex's block.

    A vertex is named by its plain block (a Word) when that block has one
    end, else by (end's name, block).  The names and their texts are made
    on first use, the texts of plain blocks without Words.
    """

    def __init__(self, base: EdgeShift, ends: dict, pairs: list, edges: list, blocks: Windows):
        super().__init__(pairs, edges, base.alphabet, numbered=True)
        self.blocks = blocks
        self._base_names = base.names
        self._ends = ends

    def _name(self, v: int, blk: tuple):
        return Word(blk) if len(self._ends[blk]) == 1 else (self._base_names[v], Word(blk))

    @functools.cached_property
    def names(self) -> tuple:
        return tuple(self._name(v, blk) for v, blk in self._names)

    @functools.cached_property
    def texts(self) -> tuple[str, ...]:
        ends = self._ends
        return tuple("".join(map(str, blk)) or "ε" if len(ends[blk]) == 1 else str(self._name(v, blk))
                     for v, blk in self._names)


def higher_block_recode(shift: EdgeShift, k: int) -> tuple[EdgeShift, Windows]:
    """Conjugate presentation whose vertices are admissible k-blocks.

    The blocks are read on ``resolving_base(shift)``.  Vertices are
    (endpoint, k-block) pairs, displayed as plain k-blocks whenever the
    block alone determines the endpoint.  Edge labels give the symbol
    appended on the right, so the label language is unchanged.  At k = 0
    the presentation is ``resolving_base(shift)`` itself.

    Returns
    -------
    (EdgeShift, Windows)
        The recoded shift and a map from its edge indices to the
        (k+1)-block window each edge reads.
    """
    if k < 0:
        raise ValueError("block length must be >= 0")
    base = resolving_base(shift)
    if k == 0:
        return base, Windows(base.labels, 1, max(base.alphabet.symbols) + 1)
    return _block_graph(base, next(itertools.islice(_block_sweep(base), k, None)))


def symbol_named_presentation(
    shift: EdgeShift, k: int
) -> tuple[EdgeShift, Windows, int] | None:
    """Higher-block presentation whose vertices are all plain blocks.

    Uses the least block length kk >= k at which every admissible
    kk-block has one path end on ``resolving_base(shift)``, so each vertex
    is a ``Word``.

    Returns
    -------
    (EdgeShift, Windows, int) or None
        The recoded shift, whose ``blocks`` hold its vertices' blocks, its
        window map (as in ``higher_block_recode``) and kk; None if no kk up
        to k + |V| + 1 qualifies.
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
    the nonempty set of ends of the c-labeled edges out of S.  Depth first;
    the sets hold vertex numbers."""
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


class _Subset(frozenset):
    """A subset vertex's name: a frozenset of names whose text lists them
    sorted, so that a root or an order taken from the texts does not
    follow string hashing."""

    def __repr__(self) -> str:
        return "frozenset({%s})" % ", ".join(sorted(map(repr, self)))


def determinize(shift: EdgeShift) -> EdgeShift:
    """Right-resolving presentation of the same language by subset construction.

    On a strongly connected input only the terminal component of the subset
    graph is kept: the subsets that every subset reaches.  It is strongly
    connected, has a synchronizing word, and presents the same shift (Lind
    & Marcus, §3.3).
    """
    number = {frozenset(shift.vertices): 0}
    edges = [(number.setdefault(s, len(number)), number.setdefault(t, len(number)), c)
             for s, t, c in _subset_edges(shift)]
    names = [_Subset(map(shift.names.__getitem__, s)) for s in number]
    subsets = EdgeShift(names, edges, shift.alphabet, numbered=True)
    if not is_transitive(shift):
        return subsets
    # every subset reaches each smallest one, so what that reaches is
    # terminal; pruning drops the rest, left without out-edges
    keep = reachable(subsets, min(subsets.vertices, key=lambda v: len(subsets.names[v])))
    return EdgeShift(subsets.names, [e for e in subsets.edges if keep[e.source]], shift.alphabet,
                     numbered=True)


# -- language and structure -------------------------------------------------


def subset_walk(shift: EdgeShift) -> tuple[frozenset, Callable]:
    """The start and the step of the subset walk that spells words on ``shift``.

    The start is the set of all vertices; ``step(states, symbol)`` is the
    nonempty set of targets of ``symbol``-edges leaving ``states``, or None
    once no path spells the word, and None steps to None.  The steps are
    memoized on the shift, so every walk on one shift shares them.  The
    alphabet is checked on a memo miss, so a symbol outside it raises
    ValueError also after the walk has died.
    """
    if shift._walk is None:
        steps = {}
        alphabet, targets = shift.alphabet, shift.step

        def step(states, s):
            try:
                return steps[states, s]
            except KeyError:
                if s not in alphabet:
                    raise ValueError("symbol %r outside alphabet" % (s,)) from None
                following = steps[states, s] = states and frozenset(targets(states, s)) or None
                return following

        shift._walk = (frozenset(shift.vertices), step)
    return shift._walk


def is_word_admissible(shift: EdgeShift, w: Word) -> bool:
    """True iff some edge path spells w: its ``subset_walk`` ends at a state."""
    states, step = subset_walk(shift)
    for s in w.symbols:
        states = step(states, s)
    return states is not None


def admissible_words(shift: EdgeShift, length: int) -> list[Word]:
    """All admissible words of exactly the given length."""
    return sorted(Word(b) for b in next(itertools.islice(_block_sweep(shift), length, None)))


def reachable(shift: EdgeShift, root: int, forward: bool = True) -> list[bool]:
    """Per vertex, whether root reaches it along (or if not forward, against) edges."""
    adjacency, ends = (shift._out, shift.targets) if forward else (shift._in, shift.sources)
    seen = [False] * len(shift.vertices)
    seen[root] = True
    stack = [root]
    while stack:
        for i in adjacency[stack.pop()]:
            v = ends[i]
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def is_transitive(shift: EdgeShift) -> bool:
    """True iff the presenting graph is strongly connected."""
    return all(reachable(shift, 0)) and all(reachable(shift, 0, forward=False))


def base_period(shift: EdgeShift) -> int:
    """gcd of the lengths of all cycles; the base shift is mixing iff 1."""
    if not is_transitive(shift):
        raise ValueError("base_period requires a strongly connected presentation")
    level = [None] * len(shift.vertices)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for i in shift.out_edges(u):
            v = shift.targets[i]
            if level[v] is None:
                level[v] = level[u] + 1
                queue.append(v)
    return math.gcd(*(level[s] + 1 - level[t] for s, t in zip(shift.sources, shift.targets))) or 1


# -- points -----------------------------------------------------------------


class EventuallyPeriodicPoint:
    """A bi-infinite sequence: periodic left tail, finite core, periodic right tail.

    The core occupies indices ``[-origin_offset, -origin_offset + len(core))``;
    the right tail repeats from where the core ends, the left tail repeats
    leftward from where the core begins.  The same parts with
    ``origin_offset + a`` give the shifted point, read at i as this one at
    i + a.

    The core is kept as ``runs``, pairs ``(block, count)`` read as each
    block repeated count times, laid end to end: a witness
    ...u w v1^n v2^m zeta^inf is three runs, whatever n and m are.
    Indexing and ``core_length`` read the runs; ``core`` is the word they
    spell, built on first use.  Points compare, hash and print by their
    parts, so a point built from runs equals the one built from its core.

    Examples
    --------
    >>> p = EventuallyPeriodicPoint.periodic(Word.parse("01"))
    >>> [p[i] for i in range(-2, 4)]
    [0, 1, 0, 1, 0, 1]
    >>> q = EventuallyPeriodicPoint.from_runs(Word.parse("0"), [(Word.parse("10"), 2)], Word.parse("1"))
    >>> q == EventuallyPeriodicPoint.from_parts(Word.parse("0"), Word.parse("1010"), Word.parse("1"))
    True
    """

    __slots__ = ("left_period", "runs", "right_period", "origin_offset", "core_length", "_core")

    def __init__(self, left_period: Word, core: Word, right_period: Word, origin_offset: int = 0):
        self._set(left_period, ((core, 1),), right_period, origin_offset, len(core), core)

    def _set(self, left, runs, right, origin_offset, core_length, core) -> None:
        if len(left) == 0 or len(right) == 0:
            raise ValueError("periodic tails must be nonempty")
        # the arguments come in the order of __slots__
        for name, value in zip(self.__slots__, (left, runs, right, origin_offset, core_length, core)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("EventuallyPeriodicPoint is immutable")

    @classmethod
    def periodic(cls, w: Word) -> "EventuallyPeriodicPoint":
        """The periodic point w-repeated, with w starting at index 0."""
        return cls(w, Word(), w, 0)

    @classmethod
    def from_parts(cls, left: Word, core: Word, right: Word, origin_offset: int = 0):
        return cls(left, core, right, origin_offset)

    @classmethod
    def from_runs(
        cls, left: Word, runs: Iterable[tuple[Word, int]], right: Word, origin_offset: int = 0
    ) -> "EventuallyPeriodicPoint":
        """The point whose core is each block repeated its count times, in order."""
        runs = tuple(runs)
        if any(count < 0 for _, count in runs):
            raise ValueError("run counts must be non-negative")
        point = cls.__new__(cls)
        point._set(left, runs, right, origin_offset, sum(len(b) * c for b, c in runs), None)
        return point

    @property
    def core(self) -> Word:
        core = self._core
        if core is None:
            core = Word(itertools.chain.from_iterable(b.symbols * c for b, c in self.runs))
            object.__setattr__(self, "_core", core)
        return core

    def __getitem__(self, i: int) -> int:
        k = i + self.origin_offset  # the position in the core
        if k < 0:
            left = self.left_period.symbols
            return left[k % len(left)]
        if k < self.core_length:
            if self._core is not None:
                return self._core.symbols[k]
            for block, count in self.runs:
                if k < len(block) * count:
                    return block.symbols[k % len(block)]
                k -= len(block) * count
        right = self.right_period.symbols
        return right[(k - self.core_length) % len(right)]

    def _parts(self) -> tuple:
        return (self.left_period, self.core, self.right_period, self.origin_offset)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.left_period, self.right_period, self.origin_offset, self.core_length)
            == (other.left_period, other.right_period, other.origin_offset, other.core_length)
            and (self.runs == other.runs or self.core == other.core)
        )

    def __hash__(self) -> int:
        return hash(self._parts())

    def __repr__(self) -> str:
        return "%s(left_period=%r, core=%r, right_period=%r, origin_offset=%r)" % (
            self.__class__.__qualname__, *self._parts())

    def __reduce__(self):
        return (self.from_runs, (self.left_period, self.runs, self.right_period, self.origin_offset))

    def is_periodic_with(self, q: int) -> bool:
        """Exact check that the whole sequence has period q."""
        if q < 1:
            return False
        span = (
            self.core_length
            + q
            + math.lcm(q, len(self.left_period))
            + math.lcm(q, len(self.right_period))
        )
        lo = -self.origin_offset - span
        hi = -self.origin_offset + self.core_length + span
        return all(self[i] == self[i + q] for i in range(lo, hi + 1))

    def minimal_period(self) -> int | None:
        """Smallest period, or None if the point is not periodic."""
        bound = self.core_length + math.lcm(len(self.left_period), len(self.right_period))
        for q in range(1, bound + 1):
            if self.is_periodic_with(q):
                return q
        return None

