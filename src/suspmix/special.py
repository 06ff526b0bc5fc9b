"""Shift families beyond finite type.

Three constructions: beta-shifts (greedy expansion of 1, lexicographic
admissibility, truncated graph presentation), the coded subshift
generated by balanced 2/3-blocks together with 0 and 1, and a
topologically mixing binary shift with exactly two periodic orbits,
scaffolded on an aperiodic {3,4}-valued separator sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from suspmix.decider import ShiftOracle, decide_mixing_synchronized, periodic_words_in_cylinder
from suspmix.exact import floor_mod
from suspmix.shift import Alphabet, EdgeShift, EventuallyPeriodicPoint, Word


class PrecisionError(ArithmeticError):
    """An exact answer is not determined by the available precision."""


# -- exact arithmetic in a real quadratic field -----------------------------


@dataclass(frozen=True)
class QuadraticReal:
    """The real number a + b*sqrt(d) with rational a, b and square-free d > 1."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d <= 1 or math.isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be a non-square integer > 1")

    def _check(self, other):
        if isinstance(other, QuadraticReal) and other.d != self.d:
            raise ValueError("mixed quadratic fields")

    def __add__(self, other):
        if isinstance(other, QuadraticReal):
            self._check(other)
            return QuadraticReal(self.a + other.a, self.b + other.b, self.d)
        return QuadraticReal(self.a + Fraction(other), self.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * (other if isinstance(other, QuadraticReal) else Fraction(other))

    def __mul__(self, other):
        if isinstance(other, QuadraticReal):
            self._check(other)
            return QuadraticReal(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.d,
            )
        other = Fraction(other)
        return QuadraticReal(self.a * other, self.b * other, self.d)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the term of larger square wins; a^2 == b^2 d would
        # make sqrt(d) rational
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def __floor__(self) -> int:
        return floor_mod(self, 1)[0]


# -- beta-shifts ------------------------------------------------------------

# Digits of the expansion of 1 that a BetaShift computes: no graph
# presentation is deeper, and an expansion whose orbit of 1 does not end at
# 0 is read no further.
NU_DIGITS = 64


def beta_expansion_of_one(beta, n_digits: int) -> Word:
    """First digits of the greedy expansion of 1 in base beta.

    ``beta`` is an int, a Fraction or a QuadraticReal, all exact: every
    digit is an exact floor.  Once the orbit of 1 reaches 0 the remaining
    digits are 0.
    """
    return _greedy_orbit(beta, n_digits)[0]


def _greedy_orbit(beta, n_digits: int) -> tuple[Word, object]:
    """The first digits of the expansion of 1, and the remainder after them."""
    if isinstance(beta, int):
        beta = Fraction(beta)
    if math.floor(beta) < 1 or not beta - 1:
        raise ValueError("beta must exceed 1")
    x = beta * 0 + 1  # the unit of the same arithmetic type
    digits = []
    while x and len(digits) < n_digits:
        y = beta * x
        d = math.floor(y)
        digits.append(d)
        x = y - d
    return Word(digits + [0] * (n_digits - len(digits))), x


@dataclass
class BetaShift:
    """A beta-shift described by its expansion of 1.

    ``nu`` is the computed prefix of the greedy expansion; ``exact_tail``
    marks whether its trailing zeros are certified (the orbit of 1 hit 0).
    """

    beta: object
    nu: Word
    exact_tail: bool

    @classmethod
    def create(cls, beta) -> "BetaShift":
        nu, rest = _greedy_orbit(beta, NU_DIGITS)
        return cls(beta, nu, exact_tail=not rest)

    @classmethod
    def golden(cls) -> "BetaShift":
        return cls.create(QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5))

    def max_digit(self) -> int:
        return max(self.nu)

    def alphabet(self) -> Alphabet:
        return Alphabet.of_size(self.max_digit() + 1)

    @functools.cached_property
    def _governing(self) -> tuple[list[int], Optional[int]]:
        """The sequence governing admissibility, as (prefix, period start).

        For a finite (simple Parry) expansion nu_1..nu_k the quasi-greedy
        sequence (nu_1 .. nu_{k-1} (nu_k - 1)) repeated from its start
        governs the closed shift; otherwise the known prefix of nu with no
        period.
        """
        digits = list(self.nu)
        if self.exact_tail:
            last = max(i for i, d in enumerate(digits) if d != 0)
            block = digits[: last + 1]
            block[-1] -= 1
            return block, 0
        return digits, None

    def bound_digit(self, i: int) -> int:
        """Symbol i of the governing sequence; raises past the known prefix."""
        seq, period_start = self._governing
        if period_start is not None:
            return seq[i % len(seq)]
        if i >= len(seq):
            raise PrecisionError("admissibility undecided at digit %d of nu" % i)
        return seq[i]


def is_beta_admissible(w, shift: BetaShift) -> bool:
    """Every shifted tail must be lexicographically <= the governing sequence."""
    if isinstance(w, EventuallyPeriodicPoint):
        # the core and every phase of both tails around it, wherever the
        # origin lies
        start = -w.origin_offset
        margin = 4 * (w.core_length + len(w.right_period) + len(w.left_period) + len(shift.nu) + 8)
        symbols = [w[i] for i in range(start - margin, start + w.core_length + margin)]
        return _tails_dominated(symbols, shift)
    return _tails_dominated(list(w), shift)


def _tails_dominated(symbols: list[int], shift: BetaShift) -> bool:
    n = len(symbols)
    for j in range(n):
        for t in range(n - j):
            b = shift.bound_digit(t)
            if symbols[j + t] > b:
                return False
            if symbols[j + t] < b:
                break
    return True


def build_beta_graph(shift: BetaShift, depth: int) -> EdgeShift:
    """Truncated graph presentation on states V_1 .. V_depth.

    Spine edges V_n -> V_{n+1} carry digit nu_n; each state V_n with
    nu_n >= 1 falls back to V_1 on every digit 0 .. nu_n - 1.  Only the
    strongly connected core through V_1 is kept: the spine reaches every
    state from V_1, and every cycle runs through V_1, which has a loop as
    nu_1 >= 1, so pruning to the essential part leaves exactly that core.
    """
    if depth > len(shift.nu):
        raise ValueError("depth exceeds the computed expansion prefix")
    nu = list(shift.nu)
    vertices = ["V%d" % n for n in range(1, depth + 1)]
    edges = []
    for n in range(1, depth + 1):
        digit = nu[n - 1]
        if n < depth:
            edges.append(("V%d" % n, "V%d" % (n + 1), digit))
        for c in range(digit):
            edges.append(("V%d" % n, "V1", c))
    return EdgeShift(vertices, edges, shift.alphabet())


def decide_mixing_beta(shift: BetaShift, roof, depth: int, period_bound: int):
    """Semidecision from periodic orbits through the cylinder [0].

    Orbits are read off the truncated graph; rank >= 2 of their lengths
    certifies mixing, otherwise the common grid is reported up to the
    period bound.
    """
    graph = build_beta_graph(shift, depth)
    oracle = ShiftOracle.from_edge_shift(graph)
    return decide_mixing_synchronized(oracle, Word([0]), roof, period_bound)


# -- the balanced-2/3 coded subshift ----------------------------------------


class CodedGenerator:
    """Generating word set of the one coded subshift built in: the family
    "balanced-23", {2^n 3^n : n >= 1} together with {0, 1}, whose
    membership problem has a closed form (``balanced_oracle``)."""

    @classmethod
    def balanced_23(cls) -> "CodedGenerator":
        return cls()

    def alphabet(self) -> Alphabet:
        return Alphabet.of_size(4)


_BALANCED_SYMBOLS = frozenset((0, 1, 2, 3))


def _balanced_step(state, s):
    """The balanced-2/3 oracle's step: infix membership for bi-infinite
    concatenations of {2^n 3^n} | {0, 1}, one symbol at a time.

    A maximal 2-run whose right end is visible must be followed by a
    3-run of matching length (relaxed to an inequality when either run is
    cut off by the word boundary); a visible 3-run must be preceded by 2s.
    The state is (symbol of the current run, its length, the number of
    runs before it, the length of the run before it, the symbol and length
    of the word's first run and the length of its second, each once it has
    closed).  Each run is checked when the next begins, and the open run
    as the word's last, so a state exists iff the word is a member.
    """
    run, length, closed, twos, lead, lead_length, second = state
    if s == run:
        length += 1
    else:
        if s not in _BALANCED_SYMBOLS:
            return None
        if run is not None:
            if (run == 2) != (s == 3):
                return None
            if not closed:
                lead, lead_length = run, length
            elif run == 3 and (length < twos if closed == 1 else length != twos):
                return None
            if closed == 1:
                second = length
            twos, closed = length, closed + 1
        run, length = s, 1
    # a last 3-run is cut by the word's end: it may be shorter than its 2-run
    if run == 3 and closed > 1 and length > twos:
        return None
    return run, length, closed, twos, lead, lead_length, second


_BALANCED_START = (None, 0, 0, 0, None, 0, 0)


def _balanced_periodic(w: Word, state=None) -> bool:
    """Whether the bi-infinite repetition of w is in the coded shift.

    ``state`` is the oracle's state after w, walked from the start when
    not given.  Every run of w but the first and the last is whole in
    w-bar, and the state holds w as a member, so only the wrap-around is
    left: either the last run merges with the first, and a merged 2- or
    3-run must match its neighbour, or the last run meets the first, where
    a 2-run must be followed by a 3-run of equal length and the runs cut
    by the word's ends must match exactly.
    """
    if state is None:
        state = _BALANCED_START
        for s in w:
            state = _balanced_step(state, s)
            if state is None:
                return False
    run, length, closed, twos, lead, lead_length, second = state
    if not closed:
        return True  # constant: 0-bar, 1-bar, and the closure points 2-bar, 3-bar
    if run == lead:
        if run == 2:
            return second == lead_length + length
        return run != 3 or twos == lead_length + length
    if run == 2 or lead == 3:
        return run == 2 and lead == 3 and length == lead_length
    # a first 2-run and its 3-run, and a last 3-run and its 2-run, are equal
    return ((lead != 2 or closed == 1 or second == lead_length)
            and (run != 3 or length == twos))


def balanced_oracle() -> ShiftOracle:
    return ShiftOracle(CodedGenerator.balanced_23().alphabet(), _BALANCED_START,
                       _balanced_step, _balanced_periodic)


def coded_periodic_in_cylinder(
    gen: CodedGenerator, v: Word, period_bound: int
) -> list[EventuallyPeriodicPoint]:
    """One periodic point w-bar in [v] per orbit of period <= bound."""
    words = periodic_words_in_cylinder(balanced_oracle(), v, period_bound)
    return [EventuallyPeriodicPoint.periodic(w) for w in words]


def example_roof_coded(basis) -> "LocallyConstantRoof":
    """Roof a+b on [0] and [1], a on [2], b on [3] over the coded shift.

    ``basis`` must declare constants named "a" and "b"."""
    from suspmix.roofs import LocallyConstantRoof

    a = basis.unit(basis.names.index("a"))
    b = basis.unit(basis.names.index("b"))
    return LocallyConstantRoof.from_symbols({0: a + b, 1: a + b, 2: a, 3: b})


# -- the two-orbit mixing shift ---------------------------------------------


class AperiodicSequence:
    """The {3,4}-valued separator sequence: 3 plus the parity of the
    binary popcount of the index (a cube-free aperiodic sequence)."""

    def term(self, n: int) -> int:
        if n < 1:
            raise ValueError("terms are indexed from 1")
        return 3 + bin(n - 1).count("1") % 2

    def prefix(self, n: int) -> list[int]:
        return [self.term(i) for i in range(1, n + 1)]


@functools.lru_cache(maxsize=None)
def _seq_prefix() -> list[int]:
    """The 4,096-term scaffold prefix the factor tests read, built on first use."""
    return AperiodicSequence().prefix(4096)


@functools.lru_cache(maxsize=None)
def _scaffold_factors(n: int) -> frozenset:
    """Every length-n factor of the scaffold prefix (about 3n distinct ones)."""
    a = _seq_prefix()
    return frozenset(tuple(a[i : i + n]) for i in range(len(a) - n + 1))


def _factor_occurs(interior: Sequence[int], lead: int, trail: int) -> bool:
    """Whether the separator-length pattern occurs in the scaffold sequence.

    ``interior`` must match consecutively, at a start i >= 1 that leaves a
    term after it; ``lead``/``trail`` are partial boundary separators
    needing neighbors of at least that size (0 when absent).  The
    neighbors are terms 3 or 4, so the question is whether one of at most
    four extended patterns is a factor of the prefix.
    """
    t = len(interior)
    if t == 0:
        return lead <= 4 and trail <= 4
    factors = _scaffold_factors(t + 2)
    body = tuple(interior)
    return any(
        (x,) + body + (y,) in factors
        for x in (3, 4)
        if x >= lead
        for y in (3, 4)
        if y >= trail
    )


def two_orbit_periodic_admissible(w: Word, state=None) -> bool:
    """Whether the bi-infinite repetition of w lies in the two-orbit shift.

    In closed form: w-bar is in the shift iff w uses only 0 and 1 and
    w-bar is 1-bar or (01)-bar.  The separator lengths of a point are
    consecutive terms of the scaffold, 3 plus the Thue-Morse sequence,
    which is overlap-free: it has no factor of the form a x a x a.  A
    periodic point with a separator would repeat its m separator lengths
    without end, and a run of 2m + 1 of them is such an overlap; so no
    periodic point has a separator.  Without one, a
    point lies inside a single generator word: 1-bar inside 1^j, or
    (01)-bar as the limit of 1(01)^k, which needs k unbounded.
    """
    symbols, half = w.symbols, len(w) // 2
    if symbols and symbols == (1,) * len(symbols):
        return True
    # an odd length matches neither tuple
    return half > 0 and symbols in ((0, 1) * half, (1, 0) * half)


# Shapes of a two-orbit word's last segment, read since its last separator
# and before its trailing 0-run: the leading 0-run alone; one 1 that is
# open on the left (the word starts with 1 or 01); one 1 after a
# separator; 1^j, j >= 2; alternating with a 0 inside; closed by a
# trailing run of two or more 0s, the next separator.
_LEAD, _OPEN_ONE, _ONE, _ONES, _ALT, _SEP = range(6)


def _two_orbit_step(state: tuple, s: int) -> Optional[tuple]:
    """The two-orbit oracle's step, the one definition of the shift's
    language, read one symbol at a time.

    Points interleave generator words, 1-runs of length >= 2 and
    alternating words 1(01)^k with k >= 1, with zero separators whose
    lengths follow consecutive terms of the aperiodic {3,4} scaffold.  A
    word is a member iff its visible separators are a factor of the
    scaffold and the segments between them fit the generator inventory;
    a segment cut by the word's start or end need only be a suffix or a
    prefix of a generator, and a cut separator need only fit a term.

    The state is (shape of the last segment, length of the trailing 0-run,
    the lead separator's length or 0, the interior separator lengths).  A
    leading single 0 is a lead separator of length 1 or begins 1(01)^k,
    open on the left; either way 01 then reads as 1 open on the left, and
    a lead of length <= 3 constrains no scaffold term.  A trailing single 0
    is a trail separator of length 1 or ends an alternating segment, and
    one of the two always fits, so a segment is checked closed once its
    trailing run reaches 2.  The separators are checked against the
    scaffold when one closes, and a trailing run of 4 as a partial one.
    """
    shape, zeros, lead, interior = state
    if s == 0:
        zeros += 1
        if zeros == 2 and shape != _LEAD:
            # a closed segment is 1^j, j >= 2, or 1(01)^k, unless open on the left
            if shape == _ONE:
                return None
            shape = _SEP
        if zeros > 4 or (zeros == 4 and not _factor_occurs(interior, lead, 4)):
            return None
        return shape, zeros, lead, interior
    if s != 1:
        return None
    if shape == _LEAD:
        return (_OPEN_ONE, 0, 0, ()) if zeros < 2 else (_ONE, 0, zeros, ())
    if shape == _SEP:
        interior += (zeros,)
        if zeros < 3 or not _factor_occurs(interior, lead, 0):
            return None
        return _ONE, 0, lead, interior
    if zeros:  # a single 0 inside an alternating segment
        return None if shape == _ONES else (_ALT, 0, lead, interior)
    return None if shape == _ALT else (_ONES, 0, lead, interior)


def two_orbit_oracle() -> ShiftOracle:
    return ShiftOracle(Alphabet.of_size(2), (_LEAD, 0, 0, ()), _two_orbit_step,
                       two_orbit_periodic_admissible)


def two_orbit_is_admissible(w) -> bool:
    """Membership of w, a Word or a tuple of symbols, in the two-orbit
    shift: a walk of ``_two_orbit_step`` from the oracle's start."""
    return two_orbit_oracle().is_admissible(w)


def two_orbit_shift_words(max_len: int) -> Iterator[Word]:
    """All admissible words of length 1 .. max_len, by a DFS that carries
    the oracle state, one step per node."""
    oracle = two_orbit_oracle()

    def dfs(prefix: list[int], state) -> Iterator[Word]:
        if prefix:
            yield Word(prefix)
        if len(prefix) == max_len:
            return
        for s in (0, 1):
            child = oracle.step(state, s)
            if child is not None:
                prefix.append(s)
                yield from dfs(prefix, child)
                prefix.pop()

    yield from dfs([], oracle.start)


def two_orbit_periodic_words(period_bound: int) -> list[Word]:
    """One word per periodic orbit of the shift with period <= bound."""
    return periodic_words_in_cylinder(two_orbit_oracle(), Word(), period_bound)


def find_connector(u: Word, v: Word, n: int) -> Optional[Word]:
    """A connector w with u w v admissible containing the block 0 1^n 0.

    The 1-run of length n is the parameter exhibiting mixing: as n grows
    the family realizes transition words of every sufficiently large
    length.  Padding on either side of the block is searched up to 12
    symbols by DFS with admissibility pruning.
    """
    if n < 2:
        raise ValueError("the 1-run must have length >= 2")
    admissible = two_orbit_oracle().is_admissible
    if not admissible(u) or not admissible(v):
        raise ValueError("endpoints must be admissible")
    core = Word([0] + [1] * n + [0])

    def extensions(start: Word, budget: int) -> Iterator[Word]:
        yield start
        if budget:
            for s in (0, 1):
                cand = start + Word([s])
                if admissible(u + cand):
                    yield from extensions(cand, budget - 1)

    for pad in extensions(Word(), 12):
        base = pad + core
        if not admissible(u + base):
            continue
        for w in extensions(base, 12):
            if admissible(u + w + v):
                return w
    return None
