"""Roof functions over shift spaces.

Two representations: exact locally constant roofs (values in a rational
span of declared constants, depending on a finite coordinate window) and
float-evaluable roofs with a quantified modulus of continuity.  Birkhoff
sums are exact for locally constant roofs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import mul
from typing import Callable

from suspmix.exact import QVector, RealBasis, _reduced, common_rows
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
)


class MissingWindowError(KeyError):
    """A roof table has no value for a window that a point or shift uses."""

    def __str__(self) -> str:
        return str(self.args[0])


def _missing(w: Word) -> MissingWindowError:
    return MissingWindowError("window %s not in roof table (inadmissible context)" % (w,))


class _ShiftedView:
    """Read-only view of a point advanced by a fixed offset."""

    def __init__(self, point, offset: int):
        self._point = point
        self._offset = offset

    def __getitem__(self, i: int) -> int:
        return self._point[i + self._offset]


def _zero_tail_start(point) -> int | None:
    """An index from which every symbol of ``point`` is 0, if its type shows one.

    Known for an EventuallyPeriodicPoint with an all-zero right period, also
    behind shifted views; None for any other point.
    """
    offset = 0
    while isinstance(point, _ShiftedView):
        offset += point._offset
        point = point._point
    if isinstance(point, EventuallyPeriodicPoint) and not any(point.right_period):
        return point.core_length - point.origin_offset - offset
    return None


class LocallyConstantRoof:
    """A positive roof depending only on coordinates ``x[-past .. future]``.

    Parameters
    ----------
    past, future : int
        Window extents; the roof value at x is ``table[x[-past..future]]``.
    table : dict[Word, QVector]
        One entry per admissible window; every value strictly positive.
    """

    def __init__(self, past: int, future: int, table: dict[Word, QVector]):
        if past < 0 or future < 0:
            raise ValueError("window extents must be non-negative")
        if not table:
            raise ValueError("roof table is empty")
        width = past + future + 1
        positive = set()  # values already tested: a table repeats few distinct ones
        for w, v in table.items():
            if len(w) != width:
                raise ValueError("window %s has length %d, expected %d" % (w, len(w), width))
            if v not in positive:
                if not v.is_positive():
                    raise ValueError("roof value %s at window %s is not positive" % (v, w))
                positive.add(v)
        self.past = past
        self.future = future
        self.table = dict(table)
        self.basis: RealBasis = next(iter(table.values())).basis

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_symbols(cls, values: dict[int, QVector]) -> "LocallyConstantRoof":
        """Depth-one roof r(x) = values[x_0]."""
        return cls(0, 0, {Word([s]): v for s, v in values.items()})

    @classmethod
    def constant(cls, c: QVector, alphabet: Alphabet) -> "LocallyConstantRoof":
        return cls.from_symbols({s: c for s in alphabet.symbols})

    @classmethod
    def from_function(
        cls,
        past: int,
        future: int,
        func: Callable[[Word], QVector],
        shift: EdgeShift,
    ) -> "LocallyConstantRoof":
        """Tabulate ``func`` on every admissible window of the shift."""
        table = {w: func(w) for w in admissible_words(shift, past + future + 1)}
        return cls(past, future, table)

    # -- evaluation ---------------------------------------------------------

    def value_on_window(self, w: Word) -> QVector:
        try:
            return self.table[w]
        except KeyError:
            raise _missing(w) from None

    @functools.cached_property
    def rows(self) -> tuple[int, dict[tuple, tuple[int, ...]]]:
        """(den, {window symbols: integer row}): the table as ``common_rows``
        over one common denominator, made on first use."""
        den, rows = common_rows(list(self.table.values()))
        return den, dict(zip((w.symbols for w in self.table), rows))

    def value_at(self, point, j: int = 0) -> QVector:
        """Roof value at the point shifted j times."""
        w = Word(point[j + i] for i in range(-self.past, self.future + 1))
        return self.value_on_window(w)

    def values(self) -> list[QVector]:
        return list(self.table.values())

    def min_value(self) -> QVector:
        return min(dict.fromkeys(self.table.values()))

    def max_value(self) -> QVector:
        return max(dict.fromkeys(self.table.values()))

    def admissible_words_from_table(self, length: int) -> list[Word]:
        """Words all of whose windows occur in the table.

        The table's key set is used as the window language; for roofs
        tabulated on a shift this contains every admissible word.
        """
        width = self.past + self.future + 1
        if length < width:
            seen = set()
            for key in self.table:
                for i in range(width - length + 1):
                    seen.add(key[i : i + length])
            return sorted(seen)
        words = list(self.table.keys())
        for _ in range(length - width):
            words = [
                w + Word([k[-1]])
                for w in words
                for k in self.table
                if w[len(w) - width + 1 :] == k[: width - 1]
            ]
        return sorted(set(words))


@dataclass
class EvaluableRoof:
    """A positive roof given by a float evaluator and a continuity modulus.

    ``evaluator(point)`` must be pure and depend on the point only through
    integer indexing; ``walters_modulus(k)`` bounds Birkhoff-sum
    discrepancies for points agreeing on ``[-k, n+k]`` and is
    non-increasing with limit 0.  ``floor`` is a certified positive lower
    bound for the roof.  ``vectorized``, when given, reads the last axis:
    ``vectorized(symbols, out=None)`` maps a numpy array whose last axis
    holds the symbols x[0..N) of a point to the float64 array of the same
    shape holding r(σ^j x), j < N, each read from its own row alone.  Given
    ``out``, a float64 array of that shape, it writes every pass into
    ``out`` and returns it, and the result must equal the one without
    ``out`` bit for bit, whatever ``out`` held before.  The simulator
    passes a 2-D batch of members, one per row, with an ``out`` that it
    reuses across batches, uses the result in place of ``evaluator`` and
    keeps only a prefix of each row, passing enough symbols beyond it, so
    on that prefix the two must agree bit for bit.  Table roofs need no
    such hook: the simulator evaluates a ``LocallyConstantRoof`` with one
    table lookup per distinct window of a batch.
    """

    evaluator: Callable
    walters_modulus: Callable[[int], float]
    floor: float
    vectorized: Callable | None = None

    def value_at(self, point, j: int = 0) -> float:
        return self.evaluator(_ShiftedView(point, j) if j else point)


def birkhoff_sum(roof, p, n: int):
    """Sum of the roof along the first n shifts of p.

    Exact (QVector) for locally constant roofs, float otherwise.  A table
    roof reads p[-past .. n + future) once, counts its windows in a dict,
    and sums count × row on the roof's cached integer ``rows``, with one
    lookup per distinct window in order of first occurrence, so a missing
    window is named by the first one in that order; the one total row is
    reduced to lowest terms once.  A purely periodic point is read as a
    slice of its period repeated.
    """
    if n < 0:
        raise ValueError("birkhoff_sum needs n >= 0")
    if isinstance(roof, LocallyConstantRoof):
        if not n:
            return roof.basis.zero()
        symbols = _read(p, -roof.past, n + roof.future)
        counts: dict = {}
        for w in zip(*(symbols[k : k + n] for k in range(roof.past + roof.future + 1))):
            counts[w] = counts.get(w, 0) + 1
        den, rows = roof.rows
        try:
            rows = [rows[w] for w in counts]
        except KeyError as exc:
            raise _missing(Word(exc.args[0])) from None
        total = tuple([sum(map(mul, counts.values(), column)) for column in zip(*rows)])
        return _reduced(roof.basis, total, den)
    return sum(roof.value_at(p, j) for j in range(n))


def _read(p, lo: int, hi: int):
    """The symbols p[lo .. hi) as a sequence."""
    if p.__class__ is EventuallyPeriodicPoint and not p.core_length and p.left_period == p.right_period:
        period = p.right_period.symbols
        start = (lo + p.origin_offset) % len(period)
        return (period * ((start + hi - lo) // len(period) + 1))[start : start + hi - lo]
    return [p[i] for i in range(lo, hi)]


@dataclass
class WeightedShift:
    """An edge shift with one exact weight per edge.

    ``windows`` maps edge indices to the block each edge reads, which ends
    with its roof window (``decider.weigh_windows`` builds it); the sum of
    edge weights over any closed path equals the Birkhoff sum of the
    originating roof over the spelled periodic word.
    """

    shift: EdgeShift
    weights: tuple[QVector, ...]
    windows: dict[int, Word]


def walters_norm(roof: LocallyConstantRoof) -> QVector:
    """2·sup|r| plus the supremum of Birkhoff-sum discrepancies.

    The supremum runs over m >= 1 and pairs of points agreeing on
    [-m, m], of |sum_{j<m} r(sigma^j x) - r(sigma^j y)|.  For a window
    [-past, future] only the positions j with j + future > m can differ,
    so the enumeration is finite and stabilizes for m > past + future.
    """
    two_sup = roof.max_value().scale(2)
    mm, nn = roof.past, roof.future
    if mm == 0 and nn <= 1:
        # every window in the sum is contained in the agreement zone
        return two_sup
    best = roof.basis.zero()
    width = mm + nn + 1
    # The achievable discrepancies stabilize once m exceeds the window
    # extent (for larger m the divergent positions translate).
    for m in range(1, mm + nn + 2):
        # coordinates needed: [-mm, m-1+nn]; agreement zone: [-m, m]
        lo = -mm
        total_len = (m - 1 + nn) - lo + 1
        shared = range(max(-m, lo) - lo, min(m, m - 1 + nn) - lo + 1)
        words = roof.admissible_words_from_table(total_len)
        by_shared: dict[tuple, list[Word]] = {}
        for w in words:
            key = tuple(w[i] for i in shared)
            by_shared.setdefault(key, []).append(w)
        for group in by_shared.values():
            for a, b in itertools.combinations(group, 2):
                diff = roof.basis.zero()
                for j in range(m):
                    wa = a[j - mm - lo : j - mm - lo + width]
                    wb = b[j - mm - lo : j - mm - lo + width]
                    if wa != wb:
                        diff = diff + roof.value_on_window(wa)
                        diff = diff - roof.value_on_window(wb)
                best = max(best, abs(diff))
    return two_sup + best


def example_roof_harmonic() -> EvaluableRoof:
    """The roof 1 + 1/(1 + rho(x)) on [0], 1 on [1], over the full 2-shift.

    rho(x) counts the consecutive zeros from position 0; the value at the
    all-zero point is 1, the continuous extension.  Both paths raise
    ValueError on a symbol other than 0 and 1 that they read.
    """
    import numpy as np

    scan_limit = 10**7

    def not_binary(symbol):
        return ValueError("the harmonic roof reads only the symbols 0 and 1, not %d" % symbol)

    def evaluator(point) -> float:
        if point[0] == 1:
            return 1.0
        # past the start of an all-zero tail the walk would only run on to
        # scan_limit and return 1.0, so it may stop there
        limit, tail = scan_limit, _zero_tail_start(point)
        if tail is not None:
            limit = min(limit, max(tail, 1))
        rho = 0
        while rho < limit and point[rho] == 0:
            rho += 1
        if rho >= limit:
            return 1.0
        if point[rho] != 1:
            raise not_binary(point[rho])
        return 1.0 + 1.0 / (1.0 + rho)

    def vectorized(symbols: "np.ndarray", out: "np.ndarray | None" = None) -> "np.ndarray":
        # rho at each 0 is the distance to the next 1 at or after it along the
        # last axis, read off a reversed running minimum of the positions of
        # the 1s (fmin: no position is NaN, and fmin's loop is the faster).
        # Every pass writes into out: the positions are exact integers in
        # float64, so each value has the bits of 1 + 1/(1 + rho); a 0 with no
        # later 1 in its row gets the distance inf, and with it exactly 1.0,
        # the value on an infinite run of zeros
        ones, zeros = symbols == 1, symbols == 0
        if not (ones | zeros).all():
            raise not_binary(symbols[~(ones | zeros)][0])
        if out is None:
            out = np.empty(symbols.shape, dtype=np.float64)
        pos = np.arange(symbols.shape[-1], dtype=np.float64)
        np.copyto(out, pos)
        np.copyto(out, np.inf, where=zeros)
        reverse = out[..., ::-1]
        np.fmin.accumulate(reverse, axis=-1, out=reverse)
        out -= pos
        out += 1.0
        np.divide(zeros, out, out=out)
        out += 1.0
        return out

    return EvaluableRoof(
        evaluator=evaluator,
        walters_modulus=lambda k: 2.0 / max(k, 1),
        floor=1.0,
        vectorized=vectorized,
    )
