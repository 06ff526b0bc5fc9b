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
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from suspmix.exact import QVector, RealBasis, _reduced, common_rows, from_rows
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Word,
    _code_symbols,
    _code_text,
    _window_code,
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


class WindowFunction:
    """Exact values on the windows x[-past .. future] of one width.

    The values are stored in one form only: integer rows over one common
    denominator, keyed by window code (see ``shift.Windows``), which
    ``code_rows`` reads.  ``table`` (the values keyed by Word) and
    ``values()`` are read-only views made from the rows.
    """

    def __init__(self, past: int, future: int, basis: RealBasis, base: int, den: int,
                 rows: dict[int, tuple[int, ...]]):
        self.past = past
        self.future = future
        self.basis = basis
        self._codes = (base, den, rows)

    @functools.cached_property
    def table(self) -> Mapping[Word, QVector]:
        """The values keyed by Word, in the rows' order, as a read-only
        mapping."""
        base, den, rows = self._codes
        width = self.past + self.future + 1
        values = from_rows(self.basis, rows.values(), den)
        return MappingProxyType({Word(_code_symbols(code, width, base)): v
                                 for code, v in zip(rows, values)})

    def code_rows(self, base: int) -> tuple[int, dict[int, tuple[int, ...]]]:
        """(den, {code: row}) with the codes in ``base``; windows with a
        symbol outside [0, base) are left out."""
        own, den, rows = self._codes
        if base == own:
            return den, rows
        width = self.past + self.future + 1
        windows = ((_code_symbols(code, width, own), row) for code, row in rows.items())
        return den, {_window_code(w, base): row for w, row in windows if max(w, default=0) < base}

    def value_on_window(self, w: Word) -> QVector:
        try:
            return self.table[w]
        except KeyError:
            raise _missing(w) from None

    def value_at(self, point, j: int = 0) -> QVector:
        """The value at the point shifted j times."""
        w = Word(point[j + i] for i in range(-self.past, self.future + 1))
        return self.value_on_window(w)

    def values(self) -> list[QVector]:
        """The values in table order."""
        _, den, rows = self._codes
        return from_rows(self.basis, rows.values(), den)

    def rendered(self) -> dict[str, str]:
        """Window text -> value text, in the order of the window texts.

        Each distinct value is reduced and rendered once; no Word is made.
        """
        base, den, rows = self._codes
        width = self.past + self.future + 1
        texts = {row: _reduced(self.basis, row, den).render() for row in dict.fromkeys(rows.values())}
        by_text = {_code_text(code, width, base): texts[row] for code, row in rows.items()}
        return {w: by_text[w] for w in sorted(by_text)}


class LocallyConstantRoof(WindowFunction):
    """A positive roof depending only on coordinates ``x[-past .. future]``.

    Parameters
    ----------
    past, future : int
        Window extents; the roof value at x is ``table[x[-past..future]]``.
    table : dict[Word, QVector]
        One entry per admissible window, over non-negative symbols; every
        value strictly positive.

    Every constructor stores the values once, as the integer rows of
    ``WindowFunction`` (``_tabled`` builds them from a table); ``table``
    is a read-only view of them.
    """

    def __init__(self, past: int, future: int, table: dict[Word, QVector]):
        _check_table(past, future, table)
        base = max(max(max(w.symbols) for w in table) + 1, 2)  # as from_texts reads it
        super().__init__(past, future, *_tabled(base, [_window_code(w.symbols, base) for w in table],
                                                list(table.values())))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_texts(cls, past: int, future: int, table: dict[str, QVector]) -> "LocallyConstantRoof":
        """The roof whose windows are spelled one digit per symbol, as in a
        config file.

        The table is checked as the Word-keyed constructor checks its own,
        with the same errors in the same order.  Each text is then read as
        a window code (``int`` in the base above its digits).  A text that
        is not ASCII digits goes through ``Word.parse`` and that
        constructor.
        """
        digits = "".join(table)
        if not (digits.isascii() and digits.isdigit()):
            return cls(past, future, {Word.parse(w): v for w, v in table.items()})
        _check_table(past, future, table)
        base = max(int(max(digits)) + 1, 2)
        return cls._on_rows(past, future, *_tabled(base, [int(w, base) for w in table],
                                                   list(table.values())))

    @classmethod
    def _on_rows(cls, past, future, basis, base, den, rows) -> "LocallyConstantRoof":
        """The roof with value ``row / den`` on the window whose code in
        ``base`` is each key, for rows already known to be positive."""
        roof = cls.__new__(cls)
        WindowFunction.__init__(roof, past, future, basis, base, den, rows)
        return roof

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

    @functools.cached_property
    def rows(self) -> tuple[int, dict[tuple, tuple[int, ...]]]:
        """(den, {window symbols: integer row}): the rows of ``code_rows``
        keyed by the windows' symbols, made on first use."""
        base, den, rows = self._codes
        width = self.past + self.future + 1
        return den, {_code_symbols(code, width, base): row for code, row in rows.items()}

    def min_value(self) -> QVector:
        return min(dict.fromkeys(self.values()))

    def max_value(self) -> QVector:
        return max(dict.fromkeys(self.values()))

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


def _tabled(base: int, codes: list[int], values: list[QVector]):
    """(basis, base, den, {code: row}): the stored form of a table whose
    windows have these codes in ``base``, for ``WindowFunction``."""
    den, rows = common_rows(values)
    return values[0].basis, base, den, dict(zip(codes, rows))


def _check_table(past: int, future: int, table: dict) -> None:
    """ValueError for negative extents, an empty table, or the first window
    in table order whose length is not past + future + 1, that has a
    negative symbol (a window code has none), or whose value is not
    positive; each distinct value is sign-tested once."""
    if past < 0 or future < 0:
        raise ValueError("window extents must be non-negative")
    if not table:
        raise ValueError("roof table is empty")
    width = past + future + 1
    tested = set()
    for w, v in table.items():
        if len(w) != width:
            raise ValueError("window %s has length %d, expected %d" % (w, len(w), width))
        if isinstance(w, Word) and min(w.symbols) < 0:
            raise ValueError("window %s has a negative symbol" % (w,))
        if v not in tested:
            if not v.is_positive():
                raise ValueError("roof value %s at window %s is not positive" % (v, w))
            tested.add(v)


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


class WeightedShift:
    """An edge shift with one exact weight per edge.

    ``windows`` maps edge indices to the block each edge reads, which ends
    with its roof window (``decider.weigh_windows`` takes it, as a
    ``shift.Windows``, from the block presentation); the sum of edge
    weights over any closed path equals the Birkhoff sum of the
    originating roof over the spelled periodic word.  The weights are
    stored once, as ``rows``: (den, one integer row per edge over that
    common denominator), the form that ``decider.cycle_data`` sums.  The
    constructor converts its QVector weights, which must share one basis,
    and ``weights`` is a read-only view made from the rows.
    """

    def __init__(self, shift: EdgeShift, weights: Sequence[QVector], windows):
        self.shift, self.basis, self.rows, self.windows = shift, weights[0].basis, common_rows(weights), windows

    @classmethod
    def from_rows(cls, shift: EdgeShift, basis: RealBasis, den: int, rows: list, windows):
        weighted = cls.__new__(cls)
        weighted.shift, weighted.basis, weighted.rows, weighted.windows = shift, basis, (den, rows), windows
        return weighted

    @functools.cached_property
    def weights(self) -> tuple[QVector, ...]:
        den, rows = self.rows
        return tuple(from_rows(self.basis, rows, den))


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
