"""Suspension-flow evaluation and empirical mixing diagnostics.

Hitting times of cylinder targets are located from partial sums of the
roof along the symbolic itinerary, never by time-stepping.  The series
feed a residue-density diagnostic that separates the two mixing verdicts
empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from suspmix.roofs import EvaluableRoof, LocallyConstantRoof
from suspmix.shift import EventuallyPeriodicPoint, Word, is_word_admissible

# Cells (members times symbols) in one batch of hitting_times.  At 2**13
# the simulate workload's peak RSS is 39.3 MB; at 2**17 it is 42.8 MB, and
# its wall_s is higher (seed 1, --seconds 8, six alternating pairs on a
# shared 2-CPU Xeon, Python 3.11, numpy 2.4: medians 0.157 s at 2**13
# against 0.175 s at 2**17).  The size also keeps perfbench's
# roofs.table_symbols, which adds up each batch's longest count,
# comparable across changes.
_BATCH_CELLS = 1 << 13
# the longest member row that hitting_times allocates
_ROW_CELLS = 1 << 31


@dataclass
class SuspensionPoint:
    """The point (base, 0) of the suspension space."""

    base: EventuallyPeriodicPoint


@dataclass
class ReturnTimeSeries:
    """Hitting times of a cylinder-and-height target, with a reference period.

    ``times`` is strictly increasing; ``omega`` is the reference period
    used for residue analysis (typically the period of the witnesses'
    right tail under the flow).
    """

    target: Word
    epsilon: float
    times: tuple[float, ...]
    omega: float

    def __post_init__(self):
        self.times = tuple(self.times)
        if self.omega <= 0:
            raise ValueError("reference period must be positive")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("hitting times must be strictly increasing")

    def residues(self) -> np.ndarray:
        return np.mod(np.asarray(self.times, dtype=np.float64), self.omega)


@dataclass
class MixingDiagnostic:
    """Residue-density summary of a return-time series.

    ``grid_fraction`` is the fraction of residues within 2*epsilon of the
    candidate delta-grid (None when no candidate was supplied);
    ``verdict`` is a suggestion only and never overrides an exact decider
    verdict.
    """

    omega: float
    residues: tuple[float, ...]
    max_gap: float
    bin_counts: tuple[int, ...]
    grid_fraction: Optional[float]
    verdict: str
    note: str = ""


class _Work:
    """What one hitting_times call keeps from batch to batch.

    Each block (a run's block or a tail period) that a batch reads has an
    int64 tile, keyed by the block's symbol tuple: the block repeated,
    made when a row first reads it and tiled again, to at least twice its
    length, only when a row reads past its end.  A batch keeps the tiles
    that the batch before it read and drops the rest, so blocks that the
    members share are tiled a few times per call, and the tiles held never
    exceed those of two batches.  ``take`` lends the first cells of a
    named work array, made at its first use with room for ``cells`` cells;
    each batch writes over what the one before it left there.
    """

    def __init__(self, cells: int):
        self.cells = cells
        self.arrays: dict = {}
        self.tiles: dict = {}  # the tiles that this batch has read
        self.last: dict = {}  # the tiles that the batch before it read

    def next_batch(self) -> None:
        self.last, self.tiles = self.tiles, {}

    def read(self, block: Word, start: int, count: int) -> np.ndarray:
        """``count`` symbols of the block repeated, from position ``start``."""
        symbols, stop = block.symbols, start + count
        tile = self.tiles.get(symbols)
        if tile is None:
            tile = self.last.get(symbols)
        if tile is None or len(tile) < stop:
            reps = -(-max(stop, 0 if tile is None else 2 * len(tile)) // len(symbols))
            tile = np.tile(np.array(symbols, dtype=np.int64), reps)
        self.tiles[symbols] = tile
        return tile[start:stop]

    def take(self, name: str, dtype, shape: tuple) -> np.ndarray:
        array = self.arrays.get(name)
        if array is None:
            array = self.arrays[name] = np.empty(self.cells, dtype=dtype)
        return array[: math.prod(shape)].reshape(shape)


def _nonnegative_symbols(
    points: Sequence[EventuallyPeriodicPoint], n: int, work: Optional[_Work] = None
) -> np.ndarray:
    """The symbols x[0..n) of each point, one row per point.

    The points are one batch of ``work``.  A row is the slices of its
    tiles that the row's left tail, runs and right tail put in columns
    [0, n), and the rows are laid end to end in its "symbols" array.
    Without ``work``, a fresh one holds just these rows.
    """
    if work is None:
        work = _Work(len(points) * n)
    work.next_batch()
    parts = [np.empty(0, dtype=np.int64)]
    for x in points:
        k, col = x.origin_offset, 0  # column col reads position k of the core
        if k < 0:
            col, phase = min(-k, n), k % len(x.left_period.symbols)
            parts.append(work.read(x.left_period, phase, col))
            k = 0
        for block, count in x.runs:
            if col == n:
                break
            size = len(block.symbols)
            if k >= size * count:
                k -= size * count
                continue
            take, phase = min(size * count - k, n - col), k % size
            parts.append(work.read(block, phase, take))
            col, k = col + take, 0
        if col < n:
            phase = k % len(x.right_period.symbols)
            parts.append(work.read(x.right_period, phase, n - col))
    out = work.take("symbols", np.int64, (len(points) * n,))
    return np.concatenate(parts, out=out).reshape(len(points), n)


def _roof_values(
    roof, points: Sequence, symbols: np.ndarray, n: int, work: Optional[_Work] = None
) -> np.ndarray:
    """The floats r(σ^j x) for j < n, one row per point; row i of ``symbols``
    holds x[0..] of points[i], reaching at least ``roof.future`` past n.
    A roof's ``vectorized`` hook writes into the "values" array of ``work``."""
    if isinstance(roof, EvaluableRoof) and roof.vectorized is not None:
        out = None if work is None else work.take("values", np.float64, symbols.shape)
        return np.asarray(roof.vectorized(symbols, out=out), dtype=np.float64)[:, :n]
    if isinstance(roof, LocallyConstantRoof):
        return _table_values(roof, points, symbols, n)
    return np.array([[float(roof.value_at(x, j)) for j in range(n)] for x in points], dtype=np.float64)


def _table_values(
    roof: LocallyConstantRoof, points: Sequence, symbols: np.ndarray, n: int
) -> np.ndarray:
    """Table-roof values along the points, one table lookup per distinct window.

    The window x[j-past .. j+future] needs a point's past, which this
    reads from the point itself.  A window's id packs its symbols in base
    (symbol range); the ids get dense ranks whenever the next symbol could
    take them past 2**62, so they fit in int64 however wide the window is.
    Distinct windows are looked up in order of first occurrence, row by
    row, which raises the same ``KeyError`` as evaluating the points one
    after the other, index by index.
    """
    past, future = roof.past, roof.future
    width = past + future + 1
    left = np.array([[x[i] for i in range(-past, 0)] for x in points], dtype=np.int64)
    full = np.concatenate([left, symbols[:, : n + future]], axis=1)
    lo = int(full.min(initial=0))
    base = int(full.max(initial=0)) - lo + 1
    full -= lo
    ids, bound = full[:, :n].copy(), base  # every id is below bound
    for c in range(1, width):
        if bound * base > 1 << 62:
            ranks, inverse = np.unique(ids.ravel(), return_inverse=True)
            ids, bound = inverse.reshape(ids.shape), len(ranks)
        ids *= base
        ids += full[:, c : c + n]
        bound *= base
    _, first, ids = np.unique(ids.ravel(), return_index=True, return_inverse=True)
    values = np.empty(len(first), dtype=np.float64)
    for k in np.argsort(first):
        row, j = divmod(int(first[k]), n)
        values[k] = float(roof.value_on_window(Word((full[row, j : j + width] + lo).tolist())))
    return values[ids].reshape(len(points), n)


def orbit_period(roof, word: Word) -> float:
    """The flow period of the periodic orbit through the repetition of word."""
    p = EventuallyPeriodicPoint.periodic(word)
    return float(sum(float(roof.value_at(p, j)) for j in range(len(word))))


def hitting_times(
    start_family: Sequence,
    target: Word,
    epsilon: float,
    roof,
    horizon: float,
    omega: Optional[float] = None,
    max_hits_per_member: Optional[int] = None,
    tail_only: bool = False,
) -> ReturnTimeSeries:
    """Times t <= horizon at which a member's segment sits inside [target]x(0,eps).

    Because epsilon is below the minimum roof value, the segment
    {x}x(0,eps) is contained in the target exactly at the Birkhoff
    partial sums S_n(x) over indices n with the window x[n .. n+|target|)
    equal to the target word; times are read off the partial sums
    directly.  With ``tail_only`` hits during a member's transient prefix
    are dropped and only returns inside its periodic tail count.

    Consecutive members are evaluated together, as the rows of arrays of
    at most ``_BATCH_CELLS`` cells.  With ``max_hits_per_member = k`` a
    member is evaluated only up to a cut that holds its first k hits and
    every roof window its full horizon would read, so the result, and a
    missing table window, are those of evaluating the whole horizon.
    The horizon must be finite and above 0, and epsilon above 0 and below
    the least roof value; otherwise ValueError.  So must a member row
    longer than ``_ROW_CELLS``, before anything is allocated.
    """
    if not start_family:
        raise ValueError("empty start family")
    if not len(target):
        raise ValueError("empty target word")
    if max_hits_per_member is not None and max_hits_per_member < 0:
        raise ValueError("max_hits_per_member must be non-negative")
    members = [
        m.base if isinstance(m, SuspensionPoint) else m for m in start_family
    ]
    floor = getattr(roof, "floor", None)
    if floor is None:
        floor = min(map(float, roof.values()))
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and above 0, got %g" % horizon)
    if not epsilon > 0:
        raise ValueError("epsilon must be above 0, got %g" % epsilon)
    if epsilon >= floor:
        raise ValueError("epsilon must be below the minimum roof value")
    if omega is None:
        omega = orbit_period(roof, members[0].right_period)
    past, future = getattr(roof, "past", 0), getattr(roof, "future", 0)
    n_max = int(min(horizon / floor, _ROW_CELLS)) + 2
    counts, starts, widths = [], [], []
    for x in members:
        period = len(x.right_period)
        core_end = max(0, x.core_length - x.origin_offset)
        n = n_max
        if max_hits_per_member is not None:
            # from core_end on the hit candidates repeat with the tail period,
            # and from core_end + past on so do the roof's windows: the first
            # k hits and every window up to n_max lie below this cut
            n = min(n, core_end + past + len(target) + (max_hits_per_member + 2) * period)
        counts.append(n)
        starts.append(core_end if tail_only else 0)
        # the harmonic roof reads ahead to the next 1, which may lie past the
        # end of a long core, and a table window reads future symbols ahead
        widths.append(max(n, core_end) + len(target) + 3 * period + 8 + future)
    if max(widths) > _ROW_CELLS:
        raise ValueError("horizon %g over the least roof value %g needs member rows of about %.3g "
                         "cells, above 2**31" % (horizon, floor, horizon / floor))
    batches = []
    lo = 0
    while lo < len(members):
        hi, width = lo + 1, widths[lo]
        while hi < len(members) and (hi + 1 - lo) * max(width, widths[hi]) <= _BATCH_CELLS:
            width = max(width, widths[hi])
            hi += 1
        batches.append((lo, hi, width))
        lo = hi
    work = _Work(max((hi - lo) * width for lo, hi, width in batches))
    unique: set = set()
    for lo, hi, width in batches:
        unique.update(_batch_hits(
            members[lo:hi], max(counts[lo:hi]), starts[lo:hi], width,
            target, roof, horizon, max_hits_per_member, work,
        ).tolist())
    return ReturnTimeSeries(target, epsilon, tuple(sorted(unique)), omega)


def _batch_hits(points, n, starts, width, target, roof, horizon, max_hits, work) -> np.ndarray:
    """The counted hit times of a batch of members, one row each.

    Row i's hits are the indices j in [starts[i], n] where the target word
    starts and the partial sum is at most the horizon, the first
    ``max_hits`` of them.  ``n`` is the longest count of the batch; past
    its own count a row has its max_hits hits already or partial sums
    above the horizon, so those indices add no hit.  Only the columns
    from the least start on are searched.
    """
    symbols = _nonnegative_symbols(points, width, work=work)
    values = _roof_values(roof, points, symbols, n, work=work)
    sums = work.take("sums", np.float64, (len(points), n + 1))
    sums[:, 0] = 0.0
    np.cumsum(values, axis=1, out=sums[:, 1:])
    first = min(starts)
    sums = sums[:, first:]
    keep = sums <= horizon
    for j, g in enumerate(target):
        keep &= symbols[:, first + j : j + n + 1] == g
    keep &= np.arange(first, n + 1) >= np.array(starts)[:, None]
    if max_hits is not None:
        keep &= np.cumsum(keep, axis=1) <= max_hits
    return sums[keep]


def witness_family(
    shift,
    u: Word,
    w: Word,
    v1: Word,
    v2: Word,
    zeta: Word,
    n_range: Iterable[int],
    m_range: Iterable[int],
) -> list[EventuallyPeriodicPoint]:
    """The witnesses ...u w v1^n v2^m zeta^inf, one per (n, m), origin at w.

    Each core is kept as its three runs (w, 1), (v1, n), (v2, m).  When
    ``shift``, an EdgeShift, is given, every witness must be admissible in
    it; None skips the check.
    """
    family = []
    for n in n_range:
        for m in m_range:
            x = EventuallyPeriodicPoint.from_runs(u, ((w, 1), (v1, n), (v2, m)), zeta)
            if shift is not None and not is_word_admissible(shift, u + u + x.core + zeta + zeta):
                raise ValueError("inadmissible concatenation at (n, m) = (%d, %d)" % (n, m))
            family.append(x)
    return family


def density_diagnostic(
    series: ReturnTimeSeries,
    candidate_delta: Optional[float] = None,
) -> MixingDiagnostic:
    """Residues of the hitting times mod omega, their largest circular gap,
    their counts in 10 equal bins of [0, omega), and (when a candidate
    delta is supplied) the fraction lying within min(2*epsilon, delta/8)
    of the delta-grid.  The verdict is non-mixing-consistent when that
    fraction is at least 0.99.  A candidate delta must be finite and above
    0; otherwise ValueError.

    Every residue lies within delta/2 of the grid, so a tolerance of 2*epsilon
    alone would pass every residue once delta <= 4*epsilon, and the test
    would say nothing.  Capped at delta/8, the tolerance covers a quarter
    of each grid cell: residues spread over [0, omega) pass at a rate near
    1/4, far below 0.99."""
    if candidate_delta is not None and not 0 < candidate_delta < math.inf:
        raise ValueError("candidate delta must be finite and above 0, got %g" % candidate_delta)
    if len(series.times) < 10:
        raise ValueError("need at least 10 hitting times")
    omega = series.omega
    residues = np.sort(series.residues())
    gaps = np.diff(residues)
    wrap = omega - residues[-1] + residues[0]
    max_gap = float(max(gaps.max(initial=0.0), wrap))
    counts, _ = np.histogram(residues, bins=10, range=(0.0, omega))
    grid_fraction = None
    if candidate_delta is not None:
        rem = np.mod(residues, candidate_delta)
        dist = np.minimum(rem, candidate_delta - rem)
        grid_fraction = float(np.mean(dist <= min(2 * series.epsilon, candidate_delta / 8)))
    if grid_fraction is not None and grid_fraction >= 0.99:
        verdict = "non-mixing-consistent"
        note = "residues concentrate on the candidate grid"
    elif max_gap <= series.epsilon:
        verdict = "mixing-consistent"
        note = "residues are epsilon-dense in [0, omega)"
    else:
        verdict = "inconclusive"
        note = "neither density nor grid concentration reached threshold"
    return MixingDiagnostic(
        omega=omega,
        residues=tuple(residues.tolist()),
        max_gap=max_gap,
        bin_counts=tuple(int(c) for c in counts),
        grid_fraction=grid_fraction,
        verdict=verdict,
        note=note,
    )


def export_series(obj, path) -> str:
    """Write a return-time series or diagnostic as CSV; returns the path.

    Series rows are "time,residue"; diagnostic rows are
    "bin,count,max_gap" with the global max gap repeated per row.  Floats
    are printed with 17 significant digits.
    """
    if isinstance(obj, ReturnTimeSeries):
        lines = ["time,residue"]
        lines += ["%.17g,%.17g" % row for row in zip(obj.times, obj.residues().tolist())]
    elif isinstance(obj, MixingDiagnostic):
        lines = ["bin,count,max_gap"]
        lines += ["%d,%d,%.17g" % (i, c, obj.max_gap) for i, c in enumerate(obj.bin_counts)]
    else:
        raise TypeError("expected a ReturnTimeSeries or MixingDiagnostic")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return str(path)
