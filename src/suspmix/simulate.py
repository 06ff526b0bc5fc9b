"""Suspension-flow evaluation and empirical mixing diagnostics.

Hitting times of cylinder targets are located from partial sums of the
roof along the symbolic itinerary, never by time-stepping.  The series
feed a residue-density diagnostic that separates the two mixing verdicts
empirically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from suspmix.roofs import EvaluableRoof, LocallyConstantRoof
from suspmix.shift import EventuallyPeriodicPoint, Word

# Cells (members times symbols) in one batch of hitting_times.  The work is
# per cell: on the 1,500-member harmonic family, batches of 2**12 to 2**16
# cells run within 7 % of each other.  2**13 keeps the simulate workload's
# peak RSS where the per-member loop had it (51.8 MB; 63 MB at 2**17).
_BATCH_CELLS = 1 << 13


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


def _nonnegative_symbols(points: Sequence[EventuallyPeriodicPoint], n: int) -> np.ndarray:
    """The symbols x[0..n) of each point, one row per point, built by tiling the tails."""
    prefixes, tails = [], []
    for point in points:
        core, right = point.core.symbols, point.right_period.symbols
        offset = point.origin_offset
        if offset <= len(core):
            prefixes.append(core[offset : offset + n])
            tails.append(right)
        else:
            phase = (offset - len(core)) % len(right)
            prefixes.append(())
            tails.append(right[phase:] + right[:phase])
    plen = np.array([len(s) for s in prefixes], dtype=np.int64)[:, None]
    period = np.array([len(s) for s in tails], dtype=np.int64)[:, None]
    # the rows' tails laid end to end; cell j of a row reads its tail at j - plen
    first = np.cumsum(period) - period[:, 0]
    flat = np.fromiter(itertools.chain.from_iterable(tails), dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    out = flat[first[:, None] + (cols - plen) % period]
    out[cols < plen] = np.fromiter(itertools.chain.from_iterable(prefixes), dtype=np.int64)
    return out


def _roof_values(roof, points: Sequence, symbols: np.ndarray, n: int) -> np.ndarray:
    """The floats r(σ^j x) for j < n, one row per point; row i of ``symbols``
    holds x[0..] of points[i], reaching at least ``roof.future`` past n."""
    if isinstance(roof, EvaluableRoof) and roof.vectorized is not None:
        return np.asarray(roof.vectorized(symbols), dtype=np.float64)[:, :n]
    if isinstance(roof, LocallyConstantRoof):
        return _table_values(roof, points, symbols, n)
    return np.array([[float(roof.value_at(x, j)) for j in range(n)] for x in points], dtype=np.float64)


def _table_values(
    roof: LocallyConstantRoof, points: Sequence, symbols: np.ndarray, n: int
) -> np.ndarray:
    """Table-roof values along the points, one table lookup per distinct window.

    The window x[j-past .. j+future] needs a point's past, which this
    reads from the point itself.  Windows get dense ids one column at a
    time, so an id stays below the cell count however wide the window is.
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
    ids = np.zeros(len(points) * n, dtype=np.int64)
    for c in range(width):
        _, first, ids = np.unique(
            ids * base + (full[:, c : c + n] - lo).ravel(), return_index=True, return_inverse=True
        )
    values = np.empty(len(first), dtype=np.float64)
    for k in np.argsort(first):
        row, j = divmod(int(first[k]), n)
        values[k] = float(roof.value_on_window(Word(full[row, j : j + width].tolist())))
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
    """
    if not start_family:
        raise ValueError("empty start family")
    if max_hits_per_member is not None and max_hits_per_member < 0:
        raise ValueError("max_hits_per_member must be non-negative")
    members = [
        m.base if isinstance(m, SuspensionPoint) else m for m in start_family
    ]
    floor = getattr(roof, "floor", None)
    if floor is None:
        floor = min(map(float, roof.values()))
    if epsilon >= floor:
        raise ValueError("epsilon must be below the minimum roof value")
    if omega is None:
        omega = orbit_period(roof, members[0].right_period)
    past, future = getattr(roof, "past", 0), getattr(roof, "future", 0)
    n_max = int(horizon / floor) + 2
    counts, starts, widths = [], [], []
    for x in members:
        period = len(x.right_period)
        core_end = max(0, len(x.core) - x.origin_offset)
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
    hits: list[float] = []
    lo = 0
    while lo < len(members):
        hi, width = lo + 1, widths[lo]
        while hi < len(members) and (hi + 1 - lo) * max(width, widths[hi]) <= _BATCH_CELLS:
            width = max(width, widths[hi])
            hi += 1
        hits += _batch_hits(
            members[lo:hi], max(counts[lo:hi]), starts[lo:hi], width,
            target, roof, horizon, max_hits_per_member,
        )
        lo = hi
    unique = sorted(set(hits))
    return ReturnTimeSeries(target, epsilon, tuple(unique), omega)


def _batch_hits(points, n, starts, width, target, roof, horizon, max_hits) -> list[float]:
    """The counted hit times of a batch of members, one row each.

    Row i's hits are the indices j in [starts[i], n] where the target word
    starts and the partial sum is at most the horizon, the first
    ``max_hits`` of them.  ``n`` is the longest count of the batch; past
    its own count a row has its max_hits hits already or partial sums
    above the horizon, so those indices add no hit.
    """
    symbols = _nonnegative_symbols(points, width)
    values = _roof_values(roof, points, symbols, n)
    sums = np.zeros((len(points), n + 1), dtype=np.float64)
    np.cumsum(values, axis=1, out=sums[:, 1:])
    keep = sums <= horizon
    for j, g in enumerate(target):
        keep &= symbols[:, j : j + n + 1] == g
    keep &= np.arange(n + 1) >= np.array(starts)[:, None]
    if max_hits is not None:
        keep &= np.cumsum(keep, axis=1) <= max_hits
    return sums[keep].tolist()


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

    ``shift`` supplies admissibility checking: an EdgeShift, an object
    with an ``is_admissible`` callable, or None to skip the check.
    """
    checker = None
    if shift is not None:
        if hasattr(shift, "is_admissible"):
            checker = shift.is_admissible
        else:
            from suspmix.shift import is_word_admissible

            checker = lambda word: is_word_admissible(shift, word)
    family = []
    for n in n_range:
        for m in m_range:
            core = w + v1 * n + v2 * m
            if checker is not None:
                probe = u + u + core + zeta + zeta
                if not checker(probe):
                    raise ValueError(
                        "inadmissible concatenation at (n, m) = (%d, %d)" % (n, m)
                    )
            family.append(EventuallyPeriodicPoint.from_parts(u, core, zeta, 0))
    return family


def density_diagnostic(
    series: ReturnTimeSeries,
    candidate_delta: Optional[float] = None,
) -> MixingDiagnostic:
    """Residues of the hitting times mod omega, their largest circular gap,
    their counts in 10 equal bins of [0, omega), and (when a candidate
    delta is supplied) the fraction lying within 2*epsilon of the
    delta-grid.  The verdict is non-mixing-consistent when that fraction
    is at least 0.99."""
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
        grid_fraction = float(np.mean(dist <= 2 * series.epsilon))
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
    f17 = lambda x: format(float(x), ".17g")
    lines = []
    if isinstance(obj, ReturnTimeSeries):
        lines.append("time,residue")
        for t, r in zip(obj.times, obj.residues()):
            lines.append("%s,%s" % (f17(t), f17(r)))
    elif isinstance(obj, MixingDiagnostic):
        lines.append("bin,count,max_gap")
        for i, c in enumerate(obj.bin_counts):
            lines.append("%d,%d,%s" % (i, c, f17(obj.max_gap)))
    else:
        raise TypeError("expected a ReturnTimeSeries or MixingDiagnostic")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return str(path)
