"""Reference implementations that the tests compare the library against."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from suspmix.decider import CycleData, HypothesisError, normalizing_blocks
from suspmix.roofs import WeightedShift
from suspmix.shift import EdgeShift, Word, is_transitive
from suspmix.special import BetaShift, _factor_occurs


def cycles_up_to(shift: EdgeShift, length: int) -> list[list[int]]:
    """All closed edge paths (as edge-index lists) of length 1..length.

    Rotations count once: each cycle is reported only from its smallest
    starting vertex occurrence.  Intended for small graphs and oracles.
    """
    found = []
    for start in shift.vertices:
        # depth-first over edge paths from start; stack[d] walks the
        # out-edges at depth d, so len(stack) == len(path) + 1
        path: list[int] = []
        stack = [iter(shift.out_edges(start))] if length >= 1 else []
        while stack:
            i = next(stack[-1], None)
            if i is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append(i)
            current = shift.edges[i].target
            if current == start:
                found.append(list(path))
            if len(path) < length:
                stack.append(iter(shift.out_edges(current)))
            else:
                path.pop()
    # deduplicate rotations
    seen = set()
    out = []
    for cyc in found:
        key = min(tuple(cyc[r:] + cyc[:r]) for r in range(len(cyc)))
        if key not in seen:
            seen.add(key)
            out.append(cyc)
    return out


def essential_part(vertices, edges):
    """Iteratively drop vertices lacking in- or out-edges: one full pass
    over the edges per round."""
    vset = set(vertices)
    while True:
        kept = [e for e in edges if e.source in vset and e.target in vset]
        alive = {e.source for e in kept} & {e.target for e in kept}
        if alive == vset:
            return [v for v in vertices if v in vset], kept
        vset = alive
        edges = kept


def set_walk_admissible(shift: EdgeShift, w: Word) -> bool:
    """True iff some edge path spells w: every symbol checked against the
    alphabet first, then one walk over plain vertex sets, nothing kept."""
    for s in w:
        if s not in shift.alphabet:
            raise ValueError("symbol %r outside alphabet" % (s,))
    states = set(shift.vertices)
    for s in w:
        states = shift.step(states, s)
        if not states:
            return False
    return True


def beta_graph_core(shift: BetaShift, depth: int) -> tuple[list[str], list[tuple]]:
    """The truncated beta-graph's vertices and edges, kept where both ends
    lie in the intersection of the forward and backward sweeps from V1."""
    nu = list(shift.nu)
    edges = []
    for n in range(1, depth + 1):
        if n < depth:
            edges.append(("V%d" % n, "V%d" % (n + 1), nu[n - 1]))
        edges += [("V%d" % n, "V1", c) for c in range(nu[n - 1])]

    def sweep(forward):
        seen, stack = {"V1"}, ["V1"]
        while stack:
            u = stack.pop()
            for s, t, _ in edges:
                a, b = (s, t) if forward else (t, s)
                if a == u and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    core = sweep(True) & sweep(False)
    return sorted(core), [e for e in edges if e[0] in core and e[1] in core]


def cycle_data(weighted: WeightedShift) -> CycleData:
    """Potentials and cycle values, with three QVector operations per edge."""
    shift = weighted.shift
    if not is_transitive(shift):
        raise HypothesisError("weighted presentation is not strongly connected")
    basis = weighted.weights[0].basis
    root = min(shift.vertices, key=lambda v: str(shift.names[v]))
    potentials = {root: basis.zero()}
    tree = {}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for i in shift.in_edges(u):
            v = shift.edges[i].source
            if v not in potentials:
                potentials[v] = potentials[u] - weighted.weights[i]
                tree[v] = i
                frontier.append(v)
    values = tuple(
        potentials[e.source] + weighted.weights[i] - potentials[e.target]
        for i, e in enumerate(shift.edges)
    )
    return CycleData(weighted, root, potentials, values, tree)


def _reduce_mod(value, delta):
    """value - n*delta in [0, delta), via a float-guided exact choice of n."""
    n = math.floor(float(value) / float(delta))
    for candidate_n in (n - 1, n, n + 1):
        candidate = value - delta.scale(candidate_n)
        f = float(candidate)
        if -1e-12 <= f < float(delta) - 1e-12:
            if candidate.is_zero() or candidate.is_positive():
                return candidate
            if f <= 0:
                continue
    raise ArithmeticError("cannot place %s on the [0, %s) interval" % (value, delta))


def normalize_to_delta_grid(shift, roof, delta):
    """(delta, g table, s table) of the float-guided normalization: a float
    shrink of delta, float floors of the potentials, and two QVector
    operations and a ratio per edge."""
    data = normalizing_blocks(shift, roof).data
    recoded, weights, windows = data.weighted.shift, data.weighted.weights, data.weighted.windows
    for c in data.cycle_values:
        if c.is_zero():
            continue
        q = c.ratio_to(delta)
        if q is None or q.denominator != 1:
            raise HypothesisError("delta %s does not divide cycle value %s" % (delta, c))
    min_w = float(min(roof.table.values(), key=float))
    if float(delta) >= min_w:
        shrink = math.floor(float(delta) / min_w) + 1
        delta = delta.scale(Fraction(1, shrink))
    g = [_reduce_mod(-data.potentials[v], delta) for v in recoded.vertices]
    s = {}
    for i, e in enumerate(recoded.edges):
        s_val = weights[i] - g[e.source] + g[e.target]
        q = s_val.ratio_to(delta)
        if q is None or q.denominator != 1 or q < 1:
            raise ArithmeticError("normalized value %s is not in %s*N" % (s_val, delta))
        s[windows[i]] = s_val
    return delta, dict(zip(recoded.names, g)), s


# -- exact values as tuples of Fractions --------------------------------------


def fraction_float(coords, approx) -> float:
    return math.fsum(float(c) * a for c, a in zip(coords, approx))


def fraction_ratio(coords, other):
    """The rational q with coords == q * other, if one exists."""
    q = None
    for a, b in zip(coords, other):
        if b == 0:
            if a != 0:
                return None
            continue
        r = a / b
        if q is None:
            q = r
        elif q != r:
            return None
    if q is None:
        return Fraction(0) if not any(coords) else None
    return q


def fraction_render(coords, names) -> str:
    parts = []
    for c, name in zip(coords, names):
        if c == 0:
            continue
        if name == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(name)
        else:
            parts.append("%s*%s" % (c, name))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def fraction_parse(text: str, names) -> tuple:
    coords = [Fraction(0)] * len(names)
    index = {name: i for i, name in enumerate(names)}
    body = text.strip()
    if body == "0":
        return tuple(coords)
    body = body.replace(" - ", " + -")
    for term in body.split(" + "):
        term = term.strip()
        if "*" in term:
            coef, name = term.split("*", 1)
            c = Fraction(coef)
        elif term in index:
            c, name = Fraction(1), term
        elif term.startswith("-") and term[1:] in index:
            c, name = Fraction(-1), term[1:]
        else:
            c, name = Fraction(term), "1"
        if name not in index:
            raise ValueError("unknown basis element %r in %r" % (name, text))
        coords[index[name]] += c
    return tuple(coords)


def fraction_rank(rows) -> int:
    """Rank of rows of Fractions by Gauss-Jordan elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


# -- roofs --------------------------------------------------------------------


def harmonic_walk(point, scan_limit: int = 10**7) -> float:
    """The harmonic roof at ``point`` by walking to the next 1, capped."""
    if point[0] == 1:
        return 1.0
    rho = 1
    while rho < scan_limit and point[rho] == 0:
        rho += 1
    if rho >= scan_limit:
        return 1.0
    return 1.0 + 1.0 / (1.0 + rho)


# -- simulator --------------------------------------------------------------------


def hitting_times(family, target, roof, horizon, max_hits=None, tail_only=False) -> list[float]:
    """The distinct hit times of a family, sorted, one member and one index at a time.

    A member's time at index j is its Birkhoff sum S_j, summed as
    ``t += v`` over ``roof.value_at``; j is a hit when the target word
    starts there and S_j <= horizon.  Each member counts its first
    ``max_hits`` hits, and with ``tail_only`` only those past its core.
    """
    times = set()
    for x in family:
        start = max(0, len(x.core) - x.origin_offset) if tail_only else 0
        t, j, found = 0.0, 0, 0
        while t <= horizon and (max_hits is None or found < max_hits):
            if j >= start and all(x[j + i] == s for i, s in enumerate(target)):
                times.add(t)
                found += 1
            t += float(roof.value_at(x, j))
            j += 1
    return sorted(times)


# -- shift oracles --------------------------------------------------------------


def _runs(symbols) -> list[tuple[int, int]]:
    return [(s, len(list(g))) for s, g in itertools.groupby(symbols)]


def balanced_member_runs(symbols) -> bool:
    """Infix test for the balanced-2/3 coded shift, on the word's run list."""
    if any(s not in (0, 1, 2, 3) for s in symbols):
        return False
    runs = _runs(symbols)
    for i, (s, length) in enumerate(runs):
        first, last = i == 0, i == len(runs) - 1
        if s == 2 and not last:
            nxt_s, nxt_len = runs[i + 1]
            if nxt_s != 3:
                return False
            nxt_last = i + 1 == len(runs) - 1
            if first and nxt_last:
                continue  # 2^a 3^b alone embeds in a large block
            if first:
                if nxt_len < length:
                    return False
            elif nxt_last:
                if nxt_len > length:
                    return False
            elif nxt_len != length:
                return False
        if s == 3 and not first and runs[i - 1][0] != 2:
            return False
    return True


def balanced_periodic_runs(w: Word) -> bool:
    """Periodic test for the balanced-2/3 coded shift on six copies of w:
    the runs starting in the middle two copies are whole, with whole
    neighbors."""
    symbols = list(w)
    if len(set(symbols)) == 1:
        return True
    length_w = len(symbols)
    runs = []
    pos = 0
    for s, length in _runs(symbols * 6):
        runs.append((s, length, pos))
        pos += length
    for i, (s, length, start) in enumerate(runs):
        if not (2 * length_w <= start < 4 * length_w):
            continue
        if s == 2:
            nxt_s, nxt_len, _ = runs[i + 1]
            if nxt_s != 3 or nxt_len != length:
                return False
        if s == 3 and runs[i - 1][0] != 2:
            return False
    return True


def balanced_periodic_rotation(w: Word) -> bool:
    """Periodic test for the balanced-2/3 coded shift on the cyclic runs
    of w, as the library answered it before it read the oracle state.

    The rotation of w that starts at a run boundary and not at a 3-run has
    the cyclic runs of w as its runs, each 3-run after its predecessor.
    Every 2-run must be followed by a 3-run of equal length and every
    3-run preceded by a 2-run, cyclically.  Symbols outside 0-3 are not
    rejected."""
    symbols = w.symbols
    for start, s in enumerate(symbols):
        if s != symbols[start - 1] and s != 3:
            break
    else:
        return True
    run, length, twos = s, 0, 0
    # the extra symbol closes the last run against the first
    for s in symbols[start:] + symbols[: start + 1]:
        if s == run:
            length += 1
            continue
        if (run == 2) != (s == 3) or (run == 3 and length != twos):
            return False
        run, length, twos = s, 1, length
    return True


def _segment_ok(seg: list[int], open_left: bool, open_right: bool, i_cap) -> bool:
    """Whether a maximal 1/01-segment fits the generator inventory.

    Closed segments must be a full generator: 1^j (j >= 2) or the
    alternating word 1(01)^k; open sides relax to suffixes/prefixes.
    """
    if not seg:
        return open_left or open_right
    if all(s == 1 for s in seg):
        return open_left or open_right or len(seg) >= 2
    # an alternating word with a 1 at each closed end has odd length >= 3
    return (all(a != b for a, b in zip(seg, seg[1:])) and (open_left or seg[0] == 1)
            and (open_right or seg[-1] == 1) and (i_cap is None or len(seg) <= 2 * i_cap + 1))


def two_orbit_parse(w: Word, i_cap: Optional[int] = None) -> bool:
    """Membership of w, a Word or a tuple of symbols, in the two-orbit shift,
    by a parse of the whole word, as the library answered it before its
    step automaton became the one definition of the language.

    Points interleave generator words (1-runs of length >= 2 and
    alternating words 1(01)^k, with k <= i_cap when given) with zero
    separators whose lengths follow consecutive terms of the aperiodic
    {3,4} scaffold.  A word is admissible iff its visible separators are
    a factor of the scaffold and the segments between them fit the
    generator inventory, with relaxations at the word boundary.
    """
    symbols = list(w)
    if any(s not in (0, 1) for s in symbols):
        return False
    if not symbols:
        return True

    # candidate parses: a leading/trailing 0-run of length 1 may be either
    # a partial separator or part of an alternating generator word
    runs = _runs(symbols)

    def check(lead_sep: bool, trail_sep: bool) -> bool:
        body = runs[:]
        lead = trail = 0
        if lead_sep:
            if not body or body[0][0] != 0:
                return False
            lead = body[0][1]
            body = body[1:]
        if trail_sep:
            if not body or body[-1][0] != 0:
                return False
            trail = body[-1][1]
            body = body[:-1]
        if lead > 4 or trail > 4:
            return False
        # split body into segments at 0-runs of length >= 2 (separators)
        segments: list[list[int]] = [[]]
        interior: list[int] = []
        for s, length in body:
            if s == 0 and length >= 2:
                interior.append(length)
                segments.append([])
            else:
                segments[-1].extend([s] * length)
        if any(v not in (3, 4) for v in interior):
            return False
        if not _factor_occurs(interior, lead, trail):
            return False
        for idx, seg in enumerate(segments):
            open_left = idx == 0 and not lead_sep
            open_right = idx == len(segments) - 1 and not trail_sep
            if not _segment_ok(seg, open_left, open_right, i_cap):
                return False
        return True

    lead_options = trail_options = [False]
    if runs[0][0] == 0:
        lead_options = [True] if runs[0][1] >= 2 else [False, True]
    if runs[-1][0] == 0 and len(runs) > 1:
        trail_options = [True] if runs[-1][1] >= 2 else [False, True]
    return any(check(l, t) for l in lead_options for t in trail_options)


def two_orbit_periodic_by_repetition(w: Word, i_cap=None) -> bool:
    """Periodic test for the two-orbit shift: a repetition of w of at
    least six copies and 140 symbols is a word of the shift."""
    if len(w) == 0:
        return False
    reps = max(6, -(-140 // len(w)))
    return two_orbit_parse(w * reps, i_cap)


# -- the periodic-orbit scan ----------------------------------------------------


def lyndon_scan(oracle, v: Word, period_bound: int) -> list[Word]:
    """``decider.periodic_words_in_cylinder`` as it was written before its
    per-node work was cut: the rank dictionary, a generator of children
    per node and the rotation asked of every Lyndon word."""
    symbols = list(oracle.alphabet.symbols)
    if len(v):
        if v[0] not in symbols:
            return []
        symbols.remove(v[0])
        symbols.insert(0, v[0])
    rank = {s: i for i, s in enumerate(symbols)}
    found = []
    prefix: list = []
    stack = [(1, 1, s) for s in reversed(symbols[:1] if len(v) else symbols)]
    while stack:
        t, p, s = stack.pop()
        del prefix[t - 1 :]
        prefix.append(s)
        word = Word(prefix)
        if not oracle.is_admissible(word):
            continue
        if p == t:
            w = rotation_in_cylinder(word, v)
            if w is not None and oracle.periodic_admissible(word):
                found.append(w)
        if t < period_bound:
            repeat = prefix[t - p]
            stack.extend(
                (t + 1, t + 1, symbols[j])
                for j in range(len(symbols) - 1, rank[repeat], -1)
            )
            stack.append((t + 1, p, repeat))
    return found


def rotation_in_cylinder(lyndon: Word, v: Word):
    if len(v) <= 1:
        return lyndon
    n = len(lyndon)
    for i in range(n):
        if all(lyndon[(i + k) % n] == v[k] for k in range(len(v))):
            return lyndon[i:] + lyndon[:i]
    return None


def window_sum(table: dict, past: int, future: int, read, n: int):
    """Sum over j < n of ``table[read(j - past) .. read(j + future)]``, as a
    tuple of Fractions; ``table`` maps symbol tuples to Fraction tuples.

    Raises KeyError naming the first window, in j order, missing from the
    table."""
    total = None
    for j in range(n):
        window = tuple(read(i) for i in range(j - past, j + future + 1))
        value = table[window]
        total = value if total is None else tuple(map(sum, zip(total, value)))
    return total


def cyclic_window_sum(table: dict, past: int, future: int, w) -> tuple:
    """The roof summed over one period of w-bar, w read cyclically."""
    n = len(w)
    return window_sum(table, past, future, lambda i: w[i % n], n)
