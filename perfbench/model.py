"""Plain-Python reference model used by the benchmark's output checks.

Nothing here imports suspmix.  Real values are tuples of Fractions over
the basis ("1", c1, c2, ...) named in a config; shifts are labelled
directed graphs given as edge lists.  The code favours being obviously
correct over being fast: it only runs on the first pass of each op.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# -- exact values -------------------------------------------------------------


def parse_value(text: str, names: tuple[str, ...]) -> tuple[Fraction, ...]:
    """Parse "3/2 + 1/4*a - b" into coordinates over ``names``."""
    coords = [Fraction(0)] * len(names)
    body = text.strip().replace(" - ", " + -")
    if body == "0":
        return tuple(coords)
    for term in body.split(" + "):
        term = term.strip()
        sign = 1
        if term.startswith("-") and not term[1:2].isdigit():
            sign, term = -1, term[1:]
        if "*" in term:
            coef, name = term.split("*", 1)
            coef = Fraction(coef)
        elif term in names:
            coef, name = Fraction(1), term
        else:
            coef, name = Fraction(term), "1"
        coords[names.index(name)] += sign * coef
    return tuple(coords)


def render_value(coords, names) -> str:
    """Config text for a value, as "3/2 + 1/4*a + -1/2*b"."""
    parts = []
    for c, name in zip(coords, names):
        if c == 0:
            continue
        parts.append(str(c) if name == "1" else "%s*%s" % (c, name))
    return " + ".join(parts) if parts else "0"


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale(a, k):
    return tuple(k * x for x in a)


def approx(a, floats) -> float:
    return math.fsum(float(c) * f for c, f in zip(a, floats))


def ratio(a, b):
    """The rational q with a == q*b, or None."""
    q = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return None
            continue
        r = x / y
        if q is None:
            q = r
        elif q != r:
            return None
    if q is None:
        return Fraction(0) if not any(a) else None
    return q


def independent(a, b) -> bool:
    """True iff a and b are linearly independent over the rationals."""
    return any(a[i] * b[j] != a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


# -- windowed roofs on periodic words ----------------------------------------


def cyclic_windows(word: str, past: int, future: int) -> list[str]:
    """The roof windows x[i-past .. i+future], 0 <= i < |word|, of word repeated."""
    n = len(word)
    return ["".join(word[(i + d) % n] for d in range(-past, future + 1)) for i in range(n)]


def periodic_sum(table, past: int, future: int, word, zero):
    """Birkhoff sum over one period of the repetition of ``word``."""
    total = zero
    for window in cyclic_windows(word, past, future):
        total = add(total, table[window])
    return total


# -- labelled graphs ----------------------------------------------------------


class Graph:
    """A labelled directed multigraph, pruned to its essential part."""

    def __init__(self, edges):
        edges = list(edges)
        while True:
            sources = {s for s, _, _ in edges}
            targets = {t for _, t, _ in edges}
            kept = [e for e in edges if e[0] in targets and e[1] in sources]
            if len(kept) == len(edges):
                break
            edges = kept
        self.edges = edges
        self.vertices = sorted({s for s, _, _ in edges} | {t for _, t, _ in edges}, key=str)
        self.out = {v: [] for v in self.vertices}
        for s, t, c in edges:
            self.out[s].append((t, c))

    @classmethod
    def from_forbidden(cls, alphabet: int, forbidden) -> "Graph":
        symbols = "".join(str(s) for s in range(alphabet))
        k = max(len(f) for f in forbidden)

        def clean(block):
            return not any(f in block for f in forbidden)

        edges = []
        for b in map("".join, product(symbols, repeat=k - 1)):
            if not clean(b):
                continue
            for c in symbols:
                if clean(b + c):
                    edges.append((b, b[1:] + c, c))
        return cls(edges)

    def strongly_connected(self) -> bool:
        if not self.vertices:
            return False
        root = self.vertices[0]
        back = {v: [] for v in self.vertices}
        for s, t, _ in self.edges:
            back[t].append(s)
        for adj in ({v: [t for t, _ in self.out[v]] for v in self.vertices}, back):
            seen, stack = {root}, [root]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(self.vertices):
                return False
        return True

    def words(self, length: int) -> set[str]:
        """Labels of all paths of the given length."""
        frontier = {v: {""} for v in self.vertices}
        for _ in range(length):
            nxt: dict = {}
            for v, ws in frontier.items():
                for t, c in self.out[v]:
                    nxt.setdefault(t, set()).update(w + c for w in ws)
            frontier = nxt
        return set().union(*frontier.values()) if frontier else set()

    def periodic_words(self, max_len: int) -> set[str]:
        """Labels w, |w| <= max_len, of closed paths (so w repeated is a point)."""
        found = set()
        for v in self.vertices:
            paths = {(v, "")}
            for _ in range(max_len):
                paths = {(t, w + c) for u, w in paths for t, c in self.out[u]}
                found.update(w for u, w in paths if u == v)
        return found

    def closed_words(self, alphabet: int, cycles=()) -> list[str]:
        """Labels of short closed walks (longer ones when there are none),
        plus the given long cycles."""
        found = self.periodic_words({2: 7, 3: 5}.get(alphabet, 4))
        if not found and not cycles:
            found = self.periodic_words(len(self.vertices))
        return sorted(found) + list(cycles)

    def definite(self, max_len: int) -> bool:
        """Whether, for some length <= max_len, every path label of that
        length determines the path's last vertex."""
        ends = {(v, "") for v in self.vertices}
        for _ in range(max_len):
            ends = {(t, w + c) for u, w in ends for t, c in self.out[u]}
            last: dict = {}
            for v, w in ends:
                last.setdefault(w, set()).add(v)
            if all(len(vs) == 1 for vs in last.values()):
                return True
        return False

    def has_closed_walk(self, word: str) -> bool:
        """True iff some closed path spells ``word``."""
        for v in self.vertices:
            states = {v}
            for c in word:
                states = {t for u in states for t, d in self.out[u] if d == c}
            if v in states:
                return True
        return False
