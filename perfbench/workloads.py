"""Seeded input generator: CLI configs and argv for each benchmark op.

``build(workload, seed, smoke)`` returns the ops of one round of a
workload.  suspmix sees only the config files and argv built here; the
``expect`` dict of each op carries what the generator knows about the
input, for the independent checks in ``checks.py``.

What drives the cost of an op (shift kind, period bound, graph size,
roof window and basis rank, family size, symbol count) and the order of
the ops are fixed per position in the round, and the seed varies the
rest: roof values, basis constants, forbidden words, graph labels and
targets.  Work (and the peak memory, which depends on op order) per
round therefore stays steady across seeds while the inputs change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import model

# Irrational constants a basis may declare (float approximations).
CONSTANTS = (
    1.4142135623730951,  # sqrt 2
    2.718281828459045,  # e
    1.7320508075688772,  # sqrt 3
    3.141592653589793,  # pi
    2.23606797749979,  # sqrt 5
)
NAMES = ("a", "b", "c")


@dataclass
class Op:
    name: str
    argv: list
    config: str | None = None  # config text; the harness appends --config PATH
    check: str = ""  # check kind, see checks.CHECKS
    expect: dict = field(default_factory=dict)
    group: str = ""  # ops of one certify input share a group and run in order
    known_failure: str = ""  # exception type this op is known to raise today


@dataclass
class Basis:
    names: tuple  # ("1", "a", ...)
    floats: tuple

    def text(self) -> str:
        if len(self.names) == 1:
            return ""
        items = ", ".join("%s %r" % (n, f) for n, f in zip(self.names[1:], self.floats[1:]))
        return "\n[basis]\nconstants = %s\n" % items


def make_basis(rng, rank: int) -> Basis:
    values = rng.sample(CONSTANTS, rank - 1)
    return Basis(("1",) + NAMES[: rank - 1], (1.0,) + tuple(values))


def rand_value(rng, basis: Basis, const: bool = True):
    """A positive value: small rational plus small multiples of the constants."""
    coords = [Fraction(rng.randint(1, 8), rng.choice((1, 2, 3, 4)))]
    for _ in basis.names[1:]:
        coords.append(Fraction(rng.randint(0, 3), rng.choice((1, 2))) if const else Fraction(0))
    if const and len(coords) > 1 and not any(coords[1:]):
        coords[rng.randrange(1, len(coords))] = Fraction(1)
    return tuple(coords)


def roof_text(basis: Basis, past: int, future: int, table: dict, roof2: dict | None = None) -> str:
    lines = ["", "[roof]", "past = %d" % past, "future = %d" % future]
    lines += ["%s = %s" % (w, model.render_value(v, basis.names)) for w, v in sorted(table.items())]
    if roof2 is not None:
        lines += ["", "[roof2]"]
        lines += ["%s = %s" % (w, model.render_value(v, basis.names)) for w, v in sorted(roof2.items())]
    return basis.text() + "\n".join(lines) + "\n"


def options_text(**options) -> str:
    return "\n[options]\n" + "".join("%s = %s\n" % kv for kv in options.items())


def windows(alphabet: int, width: int) -> list[str]:
    return ["".join(p) for p in product("0123456789"[:alphabet], repeat=width)]


# -- scan: periodic-spectrum decisions over oracle-presented shifts ----------

# (shift text, alphabet, cylinder symbol, period bound, roof width).  Each
# shift has the orbit cyl^inf and, within the bound, an orbit through the
# cylinder that reads another symbol; scan_roof relies on both.
CODED = "kind = coded\ngenerators = balanced-23"
TWO_ORBIT = "kind = two-orbit"
# (shift text, alphabet, cylinder symbol, period bound, roof width, grid
# roof, basis rank).  Each shift has the orbit cyl^inf and, within the
# bound, an orbit through the cylinder that reads another symbol;
# scan_roof relies on both.  Light, middle and heavy ops come in classes
# of one cost, so that the median and the tail latency fall inside a
# class on every seed; the seven middle ops are alike on purpose.
SCAN_SHIFTS = [
    (CODED, 4, "0", 6, 1, True, 1),
    (CODED, 4, "0", 6, 2, False, 2),
    ("kind = beta\nbeta = quadratic 1/2 1/2 5\ndepth = 2", 2, "0", 12, 2, True, 3),
    ("kind = beta\nbeta = quadratic 1 1 2\ndepth = 3", 3, "0", 8, 1, False, 3),
] + [(CODED, 4, "0", 8, 1, True, 2)] * 7 + [
    (TWO_ORBIT, 2, "1", 12, 1, False, 2),
    (TWO_ORBIT, 2, "1", 12, 2, True, 1),
    (CODED, 4, "0", 9, 1, False, 3),
    (CODED, 4, "0", 10, 1, True, 2),
    (CODED, 4, "0", 10, 2, False, 2),
    (TWO_ORBIT, 2, "1", 14, 1, True, 3),
    (TWO_ORBIT, 2, "1", 15, 1, False, 2),
    ("kind = beta\nbeta = rational 5/2\ndepth = 2", 3, "0", 10, 1, True, 2),
    ("kind = beta\nbeta = rational 7/3\ndepth = 3", 3, "0", 9, 1, False, 3),
    ("kind = beta\nbeta = rational 3/2\ndepth = 3", 2, "0", 12, 1, True, 1),
    ("kind = beta\nbeta = quadratic 1 1 3\ndepth = 2", 3, "0", 9, 1, False, 2),
]

# Roof tables of the presets the scan mix decides, for the checks.
PRESET_SCANS = {
    "example-4.3": dict(
        names=("1", "a", "b"), floats=(1.0, 1.4142135623730951, 2.7182818284590451),
        table={"0": "a + b", "1": "a + b", "2": "a", "3": "b"}, cylinder="0",
        bound=10, verdict="NotMixingUpToBound",
    ),
    "two-orbit": dict(
        names=("1", "alpha"), floats=(1.0, 1.6180339887498949),
        table={"0": "1", "1": "alpha"}, cylinder="1", bound=12, verdict="TopMixing",
    ),
    "golden-beta": dict(
        names=("1", "alpha"), floats=(1.0, 1.6180339887498949),
        table={"0": "1", "1": "alpha"}, cylinder="0", bound=6, verdict="TopMixing",
    ),
}


def scan_roof(rng, basis: Basis, alphabet: int, width: int, cyl: str, grid: bool):
    """Roof table (windows of ``width`` with past 0) and its predicted verdict.

    A grid roof takes values n*c for one value c, so every orbit sum lies
    on a common grid.  Otherwise the cylinder-only window gets a rational
    value and every other window a value with a positive constant part,
    so cyl^inf and any orbit reading another symbol have independent sums.
    """
    words = windows(alphabet, width)
    if grid:
        c = rand_value(rng, basis)
        return {w: model.scale(c, rng.randint(1, 3)) for w in words}, "NotMixingUpToBound"
    table = {}
    for w in words:
        if w == cyl * width:
            table[w] = rand_value(rng, basis, const=False)
        else:
            v = list(rand_value(rng, basis))
            v[1] = max(v[1], Fraction(1, 2))
            table[w] = tuple(v)
    return table, "TopMixing"


def scan_ops(rng, smoke: bool) -> list[Op]:
    ops = []
    shifts = SCAN_SHIFTS[::5] if smoke else SCAN_SHIFTS
    for i, (shift, alphabet, cyl, bound, width, grid, rank) in enumerate(shifts):
        basis = make_basis(rng, rank)
        table, verdict = scan_roof(rng, basis, alphabet, width, cyl, grid)
        bound = min(bound, 8) if smoke else bound
        config = "[shift]\n%s\n" % shift + roof_text(basis, 0, width - 1, table)
        ops.append(Op(
            "scan-%02d-%s-b%d" % (i, shift.split("\n")[0].split()[-1], bound),
            ["decide", "--json", "--bound", str(bound)], config, "scan",
            dict(names=basis.names, floats=basis.floats, past=0, future=width - 1,
                 table={w: model.render_value(v, basis.names) for w, v in table.items()},
                 cylinder=cyl, bound=bound, verdict=verdict),
        ))
    for preset, info in PRESET_SCANS.items():
        bound = min(info["bound"], 8) if smoke else info["bound"]
        ops.append(Op("preset-%s" % preset, ["decide", "--json", "--preset", preset,
                                             "--bound", str(bound)],
                      None, "scan", dict(info, past=0, future=0, bound=bound)))
    if not smoke:
        for name in ("4.3", "two-orbit", "golden-beta"):
            ops.append(Op("examples-%s" % name, ["examples", name], None, "examples"))
    return ops


# -- certify: exact SFT decide -> cohomology -> normalize -> section ---------

# (kind, alphabet, roof width, basis rank, class, size band, roof2).  The
# band bounds the count of admissible roof windows for forbidden-word SFTs
# and the vertex count for edge lists ("nrr": not right-resolving) and
# rings.  roof2 is "cob" (r plus a coboundary) or "off" (r changed on one
# window).  Only small presentations get "off": a failed cohomology test
# lists every cycle up to the vertex count, which is exponential in it.
CERTIFY_INPUTS = [
    ("forbidden", 2, 3, 3, "incomm", (5, 6), "off"),
    ("forbidden", 3, 2, 2, "incomm", (7, 8), "off"),
    ("edges", 2, 1, 3, "incomm", (4, 6), "cob"),
    ("edges-nrr", 2, 2, 2, "grid", (4, 6), "cob"),
    ("edges-nrr", 3, 1, 1, "grid", (4, 6), "cob"),
    ("forbidden", 3, 5, 2, "grid", (125, 135), "cob"),
    ("forbidden", 3, 5, 1, "cobound", (125, 135), "cob"),
    ("forbidden", 3, 5, 3, "incomm", (125, 135), "cob"),
    ("forbidden", 4, 4, 2, "grid", (190, 200), "cob"),
    ("forbidden", 4, 4, 1, "cobound", (190, 200), "cob"),
    ("forbidden", 4, 3, 3, "grid", (50, 56), "cob"),
    ("forbidden", 2, 7, 1, "grid", (34, 34), "cob"),
    ("forbidden", 2, 7, 2, "cobound", (34, 34), "cob"),
    ("forbidden", 3, 4, 2, "grid", (45, 56), "cob"),
    ("forbidden", 3, 5, 1, "grid", (125, 135), "cob"),
    ("forbidden", 4, 4, 3, "grid", (190, 200), "cob"),
    ("forbidden", 2, 7, 3, "grid", (34, 34), "cob"),
    ("forbidden", 3, 5, 2, "cobound", (125, 135), "cob"),
    ("ring", 2, 3, 2, "grid", (640, 640), "cob"),
    ("ring", 2, 2, 1, "cobound", (720, 720), "cob"),
]

# What the checks need to know about the presets in the certify mix.
PRESET_CERTIFY = {
    "example-4.1": dict(names=("1",), floats=(1.0,), alphabet=2, past=0, future=0,
                        table={"0": "2", "1": "3"}, roof2={"0": "5/2", "1": "5/2"},
                        verdict="NotTopMixing", cohomologous=False),
    "constant-roof": dict(names=("1",), floats=(1.0,), alphabet=2, past=0, future=0,
                          table={"0": "5/2", "1": "5/2"}, roof2=None,
                          verdict="NotTopMixing", cohomologous=True),
}


def random_forbidden(rng, alphabet: int, width: int, band) -> tuple[list[str], model.Graph]:
    """Forbidden words of a transitive SFT with a band-sized count of
    admissible ``width``-windows (the window count sets the cost of an op)."""
    symbols = "0123456789"[:alphabet]
    while True:
        forbidden = sorted({
            "".join(rng.choice(symbols) for _ in range(rng.randint(2, 3)))
            for _ in range(rng.randint(1, alphabet + 1))
        })
        graph = model.Graph.from_forbidden(alphabet, forbidden)
        if (graph.strongly_connected() and len(graph.edges) > len(graph.vertices)
                and band[0] <= len(graph.words(width)) <= band[1]):
            return forbidden, graph


def random_edges(rng, alphabet: int, band, resolving: bool) -> list[tuple[str, str, str]]:
    """A strongly connected right-resolving graph whose long enough blocks
    determine the vertex (so it presents an SFT).  Unless ``resolving``,
    one vertex is then split in two copies with the same out-edges, and a
    predecessor reaches both on one label: the same shift, presented
    non-right-resolving, so the program has to determinize it."""
    symbols = "0123456789"[:alphabet]
    while True:
        n = rng.randint(band[0], band[1])
        names = ["q%d" % i for i in range(n)]
        edges = {(names[i], symbols[0] if i % 2 else rng.choice(symbols)): names[(i + 1) % n]
                 for i in range(n)}
        for _ in range(rng.randint(n // 2, n)):
            edges.setdefault((rng.choice(names), rng.choice(symbols)), rng.choice(names))
        edges = [(s, t, c) for (s, c), t in edges.items()]
        graph = model.Graph(edges)
        if (len(graph.vertices) == n and len(graph.edges) > n and graph.strongly_connected()
                and graph.definite(n)):
            break
    if not resolving:
        s, x, c = rng.choice([e for e in edges if e[0] != e[1]])
        edges += [(x + "b" if u == x else u, t, d) for u, t, d in edges if u == x]
        edges.append((s, x + "b", c))
    return edges


def m_sequence(length: int, offset: int) -> str:
    """``length`` symbols of the period-1023 binary m-sequence (taps 10, 7),
    from ``offset``: every 10-block occurs at most once in a period."""
    state = [1] * 10
    bits = []
    for _ in range(offset + length):
        bits.append(state[-1])
        state = [state[9] ^ state[6]] + state[:-1]
    return "".join(map(str, bits[offset:]))


def ring_edges(n: int) -> tuple[list, list[str]]:
    """A ring of n vertices plus one chord: two long cycles.  The labels
    and the chord are fixed, because they set how long a block must be to
    name a vertex, and with it the cost of every op on the ring."""
    labels = m_sequence(n, 0)
    names = ["r%d" % i for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], labels[i]) for i in range(n)]
    j = n // 2
    chord = "1" if labels[n - 1] == "0" else "0"
    edges.append((names[n - 1], names[j], chord))
    return edges, [labels, labels[j:n - 1] + chord]


def coboundary(table: dict, past: int, h: dict) -> dict:
    """The roof x -> r(x) + h(x_1) - h(x_0), for a window reading x_0 and x_1."""
    return {w: model.sub(model.add(v, h[w[past + 1]]), h[w[past]]) for w, v in table.items()}


def certify_roof(rng, basis: Basis, alphabet: int, width: int, past: int, klass: str,
                 closed: list[str], fixed_unit: bool = False) -> dict:
    """A roof of the given class.

    Grid roofs are n*c, drawn until the closed-walk sums (in units of c)
    have gcd 1 (up to 100 draws), so that delta = c and every value lies
    on the delta-grid; "cobound" adds a coboundary to such a roof.  With
    ``fixed_unit`` c does not depend on the seed (only the arrangement of
    the multiples does), which keeps the cost of the heaviest ops steady.
    """
    words = windows(alphabet, width)
    if klass == "incomm":
        return {w: rand_value(rng, basis) for w in words}
    if fixed_unit:
        c = (Fraction(3, 2),) + (Fraction(1, 2),) * (len(basis.names) - 1)
    else:
        c = rand_value(rng, basis)
    # a fixed mean keeps sections one size; on the rings, the heaviest
    # inputs, a small one keeps the section close to the other ring ops
    multiples = [1 + i % (2 if fixed_unit else 4) for i in range(len(words))]
    for _ in range(100):
        rng.shuffle(multiples)
        n = dict(zip(words, multiples))
        sums = [sum(n[x] for x in model.cyclic_windows(w, past, width - 1 - past)) for w in closed]
        if math.gcd(*sums) == 1:
            break
    table = {w: model.scale(c, n[w]) for w in words}
    if klass == "cobound":
        # |h| <= 3/8 c' with c' <= c keeps every value positive
        ch = model.scale(c, Fraction(1, 2)) if fixed_unit else rand_value(rng, basis)
        while model.approx(ch, basis.floats) > model.approx(c, basis.floats):
            ch = model.scale(ch, Fraction(1, 2))
        h = {s: model.scale(ch, Fraction(rng.randint(0, 3), 8)) for s in "0123456789"[:alphabet]}
        table = coboundary(table, past, h)
    return table


def certify_shift(rng, kind: str, alphabet: int, width: int, band, smoke: bool):
    """(config [shift] body, model graph, forbidden words, edges, long cycles)."""
    if kind == "forbidden":
        forbidden, graph = random_forbidden(rng, alphabet, width, band)
        shift = "kind = forbidden-words\nalphabet = %d\nforbidden = %s" % (alphabet, " ".join(forbidden))
        return shift, graph, forbidden, None, []
    cycles = []
    if kind == "ring":
        edges, cycles = ring_edges(24 if smoke else band[0])
    else:
        edges = random_edges(rng, alphabet, band, resolving=kind == "edges")
    shift = "kind = edges\nalphabet = %d\nedges = %s" % (alphabet, ", ".join("%s %s %s" % e for e in edges))
    return shift, model.Graph(edges), None, edges, cycles


def certify_ops(rng, smoke: bool) -> list[Op]:
    groups = []
    inputs = CERTIFY_INPUTS[:4] if smoke else CERTIFY_INPUTS
    for i, (kind, alphabet, width, rank, klass, band, roof2_kind) in enumerate(inputs):
        basis = make_basis(rng, max(rank, 2) if klass == "incomm" else rank)
        while True:
            shift, graph, forbidden, edges, cycles = certify_shift(rng, kind, alphabet, width, band,
                                                                    smoke)
            # a coboundary reads x_0 and x_1, so its window needs future >= 1
            past = rng.randint(0, width - 2) if width > 1 else 0
            closed = graph.closed_words(alphabet, cycles)
            table = certify_roof(rng, basis, alphabet, width, past, klass, closed,
                                 fixed_unit=kind == "ring")
            if klass != "incomm":
                break
            # TopMixing is certain once two closed walks have independent
            # sums; some shifts (every cycle with the same symbol counts,
            # say) have none for any roof, so draw the shift again
            zero = (Fraction(0),) * len(basis.names)
            sums = [model.periodic_sum(table, past, width - 1 - past, w, zero) for w in closed]
            if any(model.independent(sums[0], x) for x in sums):
                break
        # roof2 for the cohomology test: r plus a small coboundary, or r
        # changed on one admissible window
        cohomologous = roof2_kind == "cob"
        roof2 = dict(table)
        if cohomologous and width > 1:
            low = min(table.values(), key=lambda v: model.approx(v, basis.floats))
            h = {s: model.scale(low, Fraction(rng.randint(0, 3), 16)) for s in "0123456789"[:alphabet]}
            roof2 = coboundary(table, past, h)
        elif not cohomologous:
            w = rng.choice(sorted(graph.words(width)))
            roof2[w] = model.add(roof2[w], rand_value(rng, basis))
        config = "[shift]\n%s\n" % shift + roof_text(basis, past, width - 1 - past, table, roof2)
        facts = dict(
            names=basis.names, floats=basis.floats, alphabet=alphabet, past=past,
            future=width - 1 - past,
            table={w: model.render_value(v, basis.names) for w, v in table.items()},
            roof2={w: model.render_value(v, basis.names) for w, v in roof2.items()},
            forbidden=forbidden, edges=edges, cycles=cycles,
            verdict="TopMixing" if klass == "incomm" else "NotTopMixing",
            cohomologous=cohomologous, section=klass != "cobound",
        )
        groups.append(pipeline("%s-%02d-%s" % (kind, i, klass), config, facts))
    for preset, facts in PRESET_CERTIFY.items():
        facts = dict(facts, forbidden=None, edges=[("*", "*", "0"), ("*", "*", "1")], cycles=[])
        groups.append(pipeline("preset-%s" % preset, None, facts, preset))
    ops = [op for group in groups for op in group]
    if not smoke:
        ops.append(Op("examples-4.1", ["examples", "4.1"], None, "examples"))
    return ops


def pipeline(name: str, config: str | None, facts: dict, preset: str | None = None) -> list[Op]:
    """decide, then cohomology test, normalize and (unless the roof is
    only cohomologous to a grid roof) section on one input."""
    source = ["--preset", preset] if preset else []
    top = facts["verdict"] == "TopMixing"
    ops = [Op(name + "/decide", ["decide", "--json"] + source, config, "sft_decide", facts, name),
           Op(name + "/test", ["cohomology", "--mode", "test", "--json"] + source, config,
              "cohomology_test", facts, name),
           Op(name + "/normalize", ["cohomology", "--mode", "normalize", "--json"] + source, config,
              "mixing_rejected" if top else "normalize", facts, name)]
    if facts.get("section", True):
        ops.append(Op(name + "/section", ["cohomology", "--mode", "section", "--json"] + source,
                      config, "mixing_rejected" if top else "section", facts, name))
    return ops


# -- simulate: hitting-time series -------------------------------------------

# (family, roof kind, family size m_max, symbols per member, max_hits,
# period length).  The harmonic roof has floor 1, so its horizon is the
# symbol count; a table roof's horizon is the symbol count times its
# smallest value, so every seed evaluates the same number of symbols.
# max_hits keeps the series (and the memory it takes) one size per seed.
SIMULATE_INPUTS = [
    ("harmonic-witness", "harmonic", 1000, 3000, 1, 2),
    ("harmonic-witness", "harmonic", 1200, 2500, 1, 2),
    ("harmonic-witness", "harmonic", 800, 3750, 2, 2),
    ("harmonic-witness", "harmonic", 600, 5000, 1, 2),
    ("harmonic-witness", "harmonic", 1500, 2000, 3, 2),
    ("periodic", "table", 0, 120000, 4000, 5),
    ("periodic", "table", 0, 100000, 3000, 7),
    ("periodic", "table", 0, 80000, 2000, 4),
    ("harmonic-witness", "table", 8, 20000, 500, 2),
    ("harmonic-witness", "table", 16, 10000, 3, 2),
    ("harmonic-witness", "table", 30, 5000, 100, 2),
]


def simulate_ops(rng, smoke: bool) -> list[Op]:
    ops = []
    inputs = SIMULATE_INPUTS[::4] if smoke else SIMULATE_INPUTS
    for i, (family, roof, m_max, size, max_hits, period) in enumerate(inputs):
        if smoke:
            m_max, size = min(m_max, 20), min(size, 500)
        basis = make_basis(rng, 1 + i % 3)
        options = {}
        if roof == "harmonic":
            roof_cfg = "\n[roof]\nname = harmonic\n"
            facts = dict(roof="harmonic", floor=1.0)
            epsilon = rng.choice((0.01, 0.02, 0.05))
        else:
            width = 1 + i % 3
            past = rng.randint(0, width - 1)
            c = rand_value(rng, basis)
            grid = i % 2 == 0
            table = {w: model.scale(c, rng.randint(1, 3)) if grid else rand_value(rng, basis)
                     for w in windows(2, width)}
            roof_cfg = roof_text(basis, past, width - 1 - past, table)
            values = [model.approx(v, basis.floats) for v in table.values()]
            facts = dict(roof="table", names=basis.names, floats=basis.floats, past=past,
                         future=width - 1 - past,
                         table={w: model.render_value(v, basis.names) for w, v in table.items()},
                         floor=min(values))
            epsilon = round(min(values) * rng.choice((0.05, 0.1, 0.2)), 6)
            if grid:
                options["delta"] = repr(model.approx(c, basis.floats))
        horizon = round(size * facts["floor"], 3)
        if family == "periodic":
            word = "".join(rng.choice("01") for _ in range(period - 1)) + "1"
            start = rng.randrange(period)
            target = (word * 2)[start:start + 2]
            options["family"] = word
        else:
            target = rng.choice(("10", "01"))
            options["family"] = "harmonic-witness"
            options["m_max"] = m_max
            word = "10"
        options.update(target=target, epsilon=epsilon, horizon=horizon)
        if max_hits:
            options["max_hits"] = max_hits
        config = "[shift]\nkind = full\nalphabet = 2\n" + roof_cfg + options_text(**options)
        members = max(m_max, 1)
        facts.update(family=family, word=word, m_max=m_max, target=target, horizon=horizon,
                     max_hits=max_hits, sample=sorted(rng.sample(range(members), min(3, members))))
        ops.append(Op("sim-%02d-%s-%s" % (i, family, roof), ["simulate", "--json", "--out", ""],
                      config, "simulate", facts))
    ops.append(Op("preset-example-4.1-sim", ["simulate", "--json", "--out", "", "--preset", "example-4.1"],
                  None, "simulate",
                  dict(roof="table", names=("1",), floats=(1.0,), past=0, future=0,
                       table={"0": "2", "1": "3"}, floor=2.0, family="periodic", word="0",
                       m_max=0, target="0", horizon=40, max_hits=0, sample=[0])))
    if not smoke:
        ops.append(Op("examples-4.2", ["examples", "4.2"], None, "examples"))
    return ops


# -- reference ops -----------------------------------------------------------


def references(smoke: bool) -> list[Op]:
    """The ROADMAP.md baseline rows as named single ops (with smaller
    bounds and horizon under --smoke).

    The 1200-vertex ring is deeper than Python's recursion limit and
    raises RecursionError in cycle_data today: a recorded known failure.
    """
    coded, two_orbit, horizon = (8, 10, 500) if smoke else (12, 16, 10000)
    edges, cycles = ring_edges(1200)
    ring = ("[shift]\nkind = edges\nalphabet = 2\nedges = %s\n\n[roof]\npast = 0\nfuture = 0\n"
            "0 = 1\n1 = 2\n" % ", ".join("%s %s %s" % e for e in edges))
    return [
        Op("coded_b12", ["decide", "--json", "--preset", "example-4.3", "--bound", str(coded)],
           None, "scan", dict(PRESET_SCANS["example-4.3"], past=0, future=0, bound=coded)),
        Op("two_orbit_b16", ["decide", "--json", "--preset", "two-orbit", "--bound", str(two_orbit)],
           None, "scan", dict(PRESET_SCANS["two-orbit"], past=0, future=0, bound=two_orbit)),
        Op("example_4_2_sim", ["simulate", "--json", "--preset", "example-4.2", "--horizon",
                               str(horizon), "--out", ""], None, "simulate",
           dict(roof="harmonic", floor=1.0, family="harmonic-witness", word="10", m_max=5000,
                target="10", horizon=horizon, max_hits=1, sample=[0, 2499, 4999])),
        Op("ring1200", ["decide", "--json"], ring, "sft_decide",
           dict(names=("1",), floats=(1.0,), alphabet=2, past=0, future=0,
                table={"0": "1", "1": "2"}, edges=edges, cycles=cycles, verdict="NotTopMixing"),
           known_failure="RecursionError"),
    ]


# -- rounds -------------------------------------------------------------------

WORKLOADS = {"scan": scan_ops, "certify": certify_ops, "simulate": simulate_ops}


def background(ops: list[Op]) -> list[Op]:
    """A small fixed choice from another workload's smoke round: the ops
    of its first certify input, or else its first two ops by name."""
    first = min(ops, key=lambda op: op.group or op.name)
    if first.group:
        chosen = [op for op in ops if op.group == first.group]
    else:
        chosen = sorted(ops, key=lambda op: op.name)[:2]
    for op in chosen:
        op.name = "bg-" + op.name
        op.group = op.group and "bg-" + op.group
    return chosen


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """One round of ``workload``: its own ops, then a small op or pipeline
    from each other workload, so that every layer's spans stay live (and
    none reads a constant zero) on every workload."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = WORKLOADS[workload](rng, smoke)
    for other, generate in WORKLOADS.items():
        if other != workload:
            ops += background(generate(random.Random("%s:%d:%s" % (workload, seed, other)), True))
    return ops
