"""Independent checks of each op's output.

Every check recomputes what it needs with ``model`` (plain Fractions and
plain graphs); none imports suspmix.  A check returns None when the
output is right and a one-line reason otherwise.  ``state`` carries the
decide verdict of a certify input to its later pipeline ops.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import model

EXIT_BY_VERDICT = {"TopMixing": 0, "NotTopMixing": 10, "NotMixingUpToBound": 11, "Unknown": 20}


class Mismatch(Exception):
    pass


def require(ok: bool, message: str, *args) -> None:
    if not ok:
        raise Mismatch(message % args if args else message)


class Roof:
    """An exact windowed roof table from a config, over the basis ``names``."""

    def __init__(self, table: dict, names, past: int, future: int):
        self.names = tuple(names)
        self.past, self.future = past, future
        self.table = {w: model.parse_value(v, self.names) for w, v in table.items()}
        self.zero = (Fraction(0),) * len(self.names)

    def value(self, text: str):
        return model.parse_value(text, self.names)

    def orbit_sum(self, word: str):
        return model.periodic_sum(self.table, self.past, self.future, word, self.zero)


def facts_roof(e: dict, key: str = "table") -> Roof:
    return Roof(e[key] if e.get(key) is not None else e["table"], e["names"], e["past"], e["future"])


def facts_graph(e: dict) -> model.Graph:
    if e.get("forbidden"):
        return model.Graph.from_forbidden(e["alphabet"], e["forbidden"])
    return model.Graph(e["edges"])


def closed_words(e: dict, graph: model.Graph) -> list[str]:
    return graph.closed_words(e["alphabet"], e.get("cycles") or ())


def positive_integer(q) -> bool:
    return q is not None and q.denominator == 1 and q >= 1


# -- scan ----------------------------------------------------------------------


def check_scan(op, res, state):
    e = op.expect
    verdict = json.loads(res.stdout)["verdict"]
    kind = verdict["verdict"]
    require(res.rc == EXIT_BY_VERDICT[kind], "exit %s for %s", res.rc, kind)
    require(kind == e["verdict"], "verdict %s, expected %s", kind, e["verdict"])
    roof = facts_roof(e)
    words, generators = verdict["witness_orbits"], verdict["generators"]
    require(len(words) == len(generators) > 0, "witnesses and generators differ in number")
    sums = []
    for word, reported in zip(words, generators):
        require(len(word) <= e["bound"] and word[0] == e["cylinder"],
                "witness %s is not a period-%d word in [%s]", word, e["bound"], e["cylinder"])
        total = roof.orbit_sum(word)
        require(roof.value(reported) == total, "orbit sum of %s is %s, not %s", word, total, reported)
        sums.append(total)
    if kind == "TopMixing":
        require(any(model.independent(sums[0], s) for s in sums), "no two independent orbit sums")
        return
    delta = roof.value(verdict["delta"])
    quotients = [model.ratio(s, delta) for s in sums]
    require(all(map(positive_integer, quotients)), "an orbit sum is off the %s grid", verdict["delta"])
    require(math.gcd(*(q.numerator for q in quotients)) == 1, "delta %s is not maximal", verdict["delta"])


def check_examples(op, res, state):
    lines = res.stdout.strip().splitlines()
    require(res.rc == 0 and lines[-1:] == ["result: pass"], "golden checks failed: %s", lines[-1:])


# -- certify -------------------------------------------------------------------


def check_sft_decide(op, res, state):
    e = op.expect
    verdict = json.loads(res.stdout)["verdict"]
    kind = verdict["verdict"]
    require(res.rc == EXIT_BY_VERDICT[kind], "exit %s for %s", res.rc, kind)
    require(kind == e["verdict"], "verdict %s, expected %s", kind, e["verdict"])
    roof, graph = facts_roof(e), facts_graph(e)
    sums = [roof.orbit_sum(w) for w in closed_words(e, graph)]
    require(sums, "no closed walk to check")
    if kind == "TopMixing":
        require(any(model.independent(sums[0], s) for s in sums), "no two independent cycle sums")
        return
    delta = roof.value(verdict["delta"])
    require(all(positive_integer(model.ratio(s, delta)) for s in sums),
            "a cycle sum is off the %s grid", verdict["delta"])
    state["delta"] = delta


def check_cohomology_test(op, res, state):
    e = op.expect
    require(res.rc == 0, "exit %s", res.rc)
    report = json.loads(res.stdout)
    require(report["cohomologous"] == e["cohomologous"], "cohomologous=%s, expected %s",
            report["cohomologous"], e["cohomologous"])
    r, r2 = facts_roof(e), facts_roof(e, "roof2")
    if report["cohomologous"]:
        require("transfer" in report, "no transfer function")
        for w in closed_words(e, facts_graph(e)):
            require(r.orbit_sum(w) == r2.orbit_sum(w), "cycle %s sums differ", w)
    else:
        w = report["witness_orbit"]
        require(facts_graph(e).has_closed_walk(w), "witness %s is not a closed walk", w)
        require(r.orbit_sum(w) != r2.orbit_sum(w), "witness %s has equal sums", w)


def grid_of(delta, roof: Roof, floats):
    """The grid s lies on: delta, or delta/m when delta is not below min r
    (normalize_to_delta_grid documents this shrink)."""
    low = min(roof.table.values(), key=lambda v: model.approx(v, floats))
    gap = model.sub(delta, low)
    if any(gap) and model.approx(gap, floats) < 0:
        return delta
    m = math.floor(model.approx(delta, floats) / model.approx(low, floats)) + 1
    return model.scale(delta, Fraction(1, m))


def on_grid(r: Roof, graph: model.Graph, delta) -> bool:
    """Whether r is a positive multiple of delta on every admissible window."""
    width = r.past + r.future + 1
    return all(positive_integer(model.ratio(r.table[w], delta)) for w in graph.words(width))


def check_normalize(op, res, state):
    e = op.expect
    require(res.rc == 0, "exit %s", res.rc)
    report = json.loads(res.stdout)
    r = facts_roof(e)
    delta = r.value(report["delta"])
    require(delta == state.get("delta"), "delta %s differs from decide's", report["delta"])
    s_text, g_text = report["s"], report["g"]
    k = len(next(iter(s_text))) - 1
    s = Roof(s_text, e["names"], k - r.future, r.future)
    g = {w: r.value(v) for w, v in g_text.items()}
    grid = grid_of(delta, r, e["floats"])
    graph = facts_graph(e)
    unchanged = on_grid(r, graph, delta)  # then g = 0 and s = r
    lo = s.past - r.past
    for window, value in s.table.items():
        base = r.table[window[lo:lo + r.past + r.future + 1]]
        require(value == model.add(model.sub(base, g[window[:k]]), g[window[1:]]),
                "s != r - g + g o sigma on %s", window)
        require(positive_integer(model.ratio(value, grid)), "s[%s] is off the grid", window)
        require(not unchanged or value == base, "on-grid roof changed at %s", window)
    for w in closed_words(e, graph):
        require(s.orbit_sum(w) == r.orbit_sum(w), "cycle %s: s and r sums differ", w)


def check_section(op, res, state):
    e = op.expect
    r, graph = facts_roof(e), facts_graph(e)
    delta = state["delta"]
    if not on_grid(r, graph, delta):
        require(res.rc == 2 and "multiple" in res.stderr, "off-grid roof: exit %s", res.rc)
        return
    require(res.rc == 0, "exit %s", res.rc)
    report = json.loads(res.stdout)
    pairs = [line.split(" -> ") for line in report["edges"]]
    names = {n for pair in pairs for n in pair}
    if not any("@" in n for n in names):
        # the roof is constant delta: the section is the base presentation
        require(all(v == delta for v in r.table.values()), "base returned for a non-constant roof")
        require(report["vertices"] == len(graph.vertices), "vertex count %s", report["vertices"])
        return
    levels: dict = {}
    for n in names:
        block, level = n.rsplit("@", 1)
        levels.setdefault(block, set()).add(int(level))
    width = r.past + r.future + 1
    length = len(next(iter(levels)))
    require(set(levels) == graph.words(length), "section blocks are not the %d-words", length)
    multiples = {}
    for block, seen in levels.items():
        q = model.ratio(r.table[block[-width:]], delta)
        require(positive_integer(q), "r/delta at %s is not in N", block)
        multiples[block] = int(q)
        require(seen == set(range(int(q))), "levels of %s are not 0..%d", block, int(q) - 1)
    require(report["vertices"] == sum(multiples.values()), "vertex count %s, sum of r/delta %d",
            report["vertices"], sum(multiples.values()))
    transitions = len(graph.words(length + 1))
    require(len(pairs) == sum(m - 1 for m in multiples.values()) + transitions,
            "edge count %d", len(pairs))
    for a, b in pairs:
        (ba, la), (bb, lb) = a.rsplit("@", 1), b.rsplit("@", 1)
        climb = ba == bb and int(lb) == int(la) + 1
        jump = int(la) == multiples[ba] - 1 and lb == "0" and ba[1:] == bb[:-1]
        require(climb or jump, "edge %s -> %s is neither a climb nor a return", a, b)


def check_mixing_rejected(op, res, state):
    require(res.rc == 2 and "mixing" in res.stderr, "exit %s: %s", res.rc, res.stderr.strip())


# -- simulate ------------------------------------------------------------------


class Member:
    """Symbols of one start point: a periodic word, or a harmonic witness
    ...(10) 011 0^n 1 (10)... with the core starting at index 0."""

    def __init__(self, e: dict, index: int):
        if e["family"] == "periodic":
            self.core, self.tail, self.left = "", e["word"], e["word"]
        else:
            self.core, self.tail, self.left = "011" + "0" * (index + 1) + "1", "10", "10"

    def __getitem__(self, i: int) -> str:
        if i < 0:
            return self.left[i % len(self.left)]
        if i < len(self.core):
            return self.core[i]
        return self.tail[(i - len(self.core)) % len(self.tail)]


def roof_value(e: dict, x: Member, j: int, floats_by_window: dict) -> float:
    if e["roof"] == "harmonic":
        if x[j] == "1":
            return 1.0
        rho = 1
        while x[j + rho] == "0":
            rho += 1
        return 1.0 + 1.0 / (1.0 + rho)
    window = "".join(x[j + d] for d in range(-e["past"], e["future"] + 1))
    return floats_by_window[window]


def first_hits(e: dict, index: int, wanted: int, floats_by_window: dict) -> list[float]:
    x = Member(e, index)
    n_max = int(e["horizon"] / e["floor"]) + 2
    start = len(x.core) if e["family"] != "periodic" else 0
    target = e["target"]
    hits, total = [], 0.0
    for j in range(n_max + 1):
        if total > e["horizon"] or len(hits) == wanted:
            break
        if j >= start and all(x[j + d] == c for d, c in enumerate(target)):
            hits.append(total)
        total += roof_value(e, x, j, floats_by_window)
    return hits


def check_simulate(op, res, state):
    e = op.expect
    require(res.rc == 0, "exit %s: %s", res.rc, res.stderr.strip())
    report = json.loads(res.stdout)
    rows = Path(res.outdir, "series.csv").read_text().split("\n")[1:-1]
    times = [float(row.split(",")[0]) for row in rows]
    residues = [float(row.split(",")[1]) for row in rows]
    require(report["hits"] == len(times) >= 10, "hits %s, rows %d", report["hits"], len(times))
    require(all(a < b for a, b in zip(times, times[1:])), "hitting times not increasing")
    require(times[-1] <= e["horizon"], "hit after the horizon")
    floats_by_window = {}
    if e["roof"] == "table":
        floats_by_window = {w: model.approx(model.parse_value(v, e["names"]), e["floats"])
                            for w, v in e["table"].items()}
    period = Member(dict(e, family="periodic"), 0)
    omega = math.fsum(roof_value(e, period, j, floats_by_window) for j in range(len(e["word"])))
    require(math.isclose(report["omega"], omega, rel_tol=1e-12), "omega %s, expected %s",
            report["omega"], omega)
    for t, res_t in zip(times, residues):
        gap = abs(math.fmod(t, omega) - res_t)  # residues are circular: 0 and omega meet
        require(min(gap, omega - gap) <= 1e-9 * max(1.0, t), "residue of %s", t)
    recorded = set(times)
    wanted = min(5, e["max_hits"] or 5)
    for index in e["sample"]:
        for t in first_hits(e, index, wanted, floats_by_window):
            require(t in recorded or any(math.isclose(t, u, rel_tol=1e-9) for u in times),
                    "member %d: hit at %r missing", index, t)


CHECKS = {
    "scan": check_scan,
    "examples": check_examples,
    "sft_decide": check_sft_decide,
    "cohomology_test": check_cohomology_test,
    "normalize": check_normalize,
    "section": check_section,
    "mixing_rejected": check_mixing_rejected,
    "simulate": check_simulate,
}


def check(op, res, state) -> str | None:
    """None if ``res`` is a correct outcome of ``op``, else the reason."""
    if res.error:
        return res.error
    try:
        CHECKS[op.check](op, res, state)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, ValueError, IndexError, StopIteration, OSError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
    return None
