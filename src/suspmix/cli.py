"""Command-line interface.

Subcommands: ``decide`` (mixing verdict with exit code), ``cohomology``
(transfer functions, grid normalization, unit cross-sections),
``simulate`` (hitting times and residue diagnostics), ``beta``
(expansion and graph presentation reports), and ``examples`` (checks
the golden ``[expect ...]`` sections of a built-in preset).

Exit codes for ``decide``: 0 = TopMixing, 10 = NotTopMixing,
11 = NotMixingUpToBound, 20 = Unknown.  Other commands return 0 on
success, 1 on failed golden assertions, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from suspmix import __version__
from suspmix.decider import (
    HypothesisError,
    MixingVerdict,
    are_cohomologous,
    decide_mixing_sft,
    decide_mixing_synchronized,
    normalize_to_delta_grid,
    normalizing_blocks,
    section_blocks,
    unit_cross_section,
)
from suspmix.exact import AmbiguousSignError, QVector, RealBasis, parse_qvector
from suspmix.roofs import LocallyConstantRoof, MissingWindowError, birkhoff_sum, example_roof_harmonic
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Word,
    base_period,
    full_shift,
    is_transitive,
    sft_from_forbidden_words,
)
from suspmix.special import (
    BetaShift,
    CodedGenerator,
    QuadraticReal,
    balanced_oracle,
    build_beta_graph,
    decide_mixing_beta,
    is_beta_admissible,
    two_orbit_oracle,
)

EXIT_BY_VERDICT = {"TopMixing": 0, "NotTopMixing": 10, "NotMixingUpToBound": 11, "Unknown": 20}


# -- configuration ----------------------------------------------------------


@dataclass
class SystemConfig:
    """Parsed system definition: shift, basis, roof(s), and options.

    The textual format is line-oriented with ``[shift]``, ``[basis]``,
    ``[roof]``, optional ``[roof2]``, and ``[options]`` sections; parse
    and render round-trip exactly.
    """

    shift_kind: str = "full"
    alphabet_size: int = 2
    forbidden: tuple[str, ...] = ()
    edges: tuple[tuple[str, str, int], ...] = ()
    beta_spec: str = ""
    depth: int = 0
    generators: str = ""
    constants: tuple[tuple[str, str], ...] = ()
    roof_name: str = ""
    roof_past: int = 0
    roof_future: int = 0
    roof_table: tuple[tuple[str, str], ...] = ()
    roof2_table: tuple[tuple[str, str], ...] = ()
    options: tuple[tuple[str, str], ...] = ()
    # exact roof values by their rendered text, filled by ``normalized``
    _values: dict[str, QVector] = field(default_factory=dict, init=False, compare=False, repr=False)
    # roof windows by their text, parsed once for [roof] and [roof2]
    _words: dict[str, Word] = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def parse(cls, text: str) -> "SystemConfig":
        sections = read_sections(text)
        cfg = cls()
        if "shift" in sections:
            sec = sections["shift"]
            cfg.shift_kind = sec.get("kind", "full")
            cfg.alphabet_size = int(sec.get("alphabet", 2))
            if cfg.shift_kind in ("full", "forbidden-words", "edges") and cfg.alphabet_size > 10:
                raise ValueError("alphabet %d is above 10: windows spell each symbol as one digit"
                                 % cfg.alphabet_size)
            cfg.forbidden = tuple(sec.get("forbidden", "").split())
            cfg.beta_spec = sec.get("beta", "")
            cfg.depth = int(sec.get("depth", 0))
            cfg.generators = sec.get("generators", "")
            edges = []
            for item in filter(None, (s.strip() for s in sec.get("edges", "").split(","))):
                src, tgt, label = item.split()
                edges.append((src, tgt, int(label)))
            cfg.edges = tuple(edges)
        if "basis" in sections:
            consts = []
            raw = sections["basis"].get("constants", "")
            for item in filter(None, (s.strip() for s in raw.split(","))):
                name, value = item.split()
                consts.append((name, value))
            cfg.constants = tuple(consts)
        for section, attr in (("roof", "roof_table"), ("roof2", "roof2_table")):
            if section in sections:
                sec = sections[section]
                if section == "roof":
                    cfg.roof_name = sec.get("name", "")
                    cfg.roof_past = int(sec.get("past", 0))
                    cfg.roof_future = int(sec.get("future", 0))
                table = tuple(
                    (key, value)
                    for key, value in sec.items()
                    if key not in ("name", "past", "future")
                )
                setattr(cfg, attr, table)
        if "options" in sections:
            cfg.options = tuple(sorted(sections["options"].items()))
        return cfg.normalized()

    def normalized(self) -> "SystemConfig":
        """Re-render every exact value so equality is syntax-independent.

        Each parsed value is kept under its rendered text, so building the
        roofs parses nothing again, and each distinct text is parsed once.
        """
        basis = self.basis()
        keys: dict[str, str] = {}

        def render(text: str) -> str:
            key = keys.get(text)
            if key is None:
                value = parse_qvector(text, basis)
                key = keys[text] = value.render()
                self._values[key] = value
            return key

        self.roof_table = tuple((w, render(v)) for w, v in self.roof_table)
        self.roof2_table = tuple((w, render(v)) for w, v in self.roof2_table)
        return self

    @classmethod
    def from_file(cls, path) -> "SystemConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError("cannot read config %s: %s" % (path, exc.strerror)) from exc
        return cls.parse(text)

    def render(self) -> str:
        out = io.StringIO()
        out.write("[shift]\nkind = %s\n" % self.shift_kind)
        if self.shift_kind in ("full", "forbidden-words", "edges"):
            out.write("alphabet = %d\n" % self.alphabet_size)
        if self.forbidden:
            out.write("forbidden = %s\n" % " ".join(self.forbidden))
        if self.edges:
            rendered = ", ".join("%s %s %d" % e for e in self.edges)
            out.write("edges = %s\n" % rendered)
        if self.beta_spec:
            out.write("beta = %s\n" % self.beta_spec)
        if self.depth:
            out.write("depth = %d\n" % self.depth)
        if self.generators:
            out.write("generators = %s\n" % self.generators)
        if self.constants:
            rendered = ", ".join("%s %s" % c for c in self.constants)
            out.write("\n[basis]\nconstants = %s\n" % rendered)
        out.write("\n[roof]\n")
        if self.roof_name:
            out.write("name = %s\n" % self.roof_name)
        else:
            out.write("past = %d\nfuture = %d\n" % (self.roof_past, self.roof_future))
            for w, v in self.roof_table:
                out.write("%s = %s\n" % (w, v))
        if self.roof2_table:
            out.write("\n[roof2]\n")
            for w, v in self.roof2_table:
                out.write("%s = %s\n" % (w, v))
        if self.options:
            out.write("\n[options]\n")
            for k, v in self.options:
                out.write("%s = %s\n" % (k, v))
        return out.getvalue()

    # -- derived objects ----------------------------------------------------

    def basis(self) -> RealBasis:
        if not self.constants:
            return RealBasis.rational()
        return RealBasis.with_constants(
            *((name, float(value)) for name, value in self.constants)
        )

    def roof(self):
        table = self.table_roof()
        return example_roof_harmonic() if table is None else table

    def table_roof(self) -> Optional[LocallyConstantRoof]:
        """The table roof; None for the named roof, which is not locally
        constant and is not built here."""
        if self.roof_name == "harmonic":
            return None
        if self.roof_name:
            raise ValueError("unknown named roof %r" % self.roof_name)
        return LocallyConstantRoof(self.roof_past, self.roof_future, self._table(self.roof_table))

    def roof2(self) -> Optional[LocallyConstantRoof]:
        if not self.roof2_table:
            return None
        return LocallyConstantRoof(self.roof_past, self.roof_future, self._table(self.roof2_table))

    def _table(self, rows: tuple[tuple[str, str], ...]) -> dict[Word, QVector]:
        words = self._words
        for w, _ in rows:
            if w not in words:
                words[w] = Word.parse(w)
        return {words[w]: self._values[v] for w, v in rows}

    def option(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return dict(self.options).get(key, default)

    def build_shift(self):
        """The base system as (kind, object)."""
        kind = self.shift_kind
        if kind == "full":
            return "sft", full_shift(Alphabet.of_size(self.alphabet_size))
        if kind == "forbidden-words":
            words = [Word.parse(w) for w in self.forbidden]
            return "sft", sft_from_forbidden_words(Alphabet.of_size(self.alphabet_size), words)
        if kind == "edges":
            vertices = sorted({v for s, t, _ in self.edges for v in (s, t)})
            return "sft", EdgeShift(vertices, list(self.edges), Alphabet.of_size(self.alphabet_size))
        if kind == "beta":
            return "beta", BetaShift.create(parse_beta_spec(self.beta_spec))
        if kind == "coded":
            if self.generators != "balanced-23":
                raise ValueError("only the balanced-23 generator family is built in")
            return "coded", CodedGenerator.balanced_23()
        if kind == "two-orbit":
            return "two-orbit", None
        raise ValueError("unknown shift kind %r" % kind)


def read_sections(text: str) -> dict[str, dict[str, str]]:
    """The ``[name]`` sections of a config text, each as key -> value.

    Reads what the standard library's INI parser reads without ``%``
    interpolation and with case-kept keys.  Lines end at ``\\n``.  A line
    whose first non-blank character is ``#`` or ``;`` is a comment.  A
    header's name is the text up to the last ``]``.  A key ends at the first
    ``=`` or ``:``, and key and value are stripped.  A line indented deeper
    than its key line goes on with that key's value, after a ``\\n``; blank
    lines inside a value are kept, trailing ones dropped.  ``[DEFAULT]``,
    which may repeat, gives its keys to every other section, after that
    section's own keys, which win.

    Raises ValueError, naming the line, on a key before any section, a line
    with no delimiter or an empty key, a repeated section or a repeated key.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    defaults: dict[str, list[str]] = {}
    current = key = None
    indent = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            if key is not None:
                current[key].append("")
            continue
        first = stripped[0]
        if first == "#" or first == ";":
            continue
        depth = line.find(first)
        if key is not None and depth > indent:
            current[key].append(stripped)
            continue
        indent = depth
        close = stripped.rfind("]") if first == "[" else -1
        if close > 1:
            name, key = stripped[1:close], None
            if name in sections:
                raise _parse_error(lineno, "section [%s] repeated" % name)
            current = defaults if name == "DEFAULT" else sections.setdefault(name, {})
            continue
        if current is None:
            raise _parse_error(lineno, "%r comes before any [section]" % stripped)
        cut, colon = stripped.find("="), stripped.find(":")
        if colon >= 0 and not 0 <= cut < colon:
            cut = colon
        key = stripped[:cut].rstrip()
        if cut < 0 or not key:
            raise _parse_error(lineno, "%r is not key = value" % stripped)
        if key in current:
            raise _parse_error(lineno, "key %r repeated in its section" % key)
        current[key] = [stripped[cut + 1:].strip()]
    shared = {k: "\n".join(v).rstrip() for k, v in defaults.items()}
    return {
        name: {**{k: "\n".join(v).rstrip() for k, v in own.items()},
               **{k: v for k, v in shared.items() if k not in own}}
        for name, own in sections.items()
    }


def _parse_error(lineno: int, what: str) -> ValueError:
    return ValueError("config parse error: line %d: %s" % (lineno, what))


def parse_beta_spec(text: str):
    """Parse "rational p/q" (a Fraction) or "quadratic a b d" (a + b*sqrt(d)).

    Both are exact; a decimal beta such as 3.7 is "rational 37/10".
    """
    parts = text.split()
    try:
        if parts[:1] == ["rational"] and len(parts) == 2:
            return Fraction(parts[1])
        if parts[:1] == ["quadratic"] and len(parts) == 4:
            return QuadraticReal(Fraction(parts[1]), Fraction(parts[2]), int(parts[3]))
    except ZeroDivisionError:
        raise ValueError("zero denominator in beta descriptor %r" % text) from None
    raise ValueError('malformed beta descriptor %r: use "rational p/q" or "quadratic a b d"' % text)


# -- reports ----------------------------------------------------------------


def make_report(command: str, config: SystemConfig, **body) -> dict:
    sha = hashlib.sha256(config.render().encode()).hexdigest()
    return {"command": command, **body, "provenance": {"version": __version__, "config_sha256": sha}}


def emit(report: dict, args, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def rendered(function) -> dict[str, str]:
    """A table roof or transfer function as window text -> value text."""
    by_text = {str(w): v for w, v in function.table.items()}
    return {w: by_text[w].render() for w in sorted(by_text)}


# -- commands ---------------------------------------------------------------
#
# Each ``cmd_*`` takes the loaded config and the parsed arguments and
# returns (exit code, report body, human-readable lines); it raises
# ``ValueError`` for a usage or input error.


def run_decide(config: SystemConfig, bound: int) -> MixingVerdict:
    kind, base = config.build_shift()
    roof = config.table_roof()
    if roof is None:
        return MixingVerdict("Unknown", reason="roof is not locally constant")
    try:
        if kind == "sft":
            return decide_mixing_sft(base, roof)
        if kind == "beta":
            return decide_mixing_beta(base, roof, config.depth or 2, bound)
        if kind == "coded":
            return decide_mixing_synchronized(balanced_oracle(), Word([0]), roof, bound)
        # "two-orbit", the last kind that build_shift returns
        return decide_mixing_synchronized(two_orbit_oracle(), Word([1]), roof, bound)
    except HypothesisError as exc:
        return MixingVerdict("Unknown", reason=str(exc))


def period_bound(config: SystemConfig, args) -> int:
    """``--bound`` when it is given, else the config's ``bound`` (default 12)."""
    bound = int(config.option("bound", "12")) if args.bound is None else args.bound
    if bound < 1:
        raise ValueError("period bound must be at least 1, got %d" % bound)
    return bound


def cmd_decide(config: SystemConfig, args):
    verdict = run_decide(config, period_bound(config, args))
    lines = ["verdict: %s" % verdict.kind]
    if verdict.delta is not None:
        lines.append("delta: %s" % verdict.delta.render())
    if verdict.reason:
        lines.append("reason: %s" % verdict.reason)
    return EXIT_BY_VERDICT[verdict.kind], {"verdict": verdict.to_record()}, lines


def cmd_cohomology(config: SystemConfig, args):
    mode = args.mode or config.option("mode", "test")
    if mode not in ("test", "normalize", "section"):
        raise ValueError("unknown mode %r" % mode)
    kind, base = config.build_shift()
    if kind != "sft":
        raise ValueError("cohomology commands need a finite-type base")
    roof = config.table_roof()
    # read in every mode, so that a malformed bound is always reported
    bound = period_bound(config, args)
    if mode == "test":
        if roof is None:
            raise ValueError("cohomology --mode test needs a locally constant (table) roof")
        result = are_cohomologous(roof, config.roof2() or roof, base)
        body = {"mode": mode, "cohomologous": result.cohomologous}
        lines = ["cohomologous: %s" % result.cohomologous]
        if result.transfer is not None:
            body["transfer"] = rendered(result.transfer)
            lines += ["g[%s] = %s" % kv for kv in body["transfer"].items()]
        if result.witness_orbit is not None:
            body["witness_orbit"] = str(result.witness_orbit.right_period)
            lines.append("witness orbit: %s" % body["witness_orbit"])
        return 0, body, lines
    blocks, delta = grid_delta(config, base, roof, mode, bound)
    if mode == "normalize":
        norm = normalize_to_delta_grid(base, roof, delta, blocks)
        s_table, g_table = rendered(norm.roof), rendered(norm.transfer)
        lines = ["delta: %s" % delta.render()]
        lines += ["s[%s] = %s" % kv for kv in s_table.items()]
        lines += ["g[%s] = %s" % kv for kv in g_table.items()]
        return 0, {"mode": mode, "delta": delta.render(), "s": s_table, "g": g_table}, lines
    section = unit_cross_section(base, roof, delta, blocks)
    edge_list = sorted("%s -> %s" % (section.texts[s], section.texts[t])
                       for s, t in zip(section.sources, section.targets))
    period = base_period(section)
    lines = ["vertices: %d" % len(section.vertices), "edges: %d" % len(edge_list)]
    lines += edge_list + ["base period: %d" % period]
    body = {"mode": mode, "vertices": len(section.vertices), "edges": edge_list, "base_period": period}
    return 0, body, lines


def grid_delta(config: SystemConfig, base: EdgeShift, roof, mode: str, bound: int):
    """The presentation that ``mode`` works on, and the delta of its cycle values.

    Returns (blocks, delta).  When there is no table roof, the base is not
    transitive, or no block length names every vertex (a sofic base),
    blocks is None and the decision gives delta or names why there is none.
    """
    blocks = None
    if roof is not None and is_transitive(base):
        build = normalizing_blocks if mode == "normalize" else section_blocks
        with contextlib.suppress(HypothesisError):  # no symbol-named presentation
            blocks = build(base, roof)
    if blocks is not None:
        delta = blocks.delta()
    else:
        verdict = run_decide(config, bound)
        if verdict.kind != "TopMixing" and verdict.delta is None:
            raise ValueError("no delta-grid: the verdict is %s (%s)" % (verdict.kind, verdict.reason))
        delta = verdict.delta
    if delta is None:
        raise ValueError("the flow is topologically mixing; no delta-grid exists")
    return blocks, delta


def build_family(config: SystemConfig):
    """Witness family and reference-period word from the config options."""
    spec = config.option("family", "")
    if spec == "harmonic-witness":
        return harmonic_witnesses(int(config.option("m_max", "500"))), Word.parse("10"), True
    if not spec:
        raise ValueError("options.family must name a periodic word or harmonic-witness")
    word = Word.parse(spec)
    if config.roof_name == "harmonic" and not set(word) <= {0, 1}:
        raise ValueError("the harmonic roof is defined on the full 2-shift; family %s has other symbols" % word)
    return [EventuallyPeriodicPoint.periodic(word)], word, False


def harmonic_witnesses(m_max: int):
    """Example 4.2's witnesses ...1010 011 0^m 1 1010..., origin at 011, m <= m_max."""
    from suspmix.simulate import witness_family

    u, v = Word.parse("01"), Word.parse("10")
    return witness_family(
        None, v, u + Word.parse("1"), Word.parse("0"), Word.parse("1"), v,
        range(1, m_max + 1), [1],
    )


def cmd_simulate(config: SystemConfig, args):
    # imported here, not at the top, so that the exact commands never load numpy
    from suspmix.simulate import (
        SuspensionPoint, density_diagnostic, export_series, hitting_times, orbit_period,
    )

    roof = config.roof()
    target = Word.parse(args.target if args.target is not None else config.option("target", "0"))
    horizon = args.horizon if args.horizon is not None else float(config.option("horizon", "100"))
    epsilon = float(config.option("epsilon", "0.1"))
    family, period_word, tail_only = build_family(config)
    members = [SuspensionPoint(x) for x in family]
    omega = orbit_period(roof, period_word)
    series = hitting_times(
        members, target, epsilon, roof, horizon, omega=omega,
        max_hits_per_member=int(config.option("max_hits", "0")) or None,
        tail_only=tail_only,
    )
    if len(series.times) < 10:
        raise ValueError("only %d hits within horizon %g; raise --horizon" % (len(series.times), horizon))
    candidate = config.option("delta")
    diag = density_diagnostic(series, candidate_delta=float(candidate) if candidate else None)
    body = {
        "hits": len(series.times),
        "omega": series.omega,
        "max_gap": diag.max_gap,
        "grid_fraction": diag.grid_fraction,
        "suggested_verdict": diag.verdict,
        "note": diag.note,
    }
    lines = [
        "hits: %d" % len(series.times),
        "omega: %.17g" % series.omega,
        "max gap: %.17g" % diag.max_gap,
        "suggested verdict: %s" % diag.verdict,
    ]
    if diag.grid_fraction is not None:
        lines.insert(3, "grid fraction: %.17g" % diag.grid_fraction)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_series(series, out_dir / "series.csv")
        export_series(diag, out_dir / "diagnostic.csv")
    return 0, body, lines


def cmd_beta(config: SystemConfig, args):
    if config.shift_kind != "beta":
        raise ValueError("beta command needs shift kind 'beta'")
    shift = BetaShift.create(parse_beta_spec(config.beta_spec))
    graph = build_beta_graph(shift, config.depth or 2)
    prefix = "".join(str(d) for d in shift.nu[:16])
    checks = {w: is_beta_admissible(Word.parse(w), shift) for w in ("0", "00", "11", "0101")}
    body = {
        "nu_prefix": prefix,
        "exact_tail": shift.exact_tail,
        "graph_vertices": len(graph.vertices),
        "graph_edges": len(graph.edges),
        "admissibility": checks,
    }
    lines = [
        "nu prefix: %s" % prefix,
        "exact tail: %s" % shift.exact_tail,
        "graph: %d vertices, %d edges" % (len(graph.vertices), len(graph.edges)),
    ] + ["admissible %s: %s" % kv for kv in checks.items()]
    return 0, body, lines


# -- examples ---------------------------------------------------------------
#
# A preset's golden facts are ``[expect ARGV]`` sections: each key is a
# dotted path into the ``--json`` report of ``suspmix ARGV`` run on the
# preset, or ``exit`` for its exit code, and each value is JSON.
# ``SystemConfig.parse`` ignores these sections.

PRESETS = {
    "example-4.1": """\
[shift]
kind = full
alphabet = 2

[roof]
past = 0
future = 0
0 = 2
1 = 3

[roof2]
0 = 5/2
1 = 5/2

[options]
bound = 12
delta = 1
epsilon = 0.25
family = 0
horizon = 40
target = 0

[expect decide]
exit = 10
verdict.verdict = "NotTopMixing"
verdict.delta = "1"

[expect cohomology --mode test]
cohomologous = false
witness_orbit = "0"

[expect cohomology --mode normalize]
delta = "1"
s = {"00": "2", "01": "3", "10": "2", "11": "3"}

[expect cohomology --mode section]
vertices = 5
edges = ["0@0 -> 0@1", "0@1 -> 0@0", "0@1 -> 1@0", "1@0 -> 1@1",
    "1@1 -> 1@2", "1@2 -> 0@0", "1@2 -> 1@0"]
base_period = 1
""",
    "example-4.2": """\
[shift]
kind = full
alphabet = 2

[roof]
name = harmonic

[options]
epsilon = 0.01
family = harmonic-witness
horizon = 10000
m_max = 5000
max_hits = 1
target = 10

[expect decide]
exit = 20
verdict.verdict = "Unknown"
verdict.reason = "roof is not locally constant"
""",
    "example-4.3": """\
[shift]
kind = coded
generators = balanced-23

[basis]
constants = a 1.4142135623730951, b 2.7182818284590451

[roof]
past = 0
future = 0
0 = a + b
1 = a + b
2 = a
3 = b

[options]
bound = 10

[expect decide]
exit = 11
verdict.verdict = "NotMixingUpToBound"
verdict.delta = "a + b"
verdict.bound = 10
""",
    "two-orbit": """\
[shift]
kind = two-orbit

[basis]
constants = alpha 1.6180339887498949

[roof]
past = 0
future = 0
0 = 1
1 = alpha

[options]
bound = 12

[expect decide]
exit = 0
verdict.verdict = "TopMixing"
verdict.witness_orbits = ["1", "10"]
""",
    "golden-beta": """\
[shift]
kind = beta
beta = quadratic 1/2 1/2 5
depth = 2

[basis]
constants = alpha 1.6180339887498949

[roof]
past = 0
future = 0
0 = 1
1 = alpha

[options]
bound = 6

[expect decide]
exit = 0
verdict.verdict = "TopMixing"

[expect beta]
nu_prefix = "1100000000000000"
graph_vertices = 2
graph_edges = 3
admissibility = {"0": true, "00": true, "0101": true, "11": false}
""",
    "constant-roof": """\
[shift]
kind = full
alphabet = 2

[roof]
past = 0
future = 0
0 = 5/2
1 = 5/2

[options]
epsilon = 0.1
family = 1
horizon = 50
target = 1
""",
}


def expectations(text: str) -> list[tuple[list[str], dict]]:
    """The ``[expect ARGV]`` sections of a config: (ARGV, expected fields)."""
    return [
        (section.split()[1:], {key: json.loads(value) for key, value in items.items()})
        for section, items in read_sections(text).items()
        if section.startswith("expect ")
    ]


def example_preset(name: str) -> str:
    """The preset that ``examples NAME`` checks, among those with expectations."""
    names = {p.removeprefix("example-"): p for p, text in PRESETS.items() if expectations(text)}
    return lookup_preset(name, names)


def report_field(report: dict, path: str):
    for key in path.split("."):
        report = report.get(key) if isinstance(report, dict) else None
    return report


def check_harmonic_witness(lines: list[str]) -> bool:
    """Example 4.2's facts that no report states, as its roof is not locally
    constant: the witnesses' Birkhoff sums follow the harmonic formula, and
    their hitting-time residues leave no gap of 0.2 (the flow mixes)."""
    from suspmix.simulate import SuspensionPoint, density_diagnostic, hitting_times, orbit_period

    roof = example_roof_harmonic()
    u, v = Word.parse("01"), Word.parse("10")
    w, zero, one = u + Word.parse("1"), Word([0]), Word([1])
    formula_ok = True
    for m in range(1, 9):
        for n in range(1, 9):
            x = EventuallyPeriodicPoint.from_runs(v, ((w, 1), (zero, m), (one, n)), v)
            start = birkhoff_sum(roof, x, len(u) + 1)
            expected = start + m + n + sum(1.0 / j for j in range(2, m + 2))
            got = birkhoff_sum(roof, x, len(u) + 1 + m + n)
            formula_ok &= abs(got - expected) < 1e-9
    series = hitting_times(
        [SuspensionPoint(x) for x in harmonic_witnesses(300)], v, 0.05, roof, 700.0,
        omega=orbit_period(roof, v), max_hits_per_member=1, tail_only=True,
    )
    gap_ok = density_diagnostic(series).max_gap < 0.2
    lines.append("witness Birkhoff formula (m, n <= 8): %s" % ("pass" if formula_ok else "FAIL"))
    lines.append("residue max gap < 0.2 at m <= 300: %s" % ("pass" if gap_ok else "FAIL"))
    return formula_ok and gap_ok


def cmd_examples(config: SystemConfig, args):
    preset = example_preset(args.name)
    lines: list[str] = []
    ok = True
    for argv, fields in expectations(PRESETS[preset]):
        sub = build_parser().parse_args(argv)
        code, report, _ = run_command(config, sub)
        report = json.loads(json.dumps(report))  # compare as JSON values: tuples are lists
        for key, want in fields.items():
            got = code if key == "exit" else report_field(report, key)
            verdict = "pass" if got == want else "FAIL, got %s" % json.dumps(got)
            lines.append("%s: %s = %s: %s" % (" ".join(argv), key, json.dumps(want), verdict))
            ok &= got == want
    if preset == "example-4.2":
        ok &= check_harmonic_witness(lines)
    body = {"name": args.name, "passed": ok, "checks": lines}
    return (0 if ok else 1), body, lines + ["result: %s" % ("pass" if ok else "FAIL")]


# -- entry point ------------------------------------------------------------


def lookup_preset(name: str, presets: dict):
    if name not in presets:
        raise ValueError("unknown preset %r; available: %s" % (name, ", ".join(sorted(presets))))
    return presets[name]


def load_config(args) -> SystemConfig:
    if args.command == "examples":
        return SystemConfig.parse(PRESETS[example_preset(args.name)])
    if args.preset:
        return SystemConfig.parse(lookup_preset(args.preset, PRESETS))
    if args.config:
        return SystemConfig.from_file(args.config)
    raise ValueError("either --config or --preset is required")


def run_command(config: SystemConfig, args) -> tuple[int, dict, list[str]]:
    """One subcommand on a loaded config: (exit code, report, human lines)."""
    code, body, lines = args.func(config, args)
    return code, make_report(args.command, config, **body), lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state in it, so every call may reuse it."""
    parser = argparse.ArgumentParser(
        prog="suspmix",
        description="Decide and explore topological mixing of suspension flows over shift spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", help="directory for report and CSV output")
        p.add_argument("--json", action="store_true", help="print a JSON report")

    def common(p):
        p.add_argument("--config", help="path to a system config file")
        p.add_argument("--preset", help="name of a built-in preset")
        p.add_argument("--bound", type=int, help="period bound for orbit scans")
        p.add_argument("--horizon", type=float, help="time horizon for simulation")
        output(p)

    p = sub.add_parser("decide", help="mixing verdict with exit code")
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("cohomology", help="transfer functions and cross-sections")
    common(p)
    p.add_argument("--mode", choices=["test", "normalize", "section"])
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("simulate", help="hitting times and residue diagnostics")
    common(p)
    p.add_argument("--target", help="target cylinder word")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("beta", help="beta-expansion and graph report")
    common(p)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("examples", help="run a built-in example's golden assertions")
    output(p)
    p.add_argument("name", help="4.1 | 4.2 | 4.3 | two-orbit | golden-beta")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report, lines = run_command(load_config(args), args)
    except (ValueError, MissingWindowError, AmbiguousSignError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    emit(report, args, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
