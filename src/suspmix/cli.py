"""Command-line interface.

Subcommands: ``decide`` (mixing verdict with exit code), ``cohomology``
(transfer functions, grid normalization, unit cross-sections),
``simulate`` (hitting times and residue diagnostics), ``beta``
(expansion and graph presentation reports), and ``examples`` (built-in
presets with their golden assertions).

Exit codes for ``decide``: 0 = TopMixing, 10 = NotTopMixing,
11 = NotMixingUpToBound, 20 = Unknown.  Other commands return 0 on
success, 1 on failed golden assertions, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
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
    unit_cross_section,
)
from suspmix.exact import QVector, RealBasis, parse_qvector
from suspmix.roofs import LocallyConstantRoof, birkhoff_sum, example_roof_harmonic
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
    base_period,
    full_shift,
    sft_from_forbidden_words,
)
from suspmix.simulate import (
    SuspensionPoint,
    density_diagnostic,
    export_series,
    hitting_times,
    orbit_period,
    witness_family,
)
from suspmix.special import (
    BetaShift,
    CodedGenerator,
    QuadraticReal,
    _GuardedFloat,
    balanced_oracle,
    build_beta_graph,
    coded_periodic_in_cylinder,
    decide_mixing_beta,
    is_beta_admissible,
    two_orbit_oracle,
    two_orbit_periodic_words,
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

    @classmethod
    def parse(cls, text: str) -> "SystemConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValueError("config parse error: %s" % exc) from exc
        cfg = cls()
        if parser.has_section("shift"):
            sec = parser["shift"]
            cfg.shift_kind = sec.get("kind", "full")
            cfg.alphabet_size = sec.getint("alphabet", 2)
            cfg.forbidden = tuple(sec.get("forbidden", "").split())
            cfg.beta_spec = sec.get("beta", "")
            cfg.depth = sec.getint("depth", 0)
            cfg.generators = sec.get("generators", "")
            edges = []
            for item in filter(None, (s.strip() for s in sec.get("edges", "").split(","))):
                src, tgt, label = item.split()
                edges.append((src, tgt, int(label)))
            cfg.edges = tuple(edges)
        if parser.has_section("basis"):
            consts = []
            raw = parser["basis"].get("constants", "")
            for item in filter(None, (s.strip() for s in raw.split(","))):
                name, value = item.split()
                consts.append((name, value))
            cfg.constants = tuple(consts)
        for section, attr in (("roof", "roof_table"), ("roof2", "roof2_table")):
            if parser.has_section(section):
                sec = parser[section]
                if section == "roof":
                    cfg.roof_name = sec.get("name", "")
                    cfg.roof_past = sec.getint("past", 0)
                    cfg.roof_future = sec.getint("future", 0)
                table = tuple(
                    (key, sec[key])
                    for key in sec
                    if key not in ("name", "past", "future")
                )
                setattr(cfg, attr, table)
        if parser.has_section("options"):
            cfg.options = tuple(sorted(parser["options"].items()))
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
        return cls.parse(Path(path).read_text())

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
        if self.roof_name == "harmonic":
            return example_roof_harmonic()
        if self.roof_name:
            raise ValueError("unknown named roof %r" % self.roof_name)
        return LocallyConstantRoof(self.roof_past, self.roof_future, self._table(self.roof_table))

    def roof2(self) -> Optional[LocallyConstantRoof]:
        if not self.roof2_table:
            return None
        return LocallyConstantRoof(self.roof_past, self.roof_future, self._table(self.roof2_table))

    def _table(self, rows: tuple[tuple[str, str], ...]) -> dict[Word, QVector]:
        basis, values = self.basis(), self._values
        return {
            Word.parse(w): values[v] if v in values else parse_qvector(v, basis)
            for w, v in rows
        }

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


def parse_beta_spec(text: str):
    """Parse "rational p/q", "quadratic a b d", or "float x guard g"."""
    parts = text.split()
    if not parts:
        raise ValueError("empty beta descriptor")
    if parts[0] == "rational" and len(parts) == 2:
        return Fraction(parts[1])
    if parts[0] == "quadratic" and len(parts) == 4:
        return QuadraticReal(Fraction(parts[1]), Fraction(parts[2]), int(parts[3]))
    if parts[0] == "float" and len(parts) == 4 and parts[2] == "guard":
        return _GuardedFloat(float(parts[1]), float(parts[3]))
    raise ValueError("malformed beta descriptor %r" % text)


# -- reports ----------------------------------------------------------------


def make_report(command: str, config: Optional[SystemConfig], **body) -> dict:
    report = {"command": command}
    report.update(body)
    provenance = {"version": __version__}
    if config is not None:
        provenance["config_sha256"] = hashlib.sha256(
            config.render().encode()
        ).hexdigest()
    report["provenance"] = provenance
    return report


def emit(report: dict, args, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )


# -- decide -----------------------------------------------------------------


def run_decide(config: SystemConfig, bound: int) -> MixingVerdict:
    kind, base = config.build_shift()
    roof = config.roof()
    if not isinstance(roof, LocallyConstantRoof):
        return MixingVerdict("Unknown", reason="roof is not locally constant")
    try:
        if kind == "sft":
            return decide_mixing_sft(base, roof)
        if kind == "beta":
            depth = config.depth or 2
            return decide_mixing_beta(base, roof, depth, bound)
        if kind == "coded":
            return decide_mixing_synchronized(balanced_oracle(), Word([0]), roof, bound)
        if kind == "two-orbit":
            return decide_mixing_synchronized(two_orbit_oracle(), Word([1]), roof, bound)
    except HypothesisError as exc:
        return MixingVerdict("Unknown", reason=str(exc))
    raise ValueError("no decision procedure for shift kind %r" % kind)


def cmd_decide(args) -> int:
    config = load_config(args)
    bound = args.bound or int(config.option("bound", "12"))
    verdict = run_decide(config, bound)
    report = make_report("decide", config, verdict=verdict.to_record())
    lines = ["verdict: %s" % verdict.kind]
    if verdict.delta is not None:
        lines.append("delta: %s" % verdict.delta.render())
    if verdict.reason:
        lines.append("reason: %s" % verdict.reason)
    emit(report, args, lines)
    return EXIT_BY_VERDICT[verdict.kind]


# -- cohomology -------------------------------------------------------------


def cmd_cohomology(args) -> int:
    config = load_config(args)
    mode = args.mode or config.option("mode", "test")
    kind, base = config.build_shift()
    if kind != "sft":
        print("error: cohomology commands need a finite-type base", file=sys.stderr)
        return 2
    roof = config.roof()
    if mode == "test":
        other = config.roof2() or roof
        result = are_cohomologous(roof, other, base)
        body = {"cohomologous": result.cohomologous}
        lines = ["cohomologous: %s" % result.cohomologous]
        if result.transfer is not None:
            table = {
                str(w): v.render() for w, v in sorted(
                    result.transfer.table.items(), key=lambda kv: str(kv[0])
                )
            }
            body["transfer"] = table
            lines += ["g[%s] = %s" % kv for kv in table.items()]
        if result.witness_orbit is not None:
            word = result.witness_orbit.right_period
            body["witness_orbit"] = str(word)
            lines.append("witness orbit: %s" % word)
        emit(make_report("cohomology", config, mode=mode, **body), args, lines)
        return 0
    verdict = run_decide(config, args.bound or int(config.option("bound", "12")))
    if verdict.kind == "TopMixing" or verdict.delta is None:
        print(
            "error: the flow is topologically mixing; no delta-grid exists",
            file=sys.stderr,
        )
        return 2
    if mode == "normalize":
        norm = normalize_to_delta_grid(base, roof, verdict.delta)
        g, s = norm.transfer, norm.roof
        s_table = {str(w): v.render() for w, v in sorted(s.table.items(), key=lambda kv: str(kv[0]))}
        g_table = {str(w): v.render() for w, v in sorted(g.table.items(), key=lambda kv: str(kv[0]))}
        lines = ["delta: %s" % verdict.delta.render()]
        lines += ["s[%s] = %s" % kv for kv in s_table.items()]
        lines += ["g[%s] = %s" % kv for kv in g_table.items()]
        emit(
            make_report(
                "cohomology", config, mode=mode,
                delta=verdict.delta.render(), s=s_table, g=g_table,
            ),
            args, lines,
        )
        return 0
    if mode == "section":
        section = unit_cross_section(base, roof, verdict.delta)

        def vertex_name(v):
            if isinstance(v, tuple) and len(v) == 2:
                return "%s@%s" % (v[0], v[1])
            return str(v)

        edge_list = sorted(
            "%s -> %s" % (vertex_name(e.source), vertex_name(e.target))
            for e in section.edges
        )
        lines = ["vertices: %d" % len(section.vertices),
                 "edges: %d" % len(section.edges)]
        lines += edge_list
        lines.append("base period: %d" % base_period(section))
        emit(
            make_report(
                "cohomology", config, mode=mode,
                vertices=len(section.vertices), edges=edge_list,
                base_period=base_period(section),
            ),
            args, lines,
        )
        return 0
    print("error: unknown mode %r" % mode, file=sys.stderr)
    return 2


# -- simulate ---------------------------------------------------------------


def build_family(config: SystemConfig):
    """Witness family and reference-period word from the config options."""
    spec = config.option("family", "")
    if spec == "harmonic-witness":
        u, v = Word.parse("01"), Word.parse("10")
        m_max = int(config.option("m_max", "500"))
        family = witness_family(
            None, v, u + Word.parse("1"), Word.parse("0"), Word.parse("1"), v,
            range(1, m_max + 1), [1],
        )
        return family, v, True
    if not spec:
        raise ValueError("options.family must name a periodic word or harmonic-witness")
    word = Word.parse(spec)
    return [EventuallyPeriodicPoint.periodic(word)], word, False


def cmd_simulate(args) -> int:
    config = load_config(args)
    roof = config.roof()
    target = Word.parse(args.target or config.option("target", "0"))
    horizon = args.horizon or float(config.option("horizon", "100"))
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
        print(
            "error: only %d hits within horizon %g; raise --horizon"
            % (len(series.times), horizon),
            file=sys.stderr,
        )
        return 2
    candidate = config.option("delta")
    diag = density_diagnostic(
        series, candidate_delta=float(candidate) if candidate else None
    )
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
    emit(make_report("simulate", config, **body), args, lines)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_series(series, out_dir / "series.csv")
        export_series(diag, out_dir / "diagnostic.csv")
    return 0


# -- beta -------------------------------------------------------------------


def cmd_beta(args) -> int:
    config = load_config(args)
    if config.shift_kind != "beta":
        print("error: beta command needs shift kind 'beta'", file=sys.stderr)
        return 2
    shift = BetaShift.create(parse_beta_spec(config.beta_spec))
    depth = config.depth or 2
    graph = build_beta_graph(shift, depth)
    prefix = "".join(str(d) for d in shift.nu[:16])
    checks = {}
    for text in ("0", "00", "11", "0101"):
        try:
            checks[text] = is_beta_admissible(Word.parse(text), shift)
        except Exception as exc:  # precision errors surfaced per word
            checks[text] = str(exc)
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
    emit(make_report("beta", config, **body), args, lines)
    return 0


# -- examples ---------------------------------------------------------------

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

EXAMPLE_NAMES = {"4.1": "example-4.1", "4.2": "example-4.2", "4.3": "example-4.3",
                 "two-orbit": "two-orbit", "golden-beta": "golden-beta"}


def _check(lines: list[str], label: str, ok: bool) -> bool:
    lines.append("%s: %s" % (label, "pass" if ok else "FAIL"))
    return ok


def run_example(name: str, lines: list[str]) -> bool:
    config = SystemConfig.parse(PRESETS[EXAMPLE_NAMES[name]])
    ok = True
    if name == "4.1":
        verdict = run_decide(config, 12)
        basis = RealBasis.rational()
        one = basis.from_rational(1)
        ok &= _check(lines, "verdict NotTopMixing", verdict.kind == "NotTopMixing")
        ok &= _check(lines, "delta exactly 1", verdict.delta == one)
        _kind, base = config.build_shift()
        roof = config.roof()
        s = normalize_to_delta_grid(base, roof, one).roof
        values = {v.render() for v in s.table.values()}
        ok &= _check(lines, "normalized values {2, 3}", values == {"2", "3"})
        section = unit_cross_section(base, roof, one)
        ok &= _check(
            lines, "cross-section 5 vertices / 7 edges",
            len(section.vertices) == 5 and len(section.edges) == 7,
        )
        ok &= _check(lines, "cross-section base period 1", base_period(section) == 1)
    elif name == "4.2":
        roof = example_roof_harmonic()
        u, v = Word.parse("01"), Word.parse("10")
        formula_ok = True
        for m in range(1, 9):
            for n in range(1, 9):
                core = u + Word.parse("1") + Word([0]) * m + Word([1]) * n
                x = EventuallyPeriodicPoint.from_parts(v, core, v, 0)
                start = birkhoff_sum(roof, x, len(u) + 1)
                expected = start + m + n + sum(1.0 / j for j in range(2, m + 2))
                got = birkhoff_sum(roof, x, len(u) + 1 + m + n)
                formula_ok &= abs(got - expected) < 1e-9
        ok &= _check(lines, "witness Birkhoff formula (m, n <= 8)", formula_ok)
        family = [
            SuspensionPoint(x)
            for x in witness_family(
                None, v, u + Word.parse("1"), Word.parse("0"), Word.parse("1"), v,
                range(1, 301), [1],
            )
        ]
        omega = orbit_period(roof, v)
        series = hitting_times(
            family, v, 0.05, roof, 700.0, omega=omega,
            max_hits_per_member=1, tail_only=True,
        )
        diag = density_diagnostic(series)
        ok &= _check(lines, "residue max gap < 0.2 at m <= 300", diag.max_gap < 0.2)
    elif name == "4.3":
        basis = config.basis()
        roof = config.roof()
        a_plus_b = parse_qvector("a + b", basis)
        sums_ok = True
        for p in coded_periodic_in_cylinder(CodedGenerator.balanced_23(), Word([0]), 10):
            total = birkhoff_sum(roof, p, len(p.right_period))
            ratio = total.ratio_to(a_plus_b)
            sums_ok &= ratio is not None and ratio.denominator == 1 and ratio >= 1
        ok &= _check(lines, "orbit sums in (a+b)*N", sums_ok)
        verdict = run_decide(config, 10)
        ok &= _check(
            lines, "verdict NotMixingUpToBound(a + b)",
            verdict.kind == "NotMixingUpToBound" and verdict.delta == a_plus_b,
        )
        from suspmix.exact import span_rank

        spectrum = [
            birkhoff_sum(roof, p, len(p.right_period))
            for p in [
                EventuallyPeriodicPoint.periodic(Word.parse("2")),
                EventuallyPeriodicPoint.periodic(Word.parse("3")),
            ]
        ]
        ok &= _check(lines, "global spectrum rank 2", span_rank(spectrum) == 2)
    elif name == "two-orbit":
        # one Lyndon word per orbit
        roots = {str(w) for w in two_orbit_periodic_words(12)}
        ok &= _check(lines, "periodic orbits to 12 are 1-bar and (01)-bar", roots == {"1", "01"})
        verdict = run_decide(config, 12)
        ok &= _check(lines, "incommensurable roof mixes", verdict.kind == "TopMixing")
    elif name == "golden-beta":
        shift = BetaShift.golden()
        ok &= _check(lines, "nu prefix 11000", list(shift.nu[:5]) == [1, 1, 0, 0, 0])
        graph = build_beta_graph(shift, 2)
        sft = sft_from_forbidden_words(Alphabet.of_size(2), [Word.parse("11")])
        language_ok = all(
            set(admissible_words(graph, n)) == set(admissible_words(sft, n))
            for n in range(1, 7)
        )
        ok &= _check(lines, "golden graph language = no-11 SFT (|w| <= 6)", language_ok)
        verdict = run_decide(config, 6)
        ok &= _check(lines, "roof {1, alpha} mixes", verdict.kind == "TopMixing")
    return ok


def cmd_examples(args) -> int:
    name = args.name
    if name not in EXAMPLE_NAMES:
        print(
            "error: unknown preset %r; available: %s"
            % (name, ", ".join(sorted(EXAMPLE_NAMES))),
            file=sys.stderr,
        )
        return 2
    lines: list[str] = []
    ok = run_example(name, lines)
    report = make_report(
        "examples", SystemConfig.parse(PRESETS[EXAMPLE_NAMES[name]]),
        name=name, passed=ok, checks=lines,
    )
    emit(report, args, lines + ["result: %s" % ("pass" if ok else "FAIL")])
    return 0 if ok else 1


# -- entry point ------------------------------------------------------------


def load_config(args) -> SystemConfig:
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ValueError(
                "unknown preset %r; available: %s"
                % (args.preset, ", ".join(sorted(PRESETS)))
            )
        return SystemConfig.parse(PRESETS[args.preset])
    if getattr(args, "config", None):
        return SystemConfig.from_file(args.config)
    raise ValueError("either --config or --preset is required")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suspmix",
        description="Decide and explore topological mixing of suspension flows over shift spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a system config file")
        p.add_argument("--preset", help="name of a built-in preset")
        p.add_argument("--bound", type=int, help="period bound for orbit scans")
        p.add_argument("--horizon", type=float, help="time horizon for simulation")
        p.add_argument("--out", help="directory for report and CSV output")
        p.add_argument("--json", action="store_true", help="print a JSON report")

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
    common(p)
    p.add_argument("name", help="4.1 | 4.2 | 4.3 | two-orbit | golden-beta")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
