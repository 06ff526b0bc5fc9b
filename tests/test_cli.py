import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import suspmix.cli
from suspmix.cli import PRESETS, SystemConfig, build_parser, main, parse_beta_spec, read_sections
from suspmix.special import QuadraticReal


class TestConfig:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_round_trip(self, name):
        cfg = SystemConfig.parse(PRESETS[name])
        again = SystemConfig.parse(cfg.render())
        assert again == cfg

    def test_parse_error_reported(self):
        with pytest.raises(ValueError):
            SystemConfig.parse("[shift\nkind = full\n")

    def test_expect_sections_leave_the_config_alone(self):
        # the golden sections are not part of the system, nor of its sha
        text = PRESETS["example-4.1"]
        bare = text[: text.index("\n[expect ")] + "\n"
        assert SystemConfig.parse(text).render() == SystemConfig.parse(bare).render()

    def test_beta_spec_parsing(self):
        assert parse_beta_spec("rational 3/2") == pytest.approx(1.5)
        q = parse_beta_spec("quadratic 1/2 1/2 5")
        assert isinstance(q, QuadraticReal)
        for text in ("nonsense 3", "", "float 1.8 guard 1e-9"):
            with pytest.raises(ValueError, match="^malformed beta descriptor"):
                parse_beta_spec(text)
        for text in ("rational 1/0", "quadratic 1/0 1 5", "quadratic 1 1/0 5"):
            with pytest.raises(ValueError, match="^zero denominator in beta descriptor"):
                parse_beta_spec(text)

    def test_default_keys_follow_the_section_keys(self):
        # configparser lists a section's own keys first, then [DEFAULT]'s
        cfg = SystemConfig.parse(
            "[DEFAULT]\n1 = 3\n\n[shift]\nkind = full\n\n"
            "[roof]\npast = 0\nfuture = 0\n0 = 2\n"
        )
        assert cfg.render() == (
            "[shift]\nkind = full\nalphabet = 2\n\n[roof]\npast = 0\nfuture = 0\n"
            "0 = 2\n1 = 3\n"
        )

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"INI-style:\n\n```ini\n(.*?)```", readme, re.S).group(1)
        cfg = SystemConfig.parse(block)
        assert cfg.shift_kind == "full"
        assert cfg.build_shift()[0] == "sft"
        assert float(cfg.roof().max_value()) == pytest.approx(1.6180339887498949)
        # every value the sentence after the block names is a valid roof value
        sentence = re.search(r"Roof values are .*?\(e\.g\. (.*?)\)", readme, re.S).group(1)
        values = re.findall(r"`([^`]*)`", sentence)
        assert len(values) == 3
        for value in values:
            SystemConfig.parse(block.replace("1 = alpha", "1 = " + value)).roof()


def configparser_sections(text):
    """The reference reading: configparser without interpolation, keys as written."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


names = st.sampled_from(["shift", "roof", "DEFAULT", "expect decide", " a ", "x]y"])
keys = st.sampled_from(["kind", "0", "1", "a b", "%x", "name"])
values = st.sampled_from(["", "full", "5%", "1 + 1/2*alpha", "a=b", "x:y", "[z]", "# not a comment"])
blanks = st.sampled_from(["", " ", "\t"])
indents = st.sampled_from(["", " ", "  ", "\t", "    "])
config_lines = st.one_of(
    st.builds("{}[{}]{}".format, indents, names, st.sampled_from(["", " trailing", "]"])),
    st.builds("{}{}{}{}{}{}".format, indents, keys, blanks, st.sampled_from(["=", ":"]), blanks, values),
    st.builds("{}{}{}".format, indents, st.sampled_from(["#", ";"]), values),
    blanks,
    # malformed, or a continuation where indented deeper than its key
    st.builds("{}{}".format, indents, st.sampled_from(["no delimiter", "= empty key", "[]", "[open"])),
    st.text(alphabet="ab =:#;[]%\t\r", max_size=8),
)


class TestReadSections:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["[a]", "[DEFAULT]", ""]), st.lists(config_lines, max_size=14), st.booleans())
    def test_matches_configparser(self, first, lines, final_newline):
        text = "\n".join([first] + lines) + ("\n" if final_newline else "")
        try:
            expected = configparser_sections(text)
        except configparser.Error:
            with pytest.raises(ValueError, match="^config parse error: line \\d+: "):
                read_sections(text)
        else:
            assert read_sections(text) == expected

    def test_presets_read_as_configparser_reads_them(self):
        for text in PRESETS.values():
            assert read_sections(text) == configparser_sections(text)

    def test_continuations_defaults_and_comments(self):
        text = ("[DEFAULT]\nshared = 1\n[a]\nk = one\n  two\n\n# gone\n    three\n\n\n"
                "shared = own\n[DEFAULT]\nmore = 2\n[b]\n")
        assert read_sections(text) == {
            "a": {"k": "one\ntwo\n\nthree", "shared": "own", "more": "2"},
            "b": {"shared": "1", "more": "2"},
        }


class TestReaderNeedsNoNumpy:
    def test_exact_commands_leave_numpy_unloaded(self):
        src = str(Path(suspmix.cli.__file__).resolve().parents[1])
        script = (
            "import sys, contextlib, io\n"
            "import suspmix.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['decide', '--preset', 'example-4.1'])\n"
            "    cli.main(['cohomology', '--mode', 'normalize', '--preset', 'example-4.1'])\n"
            "    cli.main(['beta', '--preset', 'golden-beta'])\n"
            "    # the harmonic roof is named, not a table: Unknown, and an error\n"
            "    assert cli.main(['decide', '--preset', 'example-4.2']) == 20\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert cli.main(['cohomology', '--mode', 'test', '--preset', 'example-4.2']) == 2\n"
            "print('numpy' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['simulate', '--preset', 'example-4.1']) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.split() == ["False", "True"]


def one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestInputErrors:
    """Bad input exits 2 with one ``error:`` line, never a traceback."""

    def test_percent_in_a_value(self, tmp_path, capsys):
        cfg = tmp_path / "pct.cfg"
        cfg.write_text("[shift]\nkind = full\nalphabet = 2\n\n[roof]\npast = 0\nfuture = 0\n0 = 5%\n1 = 2\n")
        assert main(["decide", "--config", str(cfg)]) == 2
        assert "5%" in one_error_line(capsys)

    @pytest.mark.parametrize("text, what", [
        ("kind = full\n[shift]\n", "line 1: 'kind = full' comes before any [section]"),
        ("[shift]\nkind full\n", "line 2: 'kind full' is not key = value"),
        ("[shift]\n = full\n", "line 2: '= full' is not key = value"),
        ("[shift]\nkind = full\n\n[shift]\n", "line 4: section [shift] repeated"),
        ("[shift]\nkind = full\nkind: edges\n", "line 3: key 'kind' repeated in its section"),
    ])
    def test_malformed_config(self, tmp_path, capsys, text, what):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["decide", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: config parse error: " + what

    def test_missing_config_file(self, tmp_path, capsys):
        path = str(tmp_path / "no-such.cfg")
        assert main(["decide", "--config", path]) == 2
        assert path in one_error_line(capsys)

    @pytest.mark.parametrize("argv", [["decide"], ["cohomology", "--mode", "test"],
                                      ["cohomology", "--mode", "normalize"],
                                      ["cohomology", "--mode", "section"]])
    def test_roof_table_missing_a_window(self, tmp_path, capsys, argv):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[shift]\nkind = full\nalphabet = 2\n\n[roof]\npast = 0\nfuture = 0\n0 = 1\n")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: window 1 not in roof table (inadmissible context)"

    @pytest.mark.parametrize("kind", ["full", "forbidden-words\nforbidden = 00",
                                      "edges\nedges = p p 10, p p 1"])
    def test_an_alphabet_above_ten_symbols(self, tmp_path, capsys, kind):
        # a window spells one decimal digit per symbol, so 10 and (1, 0) would read alike
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[shift]\nkind = %s\nalphabet = 11\n\n[roof]\npast = 0\nfuture = 0\n0 = 1\n"
                       % kind)
        assert main(["decide", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == (
            "error: alphabet 11 is above 10: windows spell each symbol as one digit")

    def test_a_sign_the_float_guard_cannot_certify(self, tmp_path, capsys):
        cfg = tmp_path / "ambiguous.cfg"
        cfg.write_text("[shift]\nkind = full\nalphabet = 2\n\n[basis]\n"
                       "constants = a 1.4142135623730951\n\n[roof]\npast = 0\nfuture = 0\n"
                       "0 = a - 1.4142135623730951\n1 = 1\n")
        assert main(["decide", "--config", str(cfg)]) == 2
        assert one_error_line(capsys).startswith("error: cannot certify sign of ")

    @pytest.mark.parametrize("command", ["decide", "beta"])
    def test_a_beta_digit_the_float_guard_cannot_certify(self, tmp_path, capsys, command):
        # a float beta is no longer read: the error names the exact forms
        cfg = tmp_path / "guarded.cfg"
        cfg.write_text("[shift]\nkind = beta\nbeta = float 1.6180339887498949 guard 1e-9\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == (
            "error: malformed beta descriptor 'float 1.6180339887498949 guard 1e-9': "
            'use "rational p/q" or "quadratic a b d"')

    @pytest.mark.parametrize("bound", ["0", "-3"])
    @pytest.mark.parametrize("argv", [["decide", "--preset", "example-4.3"],
                                      ["cohomology", "--preset", "example-4.1", "--mode", "test"],
                                      ["cohomology", "--preset", "example-4.1", "--mode", "normalize"],
                                      ["cohomology", "--preset", "example-4.1", "--mode", "section"]])
    def test_a_period_bound_below_one(self, capsys, argv, bound):
        # an explicit --bound 0 is not read as absent, and no scan starts
        assert main(argv + ["--bound", bound]) == 2
        assert one_error_line(capsys) == "error: period bound must be at least 1, got %s" % bound

    @pytest.mark.parametrize("command", ["decide", "cohomology --mode test",
                                         "cohomology --mode normalize"])
    def test_a_config_period_bound_below_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "bound.cfg"
        cfg.write_text(PRESETS["example-4.1"].replace("bound = 12", "bound = 0"))
        assert main(command.split() + ["--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: period bound must be at least 1, got 0"
        # an explicit bound is used whenever it is given
        assert main(command.split() + ["--config", str(cfg), "--bound", "1"]) in (0, 10)

    @pytest.mark.parametrize("shift, roof, message", [
        ("kind = full\nalphabet = 2", "0 = 1/0\n1 = 1", "zero denominator in '1/0'"),
        ("kind = full\nalphabet = 2", "0 = 1\n1 = 2 + 3/0*a", "zero denominator in '2 + 3/0*a'"),
        ("kind = beta\nbeta = rational 1/0", "0 = 1\n1 = 1",
         "zero denominator in beta descriptor 'rational 1/0'"),
        ("kind = beta\nbeta = quadratic 1 1/0 5", "0 = 1\n1 = 1",
         "zero denominator in beta descriptor 'quadratic 1 1/0 5'"),
    ])
    def test_a_zero_denominator(self, tmp_path, capsys, shift, roof, message):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[shift]\n%s\n\n[basis]\nconstants = a 1.4142135623730951\n\n"
                       "[roof]\npast = 0\nfuture = 0\n%s\n" % (shift, roof))
        assert main(["decide", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: " + message


    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
    def test_a_constant_that_is_not_finite(self, tmp_path, capsys, value, shown):
        # a NaN approximation would answer every mixed-sign test False
        cfg = tmp_path / "constant.cfg"
        cfg.write_text("[shift]\nkind = full\nalphabet = 2\n\n[basis]\nconstants = a %s\n\n"
                       "[roof]\npast = 0\nfuture = 0\n0 = a\n1 = 1\n" % value)
        assert main(["decide", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == (
            "error: basis approximation a = %s must be finite and strictly positive" % shown)

    @pytest.mark.parametrize("horizon, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0"),
                                                ("-1", "-1")])
    def test_a_horizon_that_is_not_finite_and_positive(self, capsys, horizon, shown):
        # an explicit --horizon 0 is not read as absent
        assert main(["simulate", "--preset", "example-4.1", "--horizon", horizon]) == 2
        assert one_error_line(capsys) == "error: horizon must be finite and above 0, got " + shown

    def test_a_config_horizon_that_is_not_finite(self, tmp_path, capsys):
        cfg = tmp_path / "horizon.cfg"
        cfg.write_text(PRESETS["example-4.1"].replace("horizon = 40", "horizon = inf"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: horizon must be finite and above 0, got inf"

    @pytest.mark.parametrize("epsilon, message", [
        ("0", "epsilon must be above 0, got 0"),
        ("-1", "epsilon must be above 0, got -1"),
        ("nan", "epsilon must be above 0, got nan"),
        # 2 is example-4.1's least roof value
        ("2", "epsilon must be below the minimum roof value"),
    ])
    def test_an_epsilon_outside_the_roof_floor(self, tmp_path, capsys, epsilon, message):
        cfg = tmp_path / "epsilon.cfg"
        cfg.write_text(PRESETS["example-4.1"].replace("epsilon = 0.25", "epsilon = " + epsilon))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: " + message

    @pytest.mark.parametrize("delta", ["-1", "0", "nan", "inf"])
    def test_a_candidate_delta_that_is_not_finite_and_positive(self, tmp_path, capsys, delta):
        # every residue mod a negative delta is <= 0 and so "on the grid"
        cfg = tmp_path / "delta.cfg"
        cfg.write_text(PRESETS["example-4.1"].replace("delta = 1", "delta = " + delta))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == (
            "error: candidate delta must be finite and above 0, got " + delta)

    def test_an_empty_target(self, tmp_path, capsys):
        # an explicit --target '' is not read as absent
        assert main(["simulate", "--preset", "example-4.1", "--target", ""]) == 2
        assert one_error_line(capsys) == "error: empty target word"
        cfg = tmp_path / "target.cfg"
        cfg.write_text(PRESETS["example-4.1"].replace("target = 0", "target ="))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: empty target word"


class TestDecide:
    def test_exit_codes_by_preset(self):
        assert main(["decide", "--preset", "example-4.1"]) == 10
        assert main(["decide", "--preset", "example-4.3"]) == 11
        assert main(["decide", "--preset", "two-orbit"]) == 0
        assert main(["decide", "--preset", "golden-beta"]) == 0

    def test_unknown_on_intransitive_base(self, tmp_path):
        cfg = tmp_path / "sys.cfg"
        cfg.write_text(
            "[shift]\nkind = edges\nalphabet = 2\nedges = A A 0, B B 1\n\n"
            "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = 2\n"
        )
        assert main(["decide", "--config", str(cfg)]) == 20

    def test_duplicated_edge_keeps_the_single_orbit_reason(self, tmp_path, capsys):
        # the two p -> q edges present the one orbit of (01)-bar, as one would
        cfg = tmp_path / "sys.cfg"
        cfg.write_text(
            "[shift]\nkind = edges\nalphabet = 2\nedges = p q 0, p q 0, q p 1\n\n"
            "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = 2\n"
        )
        assert main(["decide", "--config", str(cfg)]) == 10
        assert capsys.readouterr().out == (
            "verdict: NotTopMixing\ndelta: 3\n"
            "reason: base is a single periodic orbit; the dichotomy is vacuous there\n")

    def test_json_report(self, capsys):
        assert main(["decide", "--preset", "example-4.1", "--json"]) == 10
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["verdict"] == "NotTopMixing"
        assert report["verdict"]["delta"] == "1"
        assert "config_sha256" in report["provenance"]

    def test_missing_config(self):
        assert main(["decide"]) == 2

    def test_parser_is_built_once_and_reused(self, capsys):
        assert build_parser() is build_parser()
        assert main(["decide", "--preset", "example-4.1", "--json", "--bound", "5"]) == 10
        json.loads(capsys.readouterr().out)
        # the second call parses afresh: no --json, no --bound left over
        assert main(["decide", "--preset", "example-4.1"]) == 10
        assert capsys.readouterr().out.startswith("verdict: NotTopMixing\n")
        args = build_parser().parse_args(["decide", "--preset", "x"])
        assert args.json is False and args.bound is None

    def test_unknown_preset(self):
        assert main(["decide", "--preset", "nope"]) == 2


class TestCohomology:
    def test_test_mode_detects_non_cohomologous(self, capsys):
        assert main(["cohomology", "--preset", "example-4.1", "--mode", "test"]) == 0
        out = capsys.readouterr().out
        assert "cohomologous: False" in out
        assert "witness orbit" in out

    def test_normalize_mode(self, capsys):
        assert main(["cohomology", "--preset", "example-4.1", "--mode", "normalize"]) == 0
        out = capsys.readouterr().out
        assert "delta: 1" in out
        assert "s[01] = 3" in out

    def test_normalize_decides_same_sign_values_exactly(self, tmp_path, capsys):
        # the potentials differ by 1e-13, inside the float guard band
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[shift]\nkind = edges\nalphabet = 3\nedges = p q 0, q p 1, p p 2\n\n"
                       "[roof]\npast = 0\nfuture = 0\n0 = 1 + 1/10000000000000\n"
                       "1 = 2 - 1/10000000000000\n2 = 2\n")
        assert main(["cohomology", "--mode", "normalize", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "delta: 1", "s[01] = 2", "s[10] = 1", "s[12] = 2", "s[20] = 1", "s[22] = 2",
            "g[0] = 0", "g[1] = 1/10000000000000", "g[2] = 1/10000000000000"]

    def test_section_mode(self, capsys):
        assert main(["cohomology", "--preset", "example-4.1", "--mode", "section"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 5" in out
        assert "edges: 7" in out
        assert "base period: 1" in out

    def test_normalize_refused_when_mixing(self, tmp_path):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(
            "[shift]\nkind = full\nalphabet = 2\n\n"
            "[basis]\nconstants = alpha 1.6180339887498949\n\n"
            "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = alpha\n"
        )
        assert main(["cohomology", "--config", str(cfg), "--mode", "normalize"]) == 2

    def test_needs_finite_type_base(self):
        assert main(["cohomology", "--preset", "example-4.3", "--mode", "test"]) == 2

    def test_test_mode_needs_a_table_roof(self, capsys):
        assert main(["cohomology", "--preset", "example-4.2", "--mode", "test"]) == 2
        assert one_error_line(capsys) == (
            "error: cohomology --mode test needs a locally constant (table) roof")

    @pytest.mark.parametrize("roof", ["0 = 1\n1 = a", "0 = 1\n1 = 2"])
    def test_unknown_mode_named_before_any_decision(self, tmp_path, capsys, roof):
        # a mixing roof (no grid) and a grid roof get the same message
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("[shift]\nkind = full\nalphabet = 2\n\n"
                       "[basis]\nconstants = a 1.4142135623730951\n\n"
                       "[roof]\npast = 0\nfuture = 0\n%s\n\n[options]\nmode = bogus\n" % roof)
        assert main(["cohomology", "--config", str(cfg)]) == 2
        assert one_error_line(capsys) == "error: unknown mode 'bogus'"

    @pytest.mark.parametrize("mode", ["normalize", "section"])
    def test_no_grid_names_an_unknown_verdict(self, capsys, mode):
        assert main(["cohomology", "--preset", "example-4.2", "--mode", mode]) == 2
        assert one_error_line(capsys) == (
            "error: no delta-grid: the verdict is Unknown (roof is not locally constant)")

    def test_no_grid_on_a_mixing_flow(self, tmp_path, capsys):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(
            "[shift]\nkind = full\nalphabet = 2\n\n"
            "[basis]\nconstants = alpha 1.6180339887498949\n\n"
            "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = alpha\n"
        )
        assert main(["cohomology", "--config", str(cfg), "--mode", "section"]) == 2
        assert one_error_line(capsys) == (
            "error: the flow is topologically mixing; no delta-grid exists")


EVEN_SHIFT = "[shift]\nkind = edges\nalphabet = 2\nedges = a a 1, a b 0, b a 0\n\n"
GRID_ERRORS = {
    "even-grid": (EVEN_SHIFT + "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = 2\n",
                  "error: no block length up to 4 makes vertices symbol-determined"),
    "even-mixing": (EVEN_SHIFT + "[basis]\nconstants = alpha 1.6180339887498949\n\n"
                    "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = alpha\n",
                    "error: the flow is topologically mixing; no delta-grid exists"),
    "intransitive": ("[shift]\nkind = edges\nalphabet = 2\nedges = a a 0, a b 1, b b 0\n\n"
                     "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = 2\n",
                     "error: no delta-grid: the verdict is Unknown (base shift is not transitive)"),
}


class TestGridModes:
    """Normalize and section take delta from the presentation they build,
    and run the decision only when no block length names every vertex."""

    @pytest.mark.parametrize("mode", ["normalize", "section"])
    @pytest.mark.parametrize("name", sorted(GRID_ERRORS))
    def test_error_line(self, tmp_path, capsys, name, mode):
        text, line = GRID_ERRORS[name]
        cfg = tmp_path / "sys.cfg"
        cfg.write_text(text)
        assert main(["cohomology", "--config", str(cfg), "--mode", mode]) == 2
        assert one_error_line(capsys) == line

    def test_non_right_resolving_edge_list_decides(self, tmp_path, capsys):
        # the duplicated edge makes the subset graph keep a transient state;
        # its terminal component decides.  The shift is strictly sofic, so
        # no block length names every vertex
        cfg = tmp_path / "sys.cfg"
        cfg.write_text("[shift]\nkind = edges\nalphabet = 2\nedges = p q 0, p q 0, q p 0, p q 1\n\n"
                       "[roof]\npast = 0\nfuture = 1\n00 = 1\n01 = 2\n10 = 1\n11 = 2\n")
        assert main(["decide", "--config", str(cfg)]) == 10
        assert capsys.readouterr().out == "verdict: NotTopMixing\ndelta: 1\n"
        assert main(["cohomology", "--config", str(cfg), "--mode", "normalize"]) == 2
        assert one_error_line(capsys) == "error: no block length up to 4 makes vertices symbol-determined"

    def test_section_of_a_constant_roof_on_a_sofic_base(self, tmp_path, capsys):
        # no block presentation, but the section at height 0 is the base
        cfg = tmp_path / "sys.cfg"
        cfg.write_text(EVEN_SHIFT + "[roof]\npast = 0\nfuture = 0\n0 = 3/2\n1 = 3/2\n")
        assert main(["cohomology", "--config", str(cfg), "--mode", "section"]) == 0
        assert capsys.readouterr().out == (
            "vertices: 2\nedges: 3\na -> a\na -> b\nb -> a\nbase period: 1\n")

    @pytest.mark.parametrize("mode", ["normalize", "section"])
    def test_no_decision_on_a_block_presentation(self, capsys, monkeypatch, mode):
        def refuse(config, bound):
            raise AssertionError("run_decide called")

        monkeypatch.setattr(suspmix.cli, "run_decide", refuse)
        assert main(["cohomology", "--preset", "example-4.1", "--mode", mode]) == 0


class TestSimulate:
    def test_harmonic_roof_refuses_other_symbols(self, tmp_path, capsys):
        # the roof lives on the full 2-shift; its two evaluators disagree elsewhere
        cfg = tmp_path / "sys.cfg"
        cfg.write_text("[shift]\nkind = full\nalphabet = 3\n\n[roof]\nname = harmonic\n\n"
                       "[options]\nfamily = 201\ntarget = 0\nhorizon = 60\n")
        assert main(["simulate", "--config", str(cfg), "--json"]) == 2
        assert one_error_line(capsys) == (
            "error: the harmonic roof is defined on the full 2-shift; family 201 has other symbols")

    def test_writes_csv_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "example-4.1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "non-mixing-consistent" in text
        series = (out / "series.csv").read_text().strip().split("\n")
        assert series[0] == "time,residue"
        assert len(series) > 10
        diag = (out / "diagnostic.csv").read_text().strip().split("\n")
        assert diag[0] == "bin,count,max_gap"
        assert (out / "report.json").exists()

    def test_constant_roof_progression(self, capsys):
        assert main(["simulate", "--preset", "constant-roof", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hits"] >= 10

    def test_under_sampled_horizon(self):
        assert main(["simulate", "--preset", "example-4.1", "--horizon", "5"]) == 2


class TestBeta:
    def test_golden_preset(self, capsys):
        assert main(["beta", "--preset", "golden-beta"]) == 0
        out = capsys.readouterr().out
        assert "nu prefix: 1100" in out
        assert "admissible 11: False" in out

    def test_rational_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(
            "[shift]\nkind = beta\nbeta = rational 3/2\ndepth = 3\n\n"
            "[roof]\npast = 0\nfuture = 0\n0 = 1\n1 = 2\n"
        )
        assert main(["beta", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "nu prefix: 101000001" in out


class TestExamples:
    def test_unknown_name_lists_presets(self, capsys):
        assert main(["examples", "nope"]) == 2
        err = capsys.readouterr().err
        assert "4.1" in err and "two-orbit" in err

    @pytest.mark.parametrize("name", ["4.1", "4.2", "4.3", "two-orbit", "golden-beta"])
    def test_example_passes(self, capsys, name):
        assert main(["examples", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "result: pass"
        assert not any("FAIL" in line for line in lines)

    def test_harmonic_example_checks_its_witnesses(self, capsys):
        # Example 4.2's roof is not locally constant: two facts are checked in code
        assert main(["examples", "4.2"]) == 0
        out = capsys.readouterr().out
        assert "witness Birkhoff formula (m, n <= 8): pass" in out
        assert "residue max gap < 0.2 at m <= 300: pass" in out

    def test_changed_expectation_fails(self, capsys, monkeypatch):
        text = PRESETS["example-4.3"]
        assert 'verdict.delta = "a + b"' in text
        monkeypatch.setitem(PRESETS, "example-4.3", text.replace('verdict.delta = "a + b"', 'verdict.delta = "a"'))
        assert main(["examples", "4.3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "result: FAIL"
        assert [line for line in lines if "FAIL" in line][0] == (
            'decide: verdict.delta = "a": FAIL, got "a + b"'
        )

    def test_only_name_json_and_out(self):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "4.1", "--bound", "3"])
        assert exc.value.code == 2
