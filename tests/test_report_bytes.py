"""Every byte of the exact commands' reports, pinned.

``decide --json`` and ``cohomology --mode test|normalize|section --json``
run on five presets and on five literal configs: a 24-vertex ring with one
chord, a non-right-resolving edge list, a forbidden-word SFT whose roof
reads one symbol of past, a roof whose ``[roof2]`` is not cohomologous to
it, which pins the witness orbit, and a grid constant a - 1 whose exact
values have coefficients of both signs.  Exit code, stdout and stderr must
equal the text in ``report_bytes.json``.

A change that means to alter a report rewrites that file with

    PYTHONPATH=src python tests/test_report_bytes.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from suspmix.cli import main

EXPECTED = Path(__file__).with_name("report_bytes.json")

PRESETS = ("example-4.1", "example-4.3", "golden-beta", "two-orbit", "constant-roof")

CONFIGS = {
    # perfbench's ring_edges(24): a ring labeled by an m-sequence, one chord
    "ring-24": """\
[shift]
kind = edges
alphabet = 2
edges = r0 r1 1, r1 r2 1, r2 r3 1, r3 r4 1, r4 r5 1, r5 r6 1, r6 r7 1, r7 r8 1,
    r8 r9 1, r9 r10 1, r10 r11 0, r11 r12 0, r12 r13 0, r13 r14 0, r14 r15 0,
    r15 r16 0, r16 r17 0, r17 r18 1, r18 r19 1, r19 r20 1, r20 r21 0, r21 r22 0,
    r22 r23 0, r23 r0 0, r23 r12 1

[roof]
past = 0
future = 1
00 = 3/2
01 = 3
10 = 3/2
11 = 3

[roof2]
00 = 3/2
01 = 13/4
10 = 5/4
11 = 3
""",
    # q1 reaches both q2 and its copy q2b on 0
    "not-right-resolving": """\
[shift]
kind = edges
alphabet = 2
edges = q0 q1 1, q1 q2 0, q2 q3 0, q3 q0 0, q3 q1 1, q0 q0 0, q1 q2 1, q2b q3 0, q1 q2b 0

[basis]
constants = a 1.4142135623730951

[roof]
past = 0
future = 1
00 = 1 + a
01 = 5/2 + 2*a
10 = 1/2 + a
11 = 3 + 3*a

[roof2]
00 = 1 + a
01 = 2 + 2*a
10 = 1 + a
11 = 3 + 3*a
""",
    # [roof] is the grid roof [roof2] plus a coboundary
    "forbidden-past-1": """\
[shift]
kind = forbidden-words
alphabet = 3
forbidden = 11 22 201

[basis]
constants = a 2.718281828459045

[roof]
past = 1
future = 1
000 = 1/2 + a
001 = 9/8 + 2*a
002 = 7/4 + 3*a
010 = 3/8 + a
012 = 13/8 + 3*a
020 = 1/4 + a
021 = 7/8 + 2*a
100 = 1/2 + a
101 = 9/8 + 2*a
102 = 7/4 + 3*a
120 = 1/4 + a
121 = 7/8 + 2*a
200 = 1/2 + a
202 = 7/4 + 3*a
210 = 3/8 + a
212 = 13/8 + 3*a

[roof2]
000 = 1/2 + a
001 = 1 + 2*a
002 = 3/2 + 3*a
010 = 1/2 + a
012 = 3/2 + 3*a
020 = 1/2 + a
021 = 1 + 2*a
100 = 1/2 + a
101 = 1 + 2*a
102 = 3/2 + 3*a
120 = 1/2 + a
121 = 1 + 2*a
200 = 1/2 + a
202 = 3/2 + 3*a
210 = 1/2 + a
212 = 3/2 + 3*a
""",
    "not-cohomologous": """\
[shift]
kind = forbidden-words
alphabet = 2
forbidden = 000 111

[roof]
past = 1
future = 0
00 = 2
01 = 4
10 = 2
11 = 4

[roof2]
00 = 2
01 = 4
10 = 3
11 = 4
""",
    # delta = a - 1: the potentials, their residues mod delta and delta
    # itself have coefficients of both signs, whose signs the float decides;
    # [roof] is the grid roof [roof2] plus a coboundary
    "mixed-sign": """\
[shift]
kind = full
alphabet = 2

[basis]
constants = a 1.4142135623730951

[roof]
past = 0
future = 1
00 = -1 + a
01 = -7/4 + 2*a
10 = -5/4 + a
11 = -3 + 3*a

[roof2]
00 = -1 + a
01 = -2 + 2*a
10 = -1 + a
11 = -3 + 3*a
""",
}

COMMANDS = (
    "decide --json",
    "cohomology --mode test --json",
    "cohomology --mode normalize --json",
    "cohomology --mode section --json",
)

CASES = [(name, command) for name in PRESETS + tuple(CONFIGS) for command in COMMANDS]


def run(name: str, command: str, directory: Path) -> dict:
    """Exit code, stdout and stderr of one command on a preset or config."""
    if name in CONFIGS:
        path = directory / (name + ".ini")
        path.write_text(CONFIGS[name])
        source = ["--config", str(path)]
    else:
        source = ["--preset", name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split() + source)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def key(name: str, command: str) -> str:
    return "%s: %s" % (name, command)


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name, command", CASES)
def test_report_bytes(name, command, expected, tmp_path):
    assert run(name, command, tmp_path) == expected[key(name, command)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = {key(name, command): run(name, command, Path(tmp)) for name, command in CASES}
    EXPECTED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print("wrote %d reports to %s" % (len(got), EXPECTED), file=sys.stderr)
