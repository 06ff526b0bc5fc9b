"""Every certify op of the benchmark, pinned by digest.

The certify workload of ``perfbench/workloads.py`` at seeds 1, 2 and 3
(decide, cohomology test, normalize and section on random SFTs, edge
lists and rings, the presets, and ``examples 4.1``) runs in process
through ``cli.main``.  The sha256 of each op's exit code, stdout and
stderr must equal the one in ``certify_bytes.json``.

A change that means to alter a certify report rewrites that file with

    PYTHONPATH=src python tests/test_certify_bytes.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from suspmix.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

EXPECTED = Path(__file__).with_name("certify_bytes.json")
SEEDS = (1, 2, 3)


def ops(seed: int) -> list:
    """The certify workload's own ops at ``seed``, as ``workloads.build`` draws them."""
    return workloads.certify_ops(random.Random("certify:%d" % seed), False)


def digest(op, directory: Path) -> str:
    """sha256 of the exit code, stdout and stderr of one op."""
    argv = list(op.argv)
    if op.config is not None:
        path = directory / "config.ini"
        path.write_text(op.config)
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(("%r\n%s\n%s" % (code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def run_all(directory: Path) -> dict:
    return {"%d: %s" % (seed, op.name): digest(op, directory) for seed in SEEDS for op in ops(seed)}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_certify_bytes(seed, expected, tmp_path):
    got = {"%d: %s" % (seed, op.name): digest(op, tmp_path) for op in ops(seed)}
    assert got == {k: v for k, v in expected.items() if k.startswith("%d: " % seed)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(Path(tmp))
    EXPECTED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(got), EXPECTED), file=sys.stderr)
