"""suspmix benchmark: seeded scan, certify and simulate workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The harness imports ``suspmix.cli`` from ``src/`` and runs every op as
``suspmix.cli.main(argv)`` in one process, in a closed loop (one caller,
each op starting when the previous one returns).  It repeats whole rounds
of the workload until ``--seconds`` have passed, checks the output of
every op of the first round with its own code (``checks.py``) and checks
that later rounds reproduce it byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs rounds
untraced, then the named reference ops, then rounds with every layer
wrapped (``tracing.py``), and reports the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MEMORY_CAP = 1 << 30  # bytes of address space; a blowup fails one op, not the machine
SETUP_REPEATS = 5
LAYERS = tracing.LAYERS

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}

@dataclass
class Result:
    rc: object = None
    stdout: str = ""
    stderr: str = ""
    outdir: str = ""
    error: str = ""
    seconds: float = 0.0


def run_op(cli, argv: list, outdir: str = "") -> Result:
    """One guarded call of ``cli.main``: any exception is a result, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    res = Result(outdir=outdir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        res.rc = exc.code
    except Exception as exc:  # RecursionError, MemoryError and the rest
        res.error = "%s: %s" % (type(exc).__name__, str(exc)[:200])
    res.seconds = time.perf_counter() - start
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res


def fingerprint(res: Result) -> str:
    digest = hashlib.sha256(("%r\n%s\n%s\n%s" % (res.rc, res.error, res.stdout, res.stderr)).encode())
    if res.outdir:
        for path in sorted(Path(res.outdir).glob("*")):
            digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def output_bytes(res: Result) -> int:
    size = len(res.stdout.encode())
    if res.outdir:
        size += sum(p.stat().st_size for p in Path(res.outdir).glob("*"))
    return size


class Bench:
    def __init__(self, cli, ops, work: Path):
        self.cli = cli
        self.ops = ops
        self.argv = []
        configs: dict = {}
        for i, op in enumerate(ops):
            argv = list(op.argv)
            if op.config is not None:
                path = configs.setdefault(op.config, work / ("config-%03d.ini" % len(configs)))
                path.write_text(op.config)
                argv += ["--config", str(path)]
            self.argv.append(argv)
        self.config_paths = sorted(str(p) for p in configs.values())
        self.work = work
        self.runs = 0
        self.expected = {}  # op index -> fingerprint of its checked first output
        self.failures: list = []
        self.known_failures: set = set()
        self.attempted = 0
        self.report_bytes = 0

    def golden(self) -> None:
        """The ``examples`` ops (golden preset checks), once, untimed."""
        for i, op in enumerate(self.ops):
            if op.check == "examples":
                self.run_checked(i, {})

    def run_checked(self, i: int, state: dict) -> float:
        op = self.ops[i]
        argv, outdir = self.argv[i], ""
        if "--out" in argv:
            # a fresh directory each time: rewriting a file in place can
            # wait on the writeback of its previous contents
            self.runs += 1
            outdir = str(self.work / ("out-%d" % self.runs))
            argv = list(argv)
            argv[argv.index("--out") + 1] = outdir
        res = run_op(self.cli, argv, outdir)
        self.attempted += 1
        if op.known_failure and res.error.startswith(op.known_failure + ":"):
            self.known_failures.add(op.name)
            problem = None
        elif i not in self.expected:
            problem = checks.check(op, res, state.setdefault(op.group, {}))
            self.expected[i] = fingerprint(res)
            self.report_bytes += output_bytes(res)
        elif fingerprint(res) != self.expected[i]:
            problem = "output differs from the first round"
        else:
            problem = None
        if problem:
            self.failures.append("%s: %s" % (op.name, problem))
        if outdir:
            shutil.rmtree(outdir, ignore_errors=True)
        return res.seconds

    def round(self) -> list:
        """Run every timed op once; returns latencies.  First round: full checks."""
        state: dict = {}
        return [self.run_checked(i, state) for i, op in enumerate(self.ops) if op.check != "examples"]

    def run_rounds(self, seconds: float, tracer=None) -> list:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            before = dict(tracer.self_s) if tracer else None
            counts = dict(tracer.counts) if tracer else None
            rounds.append(self.round())
            if tracer:
                rounds[-1] = (rounds[-1], _diff(tracer.self_s, before), _diff(tracer.counts, counts))
        return rounds


def _diff(now, before) -> dict:
    return {k: v - before.get(k, 0) for k, v in now.items()}


def wall_s(rounds: list) -> float:
    """Time to run every op once: the sum over ops of each op's median latency."""
    return sum(statistics.median(samples) for samples in zip(*rounds))


def tail(samples: list) -> tuple[float, int]:
    """Latency at the highest whole percentile with at least ten samples
    beyond it (nearest rank), and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p
    return ordered[-1], 100


def measure_setup(root: Path, configs: list) -> float:
    """Median time, in fresh processes, to import suspmix.cli and parse
    the workload's configs."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"), *configs],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_references(cli, work: Path, bench: Bench, smoke: bool) -> dict:
    """The reference ops, once each and untraced; their failures count in
    ``bench`` except a known failure, which is reported by name."""
    work = work / "references"
    work.mkdir()
    refs = Bench(cli, workloads.references(smoke), work)
    metrics = {}
    for i, op in enumerate(refs.ops):
        metrics["ref.%s_s" % op.name] = refs.run_checked(i, {})
    metrics["ref.ring1200_failed"] = int("ring1200" in refs.known_failures)
    bench.attempted += refs.attempted
    bench.failures += refs.failures
    return metrics


def layer_metrics(traced: list, bench: Bench) -> dict:
    """Per-layer numbers: median self time per round, counts of one round."""
    counts = traced[0][2]
    metrics = {}
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = statistics.median(r[1].get(layer, 0.0) for r in traced)
    for key in ("exact.qvector_ops", "exact.sign_tests", "exact.rank_calls", "exact.rank_rows",
                "decider.scan_words", "decider.cycle_data_calls", "special.oracle_calls",
                "roofs.birkhoff_terms", "roofs.vectorized_symbols", "roofs.table_symbols",
                "shift.graph_builds", "shift.recodes", "shift.recoded_edges",
                "shift.transitivity_checks", "shift.determinized_states", "simulate.symbols",
                "simulate.hits"):
        metrics[key] = counts.get(key, 0)
    metrics["decider.useful_sum_ratio"] = (
        counts.get("decider.distinct_sums", 0) / max(counts.get("decider.scan_words", 0), 1))
    metrics["special.oracle_accept_ratio"] = (
        counts.get("special.oracle_accepts", 0) / max(counts.get("special.oracle_calls", 0), 1))
    metrics["cli.report_bytes"] = bench.report_bytes
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs (harness test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "suspmix" / "cli.py").is_file():
        print("error: run from a suspmix checkout (no src/suspmix/cli.py here)", file=sys.stderr)
        return 2
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))
    sys.path.insert(0, str(root / "src"))
    import suspmix.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print("error: imported suspmix from %s, not from src/" % cli.__file__, file=sys.stderr)
        return 2

    work = root / ".perfbench" / ("%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    work.mkdir(parents=True)
    try:
        return bench_main(args, cli, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()


def bench_main(args, cli, root: Path, work: Path) -> int:
    ops = workloads.build(args.workload, args.seed, args.smoke)
    bench = Bench(cli, ops, work)
    setup = measure_setup(root, bench.config_paths)
    bench.golden()
    lines = []
    if not args.trace:
        rounds = bench.run_rounds(args.seconds)
        samples = [s for r in rounds for s in r]
        tail_s, pct = tail(samples)
        metrics = {
            "setup_s": setup,
            "wall_s": wall_s(rounds),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        lines.append("workload %s seed %d: %d ops per round, %d rounds, %d samples"
                     % (args.workload, args.seed, len(ops), len(rounds), len(samples)))
        lines.append("op_tail_ms is p%d of %d samples" % (pct, len(samples)))
        timed = [op.name for op in ops if op.check != "examples"]
        medians = sorted(zip(map(statistics.median, zip(*rounds)), timed), reverse=True)
        lines += ["  median %8.1f ms  %s" % (t * 1e3, name) for t, name in medians[:6]]
        lines.append("%-32s %16.6f ratio (%d of %d ops; not bounded, as it is 0 when correct)" % (
            "ops_failed_ratio", len(bench.failures) / bench.attempted, len(bench.failures),
            bench.attempted))
    else:
        untraced = bench.run_rounds(args.seconds / 2)
        metrics = run_references(cli, work, bench, args.smoke)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = bench.run_rounds(args.seconds / 2, tracer)
        metrics.update(layer_metrics(traced, bench))
        plain, slow = wall_s(untraced), wall_s([r[0] for r in traced])
        metrics.update({"trace.untraced_wall_s": plain, "trace.traced_wall_s": slow,
                        "trace.overhead_s": slow - plain})
        units = {k: unit_of(k) for k in metrics}
        lines.append("workload %s seed %d: %d untraced and %d traced rounds of %d ops"
                     % (args.workload, args.seed, len(untraced), len(traced), len(ops)))
        top = sorted(tracer.func_self_s.items(), key=lambda kv: -kv[1])[:12]
        lines += ["  self %-48s %9.4f s  %9d calls" % (k, v, tracer.calls[k]) for k, v in top]
    for key, value in metrics.items():
        lines.append("%-32s %16.6f %s" % (key, value, units[key]))
    for failure in bench.failures[:20]:
        lines.append("FAILED " + failure)
    print("\n".join(lines))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not bench.failures else 1


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
