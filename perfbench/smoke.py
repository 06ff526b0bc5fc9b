"""Smoke test of the benchmark harness, on the smallest inputs.

Run from the root of a source checkout:

    python3 perfbench/smoke.py

For every workload it runs the benchmark once untraced and twice traced
(same seed), and fails unless every op is correct, every end-to-end and
per-layer metric in BENCHMARK.json is printed, the wrappers saw calls in
each layer the workload is meant to load, and the two traced runs give
identical counts.
"""

import json
import subprocess
import sys
from pathlib import Path

# Counters that must be nonzero on each workload: the layers it loads.
LOADS = {
    "scan": ("decider.scan_words", "special.oracle_calls", "roofs.birkhoff_terms",
             "exact.rank_calls", "exact.qvector_ops"),
    "certify": ("shift.graph_builds", "shift.recodes", "shift.recoded_edges",
                "shift.transitivity_checks", "shift.determinized_states",
                "decider.cycle_data_calls", "exact.sign_tests"),
    "simulate": ("simulate.symbols", "simulate.hits", "roofs.vectorized_symbols",
                 "roofs.table_symbols"),
}
LAYERS = ("cli", "decider", "special", "roofs", "shift", "exact", "simulate")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError("%s trace %d: exit %d\n%s%s" % (
            workload, trace, done.returncode, done.stdout[-2000:], done.stderr[-2000:]))
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        plain, traced, again = run(workload, 0), run(workload, 1), run(workload, 1)
        for result, names in ((plain, end_to_end), (traced, per_layer), (again, per_layer)):
            assert result["correct"] and result["failed"] == 0, (workload, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == names, (workload, sorted(set(got) ^ set(names)))
        metrics = traced["metrics"]
        for layer in LAYERS:
            assert metrics["%s.self_s" % layer]["value"] > 0, (workload, layer)
        for key in LOADS[workload]:
            assert metrics[key]["value"] > 0, (workload, key)
        for key, unit in per_layer.items():
            if unit != "s":
                assert metrics[key] == again["metrics"][key], (workload, key)
        print("%s: ok" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
