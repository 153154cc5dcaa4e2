"""Smoke check: every workload at minimum size prints every named metric.

    python3 bench/smoke.py

Runs bench/run.py --smoke on each workload, untraced and traced, and
fails unless the last line is the result object, the outputs were
correct, and every metric BENCHMARK.json names is present with its unit.
A per-layer metric of a function the package no longer has is listed as
absent in the traced results file; it is reported, not counted as missing.
The report lines must also carry fail_frac and max_err (and near_i_err
for `models`), which are printed but not gated.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import covered_by  # noqa: E402


def absent_functions(lines):
    """The `trace.absent` list of the results file a run names."""
    path = next(line.split(" ", 1)[1] for line in lines if line.startswith("results "))
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return json.load(fh)["trace"]["absent"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            where = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            absent = absent_functions(lines) if trace else []
            if absent:
                print(f"{where}: absent from the package: {', '.join(absent)}")
            for metric in wanted:
                if covered_by(metric["name"], absent):
                    continue
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing or wrong unit")
            report = "\n".join(lines[:-1])
            for name in ["fail_frac", "max_err"] + (["near_i_err"] if workload == "models" else []):
                if trace == 0 and f"  {name} " not in report:
                    problems.append(f"{where}: report line {name} missing")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    for p in problems:
        print("PROBLEM " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
