"""Print every metric of every workload, by name and with its unit.

Run from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process through ``perfbench/run.py``, so one
workload's peak memory cannot leak into another's.  ``--trace 0`` (the
default) prints the end-to-end metrics plus ``fail_frac`` (failed
correctness checks over operations attempted); ``--trace 1`` prints the
per-layer metrics, and each workload's stage table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=None if args.trace else subprocess.DEVNULL,
            text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: benchmark exited with code {done.returncode}")
            worst = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if args.trace == 0:
            rows.append(("fail_frac", result["failed"] / result["attempted"], "fraction"))
        for metric, value, unit in rows:
            print(f"{name:<15} {metric:<42} {value:<14.6g} {unit}")
        if not result["correct"]:
            print(f"{name}: {result['failed']} of {result['attempted']} operations failed a check")
            worst = 1
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
