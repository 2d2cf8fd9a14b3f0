#!/usr/bin/env python3
"""Run every workload over ten seeds and show each metric's spread.

    python3 perfbench/sweep.py --out FILE

Runs ``run.py`` once per workload of BENCHMARK.json and seed 1 to 10, one
process at a time, with the run length from BENCHMARK.json, appending every
record to FILE; then prints ``compare.py FILE``. Give two such files to
``compare.py`` to compare trees.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the number of pairs the verdict rule of compare.py counts wins over
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for seed in SEEDS:
        for workload in spec["workloads"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", args.out]
            done = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=900)
            print(f"{workload['name']} seed {seed}: exit {done.returncode} {done.stdout.splitlines()[-1][:100]}",
                  flush=True)
            status |= done.returncode != 0
    subprocess.run([sys.executable, str(HERE / "compare.py"), args.out], cwd=HERE.parent)
    return status


if __name__ == "__main__":
    sys.exit(main())
