#!/usr/bin/env python3
"""Compare two sets of benchmark records, or show the spread of one.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds the JSON lines that ``run.py --out`` appends. For every
workload and end-to-end metric the tool prints each side's median and
quartiles, then a verdict:

* improved: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's quartile spread;
* no worse: the change's median is within the metric's bound of the parent's;
* worse: it is not;
* unresolved: either side's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every parent run.

Runs are paired by seed. Bounds come from BENCHMARK.json; the raw times
(``pass_s`` and the per-family ``check_ms`` and so on) take the bound of
``pass_norm``, and ``failed_frac`` may not rise at all. For runs of the same workload and
seed on both sides the output digests must match, which shows that a change
left every stdout and written file byte-identical. With one file, the tool
prints each metric's spread and marks those at or above a third of the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records by workload."""
    by_workload = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                by_workload[record["workload"]].append(record)
    return by_workload


def bounds() -> dict[str, tuple[float, str]]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    out = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    out.setdefault("failed_frac", (0.0, "lower"))
    return out


def bound_of(metric: str, table) -> tuple[float, str]:
    """Raw times (``pass_s``, ``check_ms`` ...) take the bound of ``pass_norm``."""
    if metric in table:
        return table[metric]
    return table["pass_norm"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: list[float], new: list[float], pairs, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, b2, b3 = quartiles(base)
    _, n2, _ = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b2 - n2) > (b3 - b1):
        return f"improved ({wins}/{len(pairs)} pairs won)"
    if max(spread(base), spread(new)) > bound:
        beats_all = max(new) < min(base) if better == "lower" else min(new) > max(base)
        if beats_all:
            return "improved (every change run beats every parent run)"
        return "unresolved (spread wider than the bound)"
    worse_by = sign * (n2 - b2) / b2 if b2 else sign * (n2 - b2)
    if worse_by <= bound:
        return f"no worse ({worse_by:+.1%} against a bound of {bound:.0%})"
    return f"worse ({worse_by:+.1%} against a bound of {bound:.0%})"


def digest_mismatches(base_runs, new_runs) -> list[str]:
    by_seed = {r["seed"]: r for r in base_runs}
    out = []
    for run in new_runs:
        ref = by_seed.get(run["seed"])
        if ref is None:
            continue
        for job, digests in run["digests"].items():
            if ref["digests"].get(job) != digests:
                out.append(f"seed {run['seed']} {job}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    table = bounds()
    sides = [load(path) for path in argv]
    status = 0
    for workload in sorted(sides[0]):
        runs = [side.get(workload, []) for side in sides]
        if not all(runs):
            print(f"{workload}: missing on one side")
            status = 1
            continue
        print(f"{workload}: {' vs '.join(str(len(r)) + ' runs' for r in runs)}")
        for metric in runs[0][0]["metrics"]:
            values = [[r["metrics"][metric] for r in side if metric in r["metrics"]] for side in runs]
            if not all(values):
                continue
            bound, better = bound_of(metric, table)
            text = "  ".join(
                "median {1:.6g} [{0:.6g}, {2:.6g}] spread {3:.1%}".format(*quartiles(v), spread(v))
                for v in values)
            if len(sides) == 1:
                flag = " <- at or above a third of the bound" if spread(values[0]) >= bound / 3 and metric != "failed_frac" else ""
                print(f"  {metric:28s} {text}{flag}")
                continue
            base_by_seed = {r["seed"]: r["metrics"].get(metric) for r in runs[0]}
            pairs = [(base_by_seed[r["seed"]], r["metrics"][metric]) for r in runs[1]
                     if base_by_seed.get(r["seed"]) is not None and metric in r["metrics"]]
            v = verdict(values[0], values[1], pairs, bound, better)
            status |= v.startswith("worse")
            print(f"  {metric:28s} {text}  -> {v}")
        if len(sides) == 2:
            bad = digest_mismatches(*runs)
            print(f"  output digests: {'identical' if not bad else 'DIFFER: ' + ', '.join(bad[:10])}")
            status |= bool(bad)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
