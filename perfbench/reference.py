"""A fixed burst of interpreter work that times the machine, not rackmod.

On a shared host the speed of one core drifts by tens of percent over
minutes and by up to 2x within seconds, so a pass's wall time alone
cannot tell two commits apart. The runner times bursts between jobs and
reports each pass also as a multiple of the median burst of that pass
(``pass_norm``); set-up times are scaled the same way. A burst imitates
the CLI's own mix: argument parsing, a JSON round trip and a
self-distributivity scan of a fixed table. It must never change: a change to
rackmod moves the multiple, a change in machine speed moves both sides.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

# ``setup_s`` is given in seconds of a machine on which one burst takes this long
NOMINAL_S = 0.001

# the dihedral quandle of order 7: a ◁ b = 2b - a mod 7
_TABLE = [[(2 * b - a) % 7 for b in range(7)] for a in range(7)]
_DOC = {"format-version": 1, "kind": "rack", "table": _TABLE, "basepoint": 0}


def burst() -> float:
    """Seconds taken by one burst, about a millisecond on a 2 GHz core."""
    t0 = perf_counter()
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "construct", "certify", "corpus"):
        cmd = sub.add_parser(name)
        cmd.add_argument("file")
        cmd.add_argument("--report")
    parser.parse_args(["check", "x.json", "--report", "y.json"])
    t = json.loads(json.dumps(_DOC, indent=2, sort_keys=True))["table"]
    n = len(t)
    for _ in range(8):
        for a in range(n):
            row_a = t[a]
            for b in range(n):
                ab = row_a[b]
                row_b = t[b]
                for c in range(n):
                    if t[ab][c] != t[row_a[c]][row_b[c]]:
                        raise AssertionError("reference table is not self-distributive")
    return perf_counter() - t0
