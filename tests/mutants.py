"""Mutation gate: each mutant below is one snippet replacement in a copy of
``src/``, and the tier-1 tests run against that copy.

Run from anywhere, with pytest installed:

    python tests/mutants.py

A mutant marked killed must make the tests fail.  A mutant marked
equivalent must leave them passing, and its reason names the law that
implies it.  A snippet that does not occur exactly once in its module
fails the runner, so a refactor that moves or rewrites the code updates
the catalogue with it (DeMillo, Lipton and Sayward, "Hints on test data
selection", Computer 11, 1978).  The tests run with ``-x``, so a killed
mutant stops at its first failing test.  Exit status 0 when every mutant
behaves as marked, 1 otherwise.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant that makes the tests hang counts as failing them after this long
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/rackmod
    snippet: str
    replacement: str
    killed: bool  # False: equivalent, the tests must pass
    reason: str


MUTANTS = (
    Mutant(
        "iso-no-injectivity",
        "search.py",
        "_narrowed(d, -1, reads[:k])",
        "_narrowed(d, -1, [])",
        True,
        "without the injectivity reads the isomorphism search lists every hom",
    ),
    Mutant(
        "iso-no-size-guard",
        "isomorphism.py",
        "    if a.size != b.size:\n        return\n",
        "",
        True,
        "t2 -> t3 has injective homs, which are no isomorphisms",
    ),
    Mutant(
        "filed-masks-no-interning",
        "search.py",
        "            s = interned.setdefault(tuple(map(tuple, s)), s)\n",
        "",
        True,
        "support tables with equal rows are filed as separate reads",
    ),
    Mutant(
        "shared-leaves-no-divergence",
        "search.py",
        "diverged.append((f[:k], a & ~b, b & ~a))",
        "pass",
        True,
        "a map that one adjunction side alone finds is never reported",
    ),
    Mutant(
        "least-ties-reject",
        "isomorphism.py",
        "if moved < columns[j]:",
        "if moved <= columns[j]:",
        True,
        "a relabelling that leaves the readable columns equal rejects the table",
    ),
    Mutant(
        "solving-order-none-solvable",
        "search.py",
        "if unplaced[r] == 1:",
        "if unplaced[r] == 0:",
        True,
        "a word with one unplaced letter no longer solves for it",
    ),
    Mutant(
        "presolve-row-zero",
        "search.py",
        "for u, row in enumerate(s)\n",
        "for u, row in enumerate(s[:1])\n",
        True,
        "a table that says an equality in row 0 only merges its variables",
    ),
    Mutant(
        "presolve-classes-not-compared",
        "search.py",
        "if side is None or (sides and side[:2] != sides[0][:2]):",
        "if side is None:",
        True,
        "an equality that one side alone says is not reported",
    ),
    Mutant(
        "presolve-representative-base",
        "search.py",
        "merged[c] = merged.get(c, -1) & bases[k]",
        "merged.setdefault(c, bases[k])",
        True,
        "a class allows the values of its least member that another member's base excludes",
    ),
    Mutant(
        "presolve-ignores-part-divergence",
        "search.py",
        "            if diverged:\n                break\n",
        "",
        True,
        "a part whose two sides differ is counted by what both share",
    ),
    Mutant(
        "filed-masks-whole-table-vacuity",
        "search.py",
        "key = None if vacuous_diagonal else (k, x, diagonal)",
        "key = None if vacuous else (k, x, diagonal)",
        True,
        "a read of a diagonal that allows every value is filed",
    ),
)


def run(mutant: Mutant) -> str | None:
    """None when ``mutant`` behaves as marked, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="rackmod-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "rackmod" / mutant.module
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.snippet)
        if found != 1:
            return f"its snippet occurs {found} times in {mutant.module}, not once"
        path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--continue-on-collection-errors"]
        try:
            passed = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            ).returncode == 0
        except subprocess.TimeoutExpired:
            passed = False
    if mutant.killed and passed:
        return "the tests pass with it, but it is marked killed"
    if not mutant.killed and not passed:
        return "the tests fail with it, but it is marked equivalent"
    return None


def main() -> int:
    failures = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        problem = run(mutant)
        took = time.perf_counter() - t0
        verdict = "killed" if mutant.killed else "equivalent"
        if problem is None:
            print(f"ok    {mutant.name}: {verdict} in {took:.1f} s ({mutant.reason})")
        else:
            failures += 1
            print(f"FAIL  {mutant.name}: {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
