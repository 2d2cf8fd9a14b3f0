"""Reference scans and outcome checks, written without rackmod.

The scans walk the laws in the order rackmod's validators document
(columns, self-distributivity, pointedness for racks; identity,
associativity, inverses for groups) and return the first violation as
``(law, error, witness)``, or None when the table satisfies every law.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter
from pathlib import Path


def first_sd_violation(t: list[list[int]]) -> tuple[int, int, int] | None:
    """Least (a, b, c) with (a◁b)◁c != (a◁c)◁(b◁c).

    Works on columns: for each (b, c) it composes whole column maps, which
    keeps the full n^3 scan fast enough for set-up at n = 216.
    """
    n = len(t)
    if n < 2:
        return None
    cols = [tuple(row[b] for row in t) for b in range(n)]
    getters = [itemgetter(*col) for col in cols]  # getters[b](v) = (v[a ◁ b] for a)
    best = None
    for b in range(n):
        for c in range(n):
            lhs = getters[b](cols[c])  # (a ◁ b) ◁ c
            rhs = getters[c](cols[t[b][c]])  # (a ◁ c) ◁ (b ◁ c)
            if lhs != rhs:
                a = next(a for a in range(n) if lhs[a] != rhs[a])
                if best is None or (a, b, c) < best:
                    best = (a, b, c)
    return best


def first_rack_violation(doc: dict) -> tuple[str, str, list[int]] | None:
    t = doc["table"]
    n = len(t)
    bp = doc["basepoint"]
    for b in range(n):
        seen: dict[int, int] = {}
        for a in range(n):
            v = t[a][b]
            if v in seen:
                return ("unique-solution", "NonBijectiveColumn", [b, seen[v], a])
            seen[v] = a
    sd = first_sd_violation(t)
    if sd is not None:
        return ("self-distributivity", "SelfDistributivityFail", list(sd))
    for a in range(n):
        if t[bp][a] != bp:
            return ("pointedness", "NotPointed", [a, t[bp][a]])
        if t[a][bp] != a:
            return ("pointedness", "NotPointed", [a, t[a][bp]])
    return None


def first_group_violation(doc: dict) -> tuple[str, str, list[int]] | None:
    t = doc["table"]
    n = len(t)
    e = doc["identity"]
    for a in range(n):
        if t[e][a] != a or t[a][e] != a:
            return ("identity", "IdentityFail", [a])
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return ("associativity", "AssociativityFail", [a, b, c])
    for a in range(n):
        if not any(t[a][b] == e and t[b][a] == e for b in range(n)):
            return ("inverses", "InverseFail", [a])
    return None


# ------------------------------------------------------------------ digests


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """Certificates are hashed without ``timing-ms``, the one nondeterministic field."""
    data = path.read_bytes()
    if path.name.endswith(".cert.json"):
        doc = json.loads(data)
        doc.pop("timing-ms", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return sha256(data)


# ----------------------------------------------------------------- outcomes


def judge(job, workdir: Path, code, stdout: str, raised: BaseException | None) -> str | None:
    """None when the job's outcome is the expected one, else the reason."""
    if raised is not None:
        return f"cli.main raised {type(raised).__name__}: {raised}"[:300]
    if code != job.code:
        return f"exit {code}, expected {job.code}; stdout {stdout[:120]!r}"
    if job.stdout is not None and stdout != job.stdout:
        return f"stdout {stdout[:200]!r}, expected {job.stdout[:200]!r}"
    if job.check_stdout is not None:
        reason = job.check_stdout(stdout)
        if reason:
            return reason
    if job.fail is not None:
        kind, law, error, witness = job.fail
        if not stdout.startswith(f"FAIL check {kind} [{error}: "):
            return f"stdout {stdout[:200]!r} does not name {error}"
    if job.report is not None:
        cert = json.loads((workdir / job.report).read_text(encoding="utf-8"))
        verdict = "pass" if job.code == 0 else "fail"
        if cert.get("verdict") != verdict:
            return f"certificate verdict {cert.get('verdict')!r}, expected {verdict!r}"
        if job.fail is not None:
            first = (cert.get("witnesses") or [{}])[0]
            got = (first.get("law"), first.get("error"), first.get("witness"))
            if got != (law, error, witness):
                return f"certificate names {got}, reference scan found {(law, error, witness)}"
    if job.check_files is not None:
        return job.check_files(workdir)
    return None


def digests(job, workdir: Path, stdout: str) -> dict[str, str]:
    out = {"stdout": sha256(stdout.encode())}
    for rel in job.outputs + ((job.report,) if job.report else ()):
        path = workdir / rel
        if path.exists():
            out[rel] = file_digest(path)
    return out
