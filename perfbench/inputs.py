"""Seeded inputs and job lists for the four benchmark workloads.

Structures are built here from plain tables, without calling rackmod (the
``small-catalog`` workload is the exception: its documents come from
rackmod's own catalog). Every structure is then relabeled by a permutation
drawn from the seed that fixes the basepoint of a rack or the identity of a
group, so each seed gives an isomorphic copy of the same inputs. Counts and
verdicts do not depend on the seed; tables, witnesses and digests do. The
domains of the hom searches in ``certify-ladder`` are the exception: the
search visits a number of nodes that depends on their labeling, so they
keep one and only their codomains are relabeled.

Defects are planted after relabeling at fixed table positions, so the cost
of finding them does not depend on the seed.

Each job carries its expected outcome. Expected counts are computed from
the generated tables or pinned as relabeling-invariant constants; expected
failure witnesses come from the reference scans in ``oracle.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from pathlib import Path
from typing import Any, Callable

import oracle

FORMAT_VERSION = 1

# Relabeling-invariant counts. The enumeration counts are the pointed rack
# counts of orders 1-5; the hom counts are |Hom(cs3 x cz2, Conj G)|, where
# Conj(Z6) is the trivial rack on 6 points, so each of the five non-basepoint
# orbits of cs3 x cz2 maps freely: 6^5.
POINTED_RACK_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 19}
HOMS_CS3xCZ2_TO_S3 = 342
HOMS_CS3xCZ2_TO_Z6 = 6**5
# crossed-module morphisms identity_cs3 -> Conj(identity_s3) are the rack
# endomorphisms of cs3
XMOD_HOMS_CS3_S3 = 24


@dataclass
class Job:
    """One CLI call with its expected outcome.

    ``argv`` paths are relative to the work directory. ``stdout`` is the
    exact expected stdout, or ``check_stdout`` validates it; for exit-1 jobs ``fail`` holds the expected
    (kind, law, error, witness) and the certificate named by ``report`` is
    checked against it. ``check_files`` validates written documents and
    returns an error string or None. A job with ``known_defect`` set is
    expected to fail at the current code; its failure is counted but does
    not make the run incorrect.
    """

    name: str
    family: str
    argv: list[str]
    code: int
    stdout: str | None = None
    fail: tuple[str, str, str, list[int]] | None = None
    report: str | None = None
    outputs: tuple[str, ...] = ()
    check_stdout: Callable[[str], str | None] | None = None
    check_files: Callable[[Path], str | None] | None = None
    known_defect: str | None = None


@dataclass
class Workload:
    """A workload's inputs and jobs; its one-line reason is in BENCHMARK.json.

    ``prepare(workdir, cli)`` is the rackmod work that set-up times, if the
    workload needs any beyond the import and the corpus warm-up.
    ``build(seed, workdir)`` then writes the inputs and returns the jobs; it
    is the benchmark's own work and is not timed. ``cli_share_max`` bounds
    the share of traced pass time that the catch-all ``cli.self_ms`` may
    take; past it, work escapes the layer spans.
    """

    name: str
    build: Callable[[int, Path], list[Job]]
    prepare: Callable[[Path, Any], None] | None = None
    cli_share_max: float = 0.05


# ------------------------------------------------------------------ tables


def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


_S3_LABELS = {
    (0, 1, 2): "e",
    (0, 2, 1): "(23)",
    (1, 0, 2): "(12)",
    (1, 2, 0): "(123)",
    (2, 0, 1): "(132)",
    (2, 1, 0): "(13)",
}


def s3() -> tuple[list[list[int]], list[str]]:
    """S3 in lexicographic order, multiplying by applying the left factor first."""
    elems = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(elems)}
    table = [[idx[tuple(b[a[x]] for x in range(3))] for b in elems] for a in elems]
    return table, [_S3_LABELS[p] for p in elems]


def inverses(mul: list[list[int]], e: int) -> list[int]:
    return [row.index(e) for row in mul]


def conj_table(mul: list[list[int]], e: int) -> list[list[int]]:
    """a ◁ b = b^-1 a b."""
    inv = inverses(mul, e)
    n = len(mul)
    return [[mul[mul[inv[b]][a]][b] for b in range(n)] for a in range(n)]


def core_table(mul: list[list[int]], e: int) -> list[list[int]]:
    """a ◁ b = b a^-1 b."""
    inv = inverses(mul, e)
    n = len(mul)
    return [[mul[mul[b][inv[a]]][b] for b in range(n)] for a in range(n)]


# --------------------------------------------------------------- documents


def _label(doc: dict, a: int) -> str:
    labels = doc.get("labels")
    return labels[a] if labels else str(a)


def group_doc(mul, identity=0, labels=None) -> dict:
    doc = {"format-version": FORMAT_VERSION, "kind": "group", "size": len(mul),
           "table": mul, "identity": identity}
    if labels is not None:
        doc["labels"] = labels
    return doc


def rack_doc(table, basepoint=0, labels=None) -> dict:
    doc = {"format-version": FORMAT_VERSION, "kind": "rack", "size": len(table),
           "table": table, "basepoint": basepoint}
    if labels is not None:
        doc["labels"] = labels
    return doc


def hom_doc(dom, cod, mapping) -> dict:
    return {"format-version": FORMAT_VERSION, "kind": "hom", "dom": dom, "cod": cod,
            "map": list(mapping)}


def action_doc(actee, actor, table) -> dict:
    return {"format-version": FORMAT_VERSION, "kind": "action", "actee": actee,
            "actor": actor, "table": table}


def xmod_doc(kind, dom, cod, boundary, action) -> dict:
    return {"format-version": FORMAT_VERSION, "kind": kind, "dom": dom, "cod": cod,
            "boundary": list(boundary), "action": action}


def request_doc(xmod, hom) -> dict:
    return {"format-version": FORMAT_VERSION, "kind": "pullback-request",
            "xmod": xmod, "hom": hom}


def cyclic_doc(n: int) -> dict:
    return group_doc(cyclic(n), 0, [str(a) for a in range(n)])


def s3_doc() -> dict:
    table, labels = s3()
    return group_doc(table, 0, labels)


def conj_rack_doc(group: dict) -> dict:
    return rack_doc(conj_table(group["table"], group["identity"]), group["identity"],
                    group.get("labels"))


def trivial_rack_doc(n: int) -> dict:
    return rack_doc([[a] * n for a in range(n)], 0)


def product_rack_doc(p: dict, r: dict) -> dict:
    """Pair (a, b) at index a * |r| + b, as rackmod's product_rack lays it out."""
    pt, rt = p["table"], r["table"]
    w = len(rt)
    table = [[pt[a][c] * w + rt[b][d] for c in range(len(pt)) for d in range(w)]
             for a in range(len(pt)) for b in range(w)]
    labels = [f"({_label(p, a)},{_label(r, b)})" for a in range(len(pt)) for b in range(w)]
    return rack_doc(table, p["basepoint"] * w + r["basepoint"], labels)


def hemi_table(action: dict) -> list[list[int]]:
    """(s, r) ◁ (s', r') = (s.r', r ◁ r'), pair (s, r) at index s * |R| + r."""
    t = action["table"]
    rt = action["actor"]["table"]
    ns, w = len(t), len(rt)
    return [[t[s][rp] * w + rt[r][rp] for _sp in range(ns) for rp in range(w)]
            for s in range(ns) for r in range(w)]


def hemi_rack_doc(action: dict) -> dict:
    s_rack, r_rack = action["actee"], action["actor"]
    w = len(r_rack["table"])
    labels = [f"({_label(s_rack, s)},{_label(r_rack, r)})"
              for s in range(len(s_rack["table"])) for r in range(w)]
    return rack_doc(hemi_table(action), s_rack["basepoint"] * w + r_rack["basepoint"], labels)


def identity_hom_doc(x: dict) -> dict:
    return hom_doc(x, x, range(len(x["table"])))


def identity_rack_xmod_doc(r: dict) -> dict:
    return xmod_doc("rack-xmod", r, r, range(len(r["table"])), r["table"])


def identity_group_xmod_doc(g: dict) -> dict:
    return xmod_doc("group-xmod", g, g, range(len(g["table"])),
                    conj_table(g["table"], g["identity"]))


# -------------------------------------------------------------- relabeling


def permutation(seed: int, n: int, fixed: int | None) -> list[int]:
    """A seeded permutation of range(n) that fixes ``fixed`` (if any)."""
    rest = [x for x in range(n) if x != fixed]
    image = list(rest)
    random.Random(f"perfbench/{seed}/{n}/{fixed}").shuffle(image)
    perm = list(range(n))
    for x, y in zip(rest, image):
        perm[x] = y
    return perm


def _perm_of(doc: dict, seed: int) -> list[int]:
    """Equal structures get equal permutations, so shared endpoints stay equal."""
    kind = doc["kind"]
    fixed = doc["basepoint"] if kind == "rack" else doc["identity"] if kind == "group" else None
    return permutation(seed, len(doc["table"]), fixed)


def _relabel_square(table, p):
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        dst = out[p[a]]
        for b, v in enumerate(row):
            dst[p[b]] = p[v]
    return out


def _relabel_map(mapping, pd, pc):
    out = [0] * len(mapping)
    for x, v in enumerate(mapping):
        out[pd[x]] = pc[v]
    return out


def _relabel_action(table, pa, pr):
    """t'[pa(s)][pr(r)] = pa(t[s][r]) for an action of R on A."""
    out = [[0] * len(table[0]) for _ in table]
    for s, row in enumerate(table):
        dst = out[pa[s]]
        for r, v in enumerate(row):
            dst[pr[r]] = pa[v]
    return out


def relabel(doc: dict, seed: int) -> dict:
    """An isomorphic copy of any structure document under the seed's permutations."""
    kind = doc["kind"]
    new = dict(doc)
    if kind in ("rack", "unpointed-rack", "group"):
        p = _perm_of(doc, seed)
        new["table"] = _relabel_square(doc["table"], p)
        if doc.get("labels") is not None:
            labels = [""] * len(p)
            for a, text in enumerate(doc["labels"]):
                labels[p[a]] = text
            new["labels"] = labels
    elif kind == "hom":
        new["dom"], new["cod"] = relabel(doc["dom"], seed), relabel(doc["cod"], seed)
        new["map"] = _relabel_map(doc["map"], _perm_of(doc["dom"], seed), _perm_of(doc["cod"], seed))
    elif kind == "action":
        new["actee"], new["actor"] = relabel(doc["actee"], seed), relabel(doc["actor"], seed)
        new["table"] = _relabel_action(
            doc["table"], _perm_of(doc["actee"], seed), _perm_of(doc["actor"], seed))
    elif kind in ("rack-xmod", "group-xmod"):
        pd, pc = _perm_of(doc["dom"], seed), _perm_of(doc["cod"], seed)
        new["dom"], new["cod"] = relabel(doc["dom"], seed), relabel(doc["cod"], seed)
        new["boundary"] = _relabel_map(doc["boundary"], pd, pc)
        new["action"] = _relabel_action(doc["action"], pd, pc)
    elif kind == "pullback-request":
        new["xmod"], new["hom"] = relabel(doc["xmod"], seed), relabel(doc["hom"], seed)
    else:
        raise ValueError(f"cannot relabel a {kind!r} document")
    return new


def canonical(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write(workdir: Path, rel: str, doc: Any) -> str:
    path = workdir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc if isinstance(doc, str) else canonical(doc), encoding="utf-8")
    return rel


# ------------------------------------------------------- expected outcomes


def _size(doc: dict) -> int:
    return len(doc["table"])


def check_counts(doc: dict) -> dict[str, int]:
    """What ``check`` prints for a valid document, from the document alone."""
    kind = doc["kind"]
    if kind in ("rack", "unpointed-rack", "group"):
        return {"size": _size(doc)}
    if kind in ("hom", "rack-xmod", "group-xmod"):
        return {"dom-size": _size(doc["dom"]), "cod-size": _size(doc["cod"])}
    if kind == "action":
        return {"actee-size": _size(doc["actee"]), "actor-size": _size(doc["actor"])}
    raise ValueError(kind)


def _line(verdict: str, command: str, counts: dict[str, int], space: int | None = None) -> str:
    bits = [verdict, command] + [f"{k}={v}" for k, v in sorted(counts.items())]
    if space is not None:
        bits.append(f"search-space={space}")
    return " ".join(bits) + "\n"


def pullback_carrier(request: dict) -> int:
    """|{(p, s) : d(p) = phi(s)}|, the carrier of the pullback."""
    d = request["xmod"]["boundary"]
    phi = request["hom"]["map"]
    return sum(1 for p in range(len(d)) for s in range(len(phi)) if d[p] == phi[s])


def check_job(name, rel, doc, *, report=True) -> Job:
    argv = ["check", rel]
    cert = None
    if report:
        cert = f"out/{name}.cert.json"
        argv += ["--report", cert]
    return Job(name, "check", argv, 0, _line("PASS", f"check {doc['kind']}", check_counts(doc)),
               report=cert)


def planted_job(name, rel, doc, fail) -> Job:
    """An exit-1 check whose law and witness come from the reference scan."""
    law, error, witness = fail
    cert = f"out/{name}.cert.json"
    return Job(name, "check", ["check", rel, "--report", cert], 1,
               fail=(doc["kind"], law, error, witness), report=cert)


def universal_job(name, rel, request, report=None) -> Job:
    # the certificate quantifies over every map from the pullback carrier
    # to itself, so the search space is carrier^carrier
    carrier = pullback_carrier(request)
    argv = ["certify", "universal", rel] + (["--report", report] if report else [])
    counts = {"carrier-size": carrier, "factorizations": 1}
    return Job(name, "certify_universal", argv, 0,
               _line("PASS", "certify universal", counts, carrier**carrier), report=report)


def conj_preserves_job(name, rel, request, report=None) -> Job:
    argv = ["certify", "conj-preserves", rel] + (["--report", report] if report else [])
    counts = {"carrier-size": pullback_carrier(request)}
    return Job(name, "certify_conj_preserves", argv, 0,
               _line("PASS", "certify conj-preserves", counts), report=report)


def _expect_table(out_rel: str, kind: str, table, basepoint=None):
    """A file check: the written document has this kind, table and basepoint."""

    def check(workdir: Path) -> str | None:
        doc = json.loads((workdir / out_rel).read_text(encoding="utf-8"))
        if doc.get("kind") != kind or doc.get("table") != table:
            return f"{out_rel}: unexpected {doc.get('kind')} table"
        if basepoint is not None and doc.get("basepoint") != basepoint:
            return f"{out_rel}: basepoint {doc.get('basepoint')} != {basepoint}"
        return None

    return check


def _expect_xmod(out_rel: str, kind: str, dom: int, cod: int, hom_rel: str | None = None):
    """A file check for constructions whose tables the benchmark does not rebuild."""

    def check(workdir: Path) -> str | None:
        doc = json.loads((workdir / out_rel).read_text(encoding="utf-8"))
        got = (doc.get("kind"), len(doc["dom"]["table"]), len(doc["cod"]["table"]))
        if got != (kind, dom, cod):
            return f"{out_rel}: got {got}, expected {(kind, dom, cod)}"
        if hom_rel is not None:
            hom = json.loads((workdir / hom_rel).read_text(encoding="utf-8"))
            if hom.get("kind") != "hom" or len(hom["map"]) != dom:
                return f"{hom_rel}: not a hom on the {dom}-element carrier"
        return None

    return check


def construct_job(name, argv, kind, out, note, *, check_files=None, hom_out=None) -> Job:
    stdout = ""
    outputs = (out,)
    if hom_out:
        stdout += f"wrote hom to {hom_out} (comparison back to the source)\n"
        outputs = (hom_out, out)
    stdout += f"wrote {kind} to {out} ({note})\n"
    return Job(name, "construct", ["construct"] + argv, 0, stdout, outputs=outputs,
               check_files=check_files)


# -------------------------------------------------------------- workloads


def _cs3() -> dict:
    return conj_rack_doc(s3_doc())


def _cz2() -> dict:
    return conj_rack_doc(cyclic_doc(2))


def build_certify_ladder(seed: int, workdir: Path) -> list[Job]:
    rl = partial(relabel, seed=seed)
    jobs = []
    cs3 = _cs3()
    for k in (6, 7):
        t = trivial_rack_doc(k)
        req = rl(request_doc(identity_rack_xmod_doc(t), identity_hom_doc(t)))
        jobs.append(universal_job(f"universal-t{k}", write(workdir, f"in/univ-t{k}.json", req), req))
    req = rl(request_doc(identity_rack_xmod_doc(cs3), identity_hom_doc(cs3)))
    jobs.append(universal_job("universal-cs3", write(workdir, "in/univ-cs3.json", req), req))
    z7 = cyclic_doc(7)
    req = rl(request_doc(identity_group_xmod_doc(z7), identity_hom_doc(z7)))
    jobs.append(universal_job("universal-z7", write(workdir, "in/univ-z7.json", req), req))
    for name, g in (("z8", cyclic_doc(8)), ("s3", s3_doc())):
        req = rl(request_doc(identity_group_xmod_doc(g), identity_hom_doc(g)))
        jobs.append(conj_preserves_job(
            f"conj-preserves-{name}", write(workdir, f"in/conjp-{name}.json", req), req))
    # The hom searches assign the domain's elements in index order, so the
    # number of nodes they visit depends on the domain's labeling (calls
    # varied 1.57x over five seeds). The domains keep one labeling and the
    # seed relabels only the codomains, which leaves the search tree isomorphic.
    x = write(workdir, "in/cs3xcz2.json", product_rack_doc(cs3, _cz2()))
    for gname, g, homs in (("s3", s3_doc(), HOMS_CS3xCZ2_TO_S3), ("z6", cyclic_doc(6), HOMS_CS3xCZ2_TO_Z6)):
        grel = write(workdir, f"in/{gname}.json", rl(g))
        counts = {"rack-homs": homs, "presented-homs": homs}
        jobs.append(Job(f"adjunction-{gname}", "certify_adjunction",
                        ["certify", "adjunction", x, grel], 0,
                        _line("PASS", "certify adjunction", counts, len(g["table"]) ** 12)))
    rx = write(workdir, "in/xmod-cs3.json", identity_rack_xmod_doc(cs3))
    gx = write(workdir, "in/gxmod-s3.json", rl(identity_group_xmod_doc(s3_doc())))
    counts = {"rack-side": XMOD_HOMS_CS3_S3, "group-side": XMOD_HOMS_CS3_S3}
    jobs.append(Job("xmod-adjunction-cs3", "certify_xmod_adjunction",
                    ["certify", "xmod-adjunction", rx, gx], 0,
                    _line("PASS", "certify xmod-adjunction", counts, 6**6 * 6**6)))
    # --bound is explicit so that RACKMOD_CORPUS_BOUND cannot change the job
    jobs.append(Job("corpus-bound5", "corpus", ["corpus", "--bound", "5"], 0,
                    check_stdout=lambda out: corpus_stdout_ok(out, 5)))
    return jobs


def corpus_stdout_ok(stdout: str, bound: int) -> str | None:
    """The enumeration lines must carry the pinned counts; catalog lines follow."""
    lines = stdout.splitlines()
    want = [f"pointed racks of size {n}, up to isomorphism: {POINTED_RACK_COUNTS[n]}"
            for n in range(1, bound + 1)]
    if lines[:bound] != want:
        return f"enumeration counts {lines[:bound]} != {want}"
    if not lines[bound:] or not all(
        line.startswith("catalog ") and line.endswith(" entries") for line in lines[bound:]
    ):
        return "catalog summary lines are missing or malformed"
    return None


def build_check_large(seed: int, workdir: Path) -> list[Job]:
    rl = partial(relabel, seed=seed)
    jobs = []
    cs3 = _cs3()
    cs3sq = product_rack_doc(cs3, cs3)
    rack216 = rl(product_rack_doc(cs3sq, cs3))
    conj12 = product_rack_doc(cs3, _cz2())
    valid = [
        ("rack216", rack216),
        ("hemi144", rl(hemi_rack_doc(action_doc(conj12, conj12, conj12["table"])))),
        ("z128", rl(cyclic_doc(128))),
        ("gxmod-z96", rl(identity_group_xmod_doc(cyclic_doc(96)))),
        ("gxmod-z128", rl(identity_group_xmod_doc(cyclic_doc(128)))),
        ("xmod-cs3sq", rl(identity_rack_xmod_doc(cs3sq))),
        ("proj-cs3sq", rl(hom_doc(cs3sq, cs3, [i // 6 for i in range(36)]))),
        ("action-cs3sq", rl(action_doc(cs3sq, cs3sq, cs3sq["table"]))),
    ]
    for name, doc in valid:
        jobs.append(check_job(name, write(workdir, f"in/{name}.json", doc), doc, report=False))
    n = len(rack216["table"])
    # a duplicate in column 1, in the last row: found after one column scan
    early = json.loads(json.dumps(rack216))
    early["table"][n - 1][1] = early["table"][n - 2][1]
    # the last row declared as basepoint: found after the full column and
    # self-distributivity scans
    late = dict(rack216, basepoint=n - 1)
    # two entries of the last row of Z128 swapped
    z128 = json.loads(json.dumps(dict(valid)["z128"]))
    row = z128["table"][-1]
    row[-1], row[-2] = row[-2], row[-1]
    for name, doc, scan in (
        ("rack216-early", early, oracle.first_rack_violation),
        ("rack216-late", late, oracle.first_rack_violation),
        ("z128-assoc", z128, oracle.first_group_violation),
    ):
        fail = scan(doc)
        if fail is None:
            raise RuntimeError(f"the reference scan finds no defect in {name}")
        jobs.append(planted_job(name, write(workdir, f"in/{name}.json", doc), doc, fail))
    return jobs


def build_construct_emit(seed: int, workdir: Path) -> list[Job]:
    rl = partial(relabel, seed=seed)
    jobs = []
    cs3 = rl(_cs3())
    cs3sq = rl(product_rack_doc(_cs3(), _cs3()))
    left = write(workdir, "in/cs3sq.json", cs3sq)
    right = write(workdir, "in/cs3.json", cs3)
    prod = product_rack_doc(cs3sq, cs3)
    jobs.append(construct_job(
        "product216", ["product", left, right, "--out", "out/product.json"], "rack",
        "out/product.json", "size 216",
        check_files=_expect_table("out/product.json", "rack", prod["table"], prod["basepoint"])))
    z96 = rl(cyclic_doc(96))
    g = write(workdir, "in/z96.json", z96)
    jobs.append(construct_job(
        "conj-z96", ["conj", g, "--out", "out/conj96.json"], "rack", "out/conj96.json", "size 96",
        check_files=_expect_table("out/conj96.json", "rack", conj_table(z96["table"], 0), 0)))
    jobs.append(construct_job(
        "core-z96", ["core", g, "--out", "out/core96.json"], "unpointed-rack", "out/core96.json",
        "size 96",
        check_files=_expect_table("out/core96.json", "unpointed-rack", core_table(z96["table"], 0))))
    conj12 = product_rack_doc(_cs3(), _cz2())
    action = rl(action_doc(conj12, conj12, conj12["table"]))
    hemi = hemi_rack_doc(action)
    jobs.append(construct_job(
        "hemisemi144", ["hemisemi", write(workdir, "in/action12.json", action), "--out",
                        "out/hemi.json"], "rack", "out/hemi.json", "size 144",
        check_files=_expect_table("out/hemi.json", "rack", hemi["table"], hemi["basepoint"])))
    sq = product_rack_doc(_cs3(), _cs3())
    req = write(workdir, "in/pb-cs3sq.json", rl(request_doc(identity_rack_xmod_doc(sq), identity_hom_doc(sq))))
    jobs.append(construct_job(
        "pullback36", ["pullback", req, "--out", "out/pb.json", "--hom-out", "out/pb-hom.json"],
        "rack-xmod", "out/pb.json", "carrier size 36", hom_out="out/pb-hom.json",
        check_files=_expect_xmod("out/pb.json", "rack-xmod", 36, 36, "out/pb-hom.json")))
    z48 = cyclic_doc(48)
    req = write(workdir, "in/gpb-z48.json", rl(request_doc(identity_group_xmod_doc(z48), identity_hom_doc(z48))))
    jobs.append(construct_job(
        "group-pullback48", ["group-pullback", req, "--out", "out/gpb.json", "--hom-out",
                             "out/gpb-hom.json"],
        "group-xmod", "out/gpb.json", "carrier size 48", hom_out="out/gpb-hom.json",
        check_files=_expect_xmod("out/gpb.json", "group-xmod", 48, 48, "out/gpb-hom.json")))
    xm = write(workdir, "in/xmod-cs3sq.json", rl(identity_rack_xmod_doc(sq)))
    jobs.append(construct_job(
        "fiber36", ["fiber", xm, xm, "--out", "out/fiber.json"], "rack-xmod", "out/fiber.json",
        "carrier size 36", check_files=_expect_xmod("out/fiber.json", "rack-xmod", 36, 36)))
    return jobs


def prepare_small_catalog(workdir: Path, rackmod_cli) -> None:
    """Write rackmod's own catalog, which ``build_small_catalog`` reads."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = rackmod_cli.main(["corpus", "--bound", "4", "--out", str(workdir / "raw")])
    if code != 0:
        raise RuntimeError("corpus --bound 4 --out failed during set-up")


def build_small_catalog(seed: int, workdir: Path) -> list[Job]:
    """Catalog documents from rackmod itself, relabeled, plus malformed inputs."""
    interchange = sys.modules["rackmod.interchange"]
    corpus = sys.modules["rackmod.corpus"]
    raw = workdir / "raw"
    jobs = []
    for path in sorted(raw.glob("*.json")):
        doc = relabel(json.loads(path.read_text(encoding="utf-8")), seed)
        rel = write(workdir, f"in/cat/{path.name}", doc)
        jobs.append(check_job(f"check-{path.stem}", rel, doc))
    for i, (name, xm, hom) in enumerate(corpus.pullback_instances()):
        req = relabel(request_doc(interchange.rack_xmod_document(xm), interchange.hom_document(hom)), seed)
        rel = write(workdir, f"in/pb/{i:02d}.json", req)
        jobs.append(universal_job(f"universal-{name}", rel, req, report=f"out/pb{i:02d}.cert.json"))
    for i, (name, gx, hom) in enumerate(corpus.conj_preservation_instances()):
        req = relabel(request_doc(interchange.group_xmod_document(gx), interchange.hom_document(hom)), seed)
        rel = write(workdir, f"in/cp/{i:02d}.json", req)
        jobs.append(conj_preserves_job(f"conj-preserves-{name}", rel, req, report=f"out/cp{i:02d}.cert.json"))
    cat = "in/cat/"
    s3g = json.loads((workdir / cat / "group-s3.json").read_text(encoding="utf-8"))
    z6 = json.loads((workdir / cat / "group-z6.json").read_text(encoding="utf-8"))
    jobs.append(construct_job(
        "conj-s3", ["conj", cat + "group-s3.json", "--out", "out/cs3.json"], "rack", "out/cs3.json",
        "size 6", check_files=_expect_table("out/cs3.json", "rack", conj_table(s3g["table"], 0), 0)))
    jobs.append(construct_job(
        "core-z6", ["core", cat + "group-z6.json", "--out", "out/core6.json"], "unpointed-rack",
        "out/core6.json", "size 6",
        check_files=_expect_table("out/core6.json", "unpointed-rack", core_table(z6["table"], 0))))
    cz2 = json.loads((workdir / cat / "rack-cz2.json").read_text(encoding="utf-8"))
    cz3 = json.loads((workdir / cat / "rack-cz3.json").read_text(encoding="utf-8"))
    prod = product_rack_doc(cz2, cz3)
    jobs.append(construct_job(
        "product-cz2-cz3", ["product", cat + "rack-cz2.json", cat + "rack-cz3.json", "--out",
                            "out/prod6.json"], "rack", "out/prod6.json", "size 6",
        check_files=_expect_table("out/prod6.json", "rack", prod["table"], prod["basepoint"])))
    jobs.extend(_malformed(workdir, relabel(_cs3(), seed)))
    return jobs


def _malformed(workdir: Path, cs3: dict) -> list[Job]:
    """Unusable inputs; the README contract is exit 2 with nothing on stdout."""
    out_of_range = json.loads(json.dumps(cs3))
    out_of_range["table"][5][5] = 6
    missing = {k: v for k, v in cs3.items() if k != "table"}
    cases = [
        ("bad-json", '{"format-version": 1, "kind": "rack", "table": [[0]', None),
        ("format-version", dict(cs3, **{"format-version": 2}), None),
        ("missing-key", missing, None),
        ("out-of-range", out_of_range, None),
        ("float-entries", rack_doc([[0.9, 0.2], [1.7, 1]], 0),
         "non-integer table entries are truncated by int() and pass"),
        ("path-cycle", rack_doc({"path": "path-cycle.json"}, 0),
         "a {\"path\"} reference cycle raises RecursionError"),
    ]
    jobs = []
    for name, doc, defect in cases:
        rel = write(workdir, f"in/bad/{name}.json", doc)
        jobs.append(Job(f"malformed-{name}", "check", ["check", rel], 2, "", known_defect=defect))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-ladder", build_certify_ladder),
        Workload("check-large", build_check_large),
        Workload("construct-emit", build_construct_emit),
        # the only workload where per-call overhead in cli dominates
        Workload("small-catalog", build_small_catalog, prepare_small_catalog, cli_share_max=1.0),
    )
}
