"""Command-line front end over the JSON interchange format.

Four command families:

* ``check FILE``: parse and fully validate one structure document.
* ``construct ...``: build derived structures and write them out.
* ``certify ...``: run an exhaustive verification and optionally write a
  certificate document (``--report``).
* ``corpus``: enumerate small pointed racks and dump the built-in catalog.

Exit codes: 0 when every requested law holds, 1 when a validated law or a
certification fails, 2 for unusable input (malformed documents, missing
files, bad arguments, exceeded bounds).

Stdout is deterministic; wall-clock timing appears only in the
``timing-ms`` field of ``--report`` files.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterable
from functools import cache
from pathlib import Path
from typing import Any

from .corpus import (
    group_homs,
    group_xmods,
    groups,
    rack_homs,
    rack_xmods,
    racks,
    unpointed_racks,
)
from .errors import AxiomError, BoundExceeded, ParseError
from .functors import check_adjunction_bijection, check_xmod_adjunction
from .groups import FiniteGroup
from .interchange import (
    _file_identity,
    certificate_document,
    document_for,
    load_document,
    parse_document,
    write_document,
)
from .isomorphism import ENUMERATION_CEILING, enumerate_pointed_racks
from .pullback import (
    check_conj_preserves_pullback,
    fiber_product,
    fiber_product_xmod,
    pullback_xmod,
    verify_universal_property,
)
from .racks import FiniteRack, conj_hom, conj_rack, core_rack, product_rack
from .tables import FiniteStructure, Hom
from .xmod import RackAction, XMod, XModMorphism, hemi_semidirect


def _failure(exc: AxiomError) -> dict[str, Any]:
    return {
        "law": exc.law,
        "error": type(exc).__name__,
        "message": str(exc),
        "witness": exc.witness,
    }


def _counts_for(obj: Any) -> dict[str, int]:
    if isinstance(obj, FiniteStructure):
        return {"size": obj.size}
    if isinstance(obj, (Hom, XMod)):
        return {"dom-size": obj.dom.size, "cod-size": obj.cod.size}
    if isinstance(obj, RackAction):
        return {"actee-size": obj.actee.size, "actor-size": obj.actor.size}
    if isinstance(obj, XModMorphism):
        return {"src-dom-size": obj.src.dom.size, "dst-dom-size": obj.dst.dom.size}
    if isinstance(obj, tuple) and len(obj) == 2:
        source, hom = obj
        return {"xmod-dom-size": source.dom.size, "hom-dom-size": hom.dom.size}


def _certified(args: argparse.Namespace, command: str, fn) -> int:
    """Run the check ``fn``, print its verdict line and write its certificate
    to ``args.report``, if one is named, with the digests of the files the
    inputs were read from (``_load_input``)."""
    t0 = time.perf_counter()
    counts = search_space = None
    try:
        counts, witnesses, search_space = fn()
        verdict = "pass"
    except AxiomError as exc:
        verdict, witnesses = "fail", [_failure(exc)]
    if args.report is not None:
        doc = certificate_document(
            command,
            verdict,
            counts=counts,
            witnesses=witnesses,
            search_space=search_space,
            timing_ms=round((time.perf_counter() - t0) * 1000.0, 3),
            input_digests=args.digests,
        )
        _write_all([(doc, args.report)])
    bits = [verdict.upper(), command]
    if counts:
        bits.extend(f"{k}={v}" for k, v in sorted(counts.items()))
    if search_space is not None:
        bits.append(f"search-space={search_space}")
    line = " ".join(bits)
    if verdict == "fail" and witnesses:
        first = witnesses[0]
        line += f" [{first['error']}: {first['message']}]"
    print(line)
    return 0 if verdict == "pass" else 1


def _load_input(args: argparse.Namespace, dest: str) -> dict[str, Any]:
    """The document at the path ``args.<dest>``.

    Every file it was read from, a file that a ``{"path": ...}`` reference
    names included, has the digest of the bytes that were read recorded in
    ``args.digests``, under the input's role (``dest`` with dashes) and the
    references that reach it, as in ``"request -> xmod.json"``.  Such a file
    that is also an output in ``args.writes`` is refused, so that the
    command cannot replace an input.
    """
    read: list = []
    doc = load_document(getattr(args, dest), read=read)
    for here, digest, chain in read:
        args.digests[" -> ".join((dest.replace("_", "-"), *chain))] = digest
    for out, same in args.writes.items():
        if same in {here for here, _, _ in read}:
            raise ValueError(f"cannot write {out}: it is an input of the command")
    return doc


def _read(args: argparse.Namespace, dest: str, *kinds: str, refusal: str | None = None) -> Any:
    """The structure in the document at ``args.<dest>``, loaded by
    ``_load_input`` and parsed by its kind.

    A document of a kind not in ``kinds`` is refused before it is parsed,
    with ``refusal`` (by default, the kinds expected) and the kind it has.
    """
    doc = _load_input(args, dest)
    kind = doc.get("kind")
    if kind not in kinds:
        expected = refusal or "expected kind " + " or ".join(map(repr, kinds))
        raise ParseError(f"{expected}, got {kind!r}")
    return parse_document(doc)


# -------------------------------------------------------------------- check


def cmd_check(args: argparse.Namespace) -> int:
    doc = _load_input(args, "input")
    kind = doc.get("kind")
    if kind == "certificate":
        raise ParseError("certificate documents are tool output, not checkable structures")

    def fn():
        return _counts_for(parse_document(doc)), None, None

    return _certified(args, f"check {kind}", fn)


# ---------------------------------------------------------------- construct


def _claim_outputs(outputs: Iterable[str | Path]) -> dict[str | Path, tuple]:
    """Each output path mapped to the file it names, by ``_file_identity``
    or, for a file that does not exist yet, by its directory's identity and
    its name.

    An output that is an empty path, that is an existing directory, that
    lies in a directory that does not exist, or that names the same file as
    an earlier output is refused; a command claims its outputs before it
    reads anything.
    """
    claimed: dict[str | Path, tuple] = {}
    for out in outputs:
        if out == "":
            raise ValueError("cannot write to an empty path")
        if os.path.isdir(out):
            raise IsADirectoryError(f"cannot write {out}: it is a directory")
        parent = os.path.dirname(out)
        if parent and not os.path.isdir(parent):
            raise NotADirectoryError(f"cannot write {out}: {parent} is not a directory")
        try:
            same = _file_identity(out)
        except FileNotFoundError:
            same = _file_identity(parent or "."), os.path.basename(out)
        if same in claimed.values():
            raise ValueError(f"cannot write {out}: the command writes another document there")
        claimed[out] = same
    return claimed


def _write_all(outputs: Iterable[tuple[dict[str, Any], str | Path]]) -> None:
    """Write every (document, path) to a temporary file beside its path, then
    move each onto its path in order, so that a failed write leaves no file.

    The paths are claimed (``_claim_outputs``) before the command reads
    anything.  On a failure every temporary file is removed; a failure
    while moving leaves the documents already moved in place.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for doc, out in outputs:
            target = Path(out)
            tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
            staged.append((tmp, target))
            write_document(doc, tmp)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _write(*outputs: tuple[dict[str, Any], str, str]) -> int:
    """Write every (document, path, note), then name each on stdout, so that
    a failed write prints nothing."""
    _write_all((doc, out) for doc, out, _ in outputs)
    for doc, out, note in outputs:
        print(f"wrote {doc['kind']} to {out} ({note})")
    return 0


def cmd_construct_conj(args: argparse.Namespace) -> int:
    refusal = "conj expects a group or a group hom"
    x = _read(args, "file", "group", "hom", refusal=refusal)
    if isinstance(x, FiniteGroup):
        rack = conj_rack(x)
        return _write((document_for(rack), args.out, f"size {rack.size}"))
    if not isinstance(x.dom, FiniteGroup):
        raise ParseError("conj of a hom needs group endpoints")
    rh = conj_hom(x)
    return _write((document_for(rh), args.out, f"sizes {rh.dom.size} -> {rh.cod.size}"))


def cmd_construct_core(args: argparse.Namespace) -> int:
    rack = core_rack(_read(args, "file", "group"))
    return _write((document_for(rack), args.out, f"size {rack.size}"))


def cmd_construct_product(args: argparse.Namespace) -> int:
    left, right = (_read(args, dest, "rack") for dest in ("left", "right"))
    rack = product_rack(left, right)
    return _write((document_for(rack), args.out, f"size {rack.size}"))


def cmd_construct_hemisemi(args: argparse.Namespace) -> int:
    rack = hemi_semidirect(_read(args, "file", "action"))
    return _write((document_for(rack), args.out, f"size {rack.size}"))


def cmd_construct_fiber(args: argparse.Namespace) -> int:
    refusal = "fiber expects two rack-xmods or two rack homs"
    left = _read(args, "left", "rack-xmod", "hom", refusal=refusal)
    kind = "rack-xmod" if isinstance(left, XMod) else "hom"
    right = _read(args, "right", kind, refusal=refusal)
    if isinstance(left, XMod):
        xm = fiber_product_xmod(left, right)
        return _write((document_for(xm), args.out, f"carrier size {xm.dom.size}"))
    if not (isinstance(left.dom, FiniteRack) and isinstance(right.dom, FiniteRack)):
        raise ParseError("fiber of homs needs rack endpoints")
    carrier = fiber_product(left, right)[0].dom
    return _write((document_for(carrier), args.out, f"size {carrier.size}"))


def cmd_construct_pullback(args: argparse.Namespace) -> int:
    """``construct pullback`` and ``construct group-pullback``; ``args.kind`` is
    the structure the subcommand pulls back, ``args.wrong_kind`` its refusal."""
    source, phi = _read(args, "file", "pullback-request")
    if not isinstance(source.dom, args.kind):
        raise ParseError(args.wrong_kind)
    pb = pullback_xmod(source, phi)
    outputs = [(document_for(pb.src), args.out, f"carrier size {pb.src.dom.size}")]
    if args.hom_out is not None:
        note = "comparison back to the source"
        outputs.insert(0, (document_for(pb.f1), args.hom_out, note))
    return _write(*outputs)


# ------------------------------------------------------------------ certify


def cmd_certify_universal(args: argparse.Namespace) -> int:
    source, phi = _read(args, "request", "pullback-request")

    def fn():
        pb = pullback_xmod(source, phi)
        cert = verify_universal_property(pb, pb)
        counts = {"carrier-size": pb.src.dom.size, "factorizations": 1}
        return counts, None, cert.search_space

    return _certified(args, "certify universal", fn)


def cmd_certify_adjunction(args: argparse.Namespace) -> int:
    rack = _read(args, "rack", "rack")
    group = _read(args, "group", "group")

    def fn():
        count = check_adjunction_bijection(rack, group)
        counts = {"rack-homs": count, "presented-homs": count}
        return counts, None, group.size**rack.size

    return _certified(args, "certify adjunction", fn)


def cmd_certify_xmod_adjunction(args: argparse.Namespace) -> int:
    rx = _read(args, "rack_xmod", "rack-xmod")
    gx = _read(args, "group_xmod", "group-xmod")

    def fn():
        count = check_xmod_adjunction(rx, gx)
        counts = {"rack-side": count, "group-side": count}
        space = (gx.dom.size ** rx.dom.size) * (gx.cod.size ** rx.cod.size)
        return counts, None, space

    return _certified(args, "certify xmod-adjunction", fn)


def cmd_certify_conj_preserves(args: argparse.Namespace) -> int:
    source, phi = _read(args, "request", "pullback-request")
    if not isinstance(source.dom, FiniteGroup):
        raise ParseError("conj-preserves expects a group-xmod request")

    def fn():
        m = check_conj_preserves_pullback(source, phi)
        witnesses = [{"f1": list(m.f1.map), "f0": list(m.f0.map)}]
        return {"carrier-size": m.src.dom.size}, witnesses, None

    return _certified(args, "certify conj-preserves", fn)


# ------------------------------------------------------------------- corpus


_CATALOGS = (
    ("group", groups),
    ("rack", racks),
    ("unpointed-rack", unpointed_racks),
    ("group-hom", group_homs),
    ("rack-hom", rack_homs),
    ("rack-xmod", rack_xmods),
    ("group-xmod", group_xmods),
)


def cmd_corpus(args: argparse.Namespace) -> int:
    if args.outdir == "":
        raise ValueError("cannot write to an empty path")
    bound = args.bound
    if bound < 1:
        raise ParseError(f"bound must be at least 1, got {bound}")
    if bound > ENUMERATION_CEILING:
        raise BoundExceeded(f"corpus bound {bound} is above the ceiling {ENUMERATION_CEILING}")
    per_size = {n: enumerate_pointed_racks(n) for n in range(1, bound + 1)}
    lines = [
        f"pointed racks of size {n}, up to isomorphism: {len(found)}"
        for n, found in per_size.items()
    ]
    lines += [f"catalog {prefix}: {len(catalog())} entries" for prefix, catalog in _CATALOGS]
    # every document is written before the first line is printed, so that a
    # failed write leaves stdout empty
    if args.outdir is not None:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = [
            (document_for(obj), outdir / f"{prefix}-{name}.json")
            for prefix, catalog in _CATALOGS
            for name, obj in catalog().items()
        ]
        outputs += [
            (document_for(rk), outdir / f"enum-rack-{n}-{i}.json")
            for n, found in per_size.items()
            for i, rk in enumerate(found)
        ]
        _claim_outputs(out for _, out in outputs)
        _write_all(outputs)
        lines.append(f"wrote {len(outputs)} documents to {outdir}")
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------- glue


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rackmod",
        description="validate, construct, and certify finite racks and crossed modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate one document")
    check.add_argument("input", metavar="file")
    check.add_argument("--report", help="write a certificate document here")
    check.set_defaults(func=cmd_check)

    construct = sub.add_parser("construct", help="build derived structures")
    csub = construct.add_subparsers(dest="what", required=True)

    conj = csub.add_parser("conj", help="conjugation rack of a group (or hom)")
    conj.add_argument("file")
    conj.add_argument("--out", required=True)
    conj.set_defaults(func=cmd_construct_conj)

    core = csub.add_parser("core", help="core rack of a group")
    core.add_argument("file")
    core.add_argument("--out", required=True)
    core.set_defaults(func=cmd_construct_core)

    prod = csub.add_parser("product", help="product of two pointed racks")
    prod.add_argument("left")
    prod.add_argument("right")
    prod.add_argument("--out", required=True)
    prod.set_defaults(func=cmd_construct_product)

    hemi = csub.add_parser("hemisemi", help="hemi-semidirect rack of an action")
    hemi.add_argument("file")
    hemi.add_argument("--out", required=True)
    hemi.set_defaults(func=cmd_construct_hemisemi)

    fiber = csub.add_parser("fiber", help="fiber product of crossed modules or homs")
    fiber.add_argument("left")
    fiber.add_argument("right")
    fiber.add_argument("--out", required=True)
    fiber.set_defaults(func=cmd_construct_fiber)

    for name, kind, what, wrong_kind in (
        ("pullback", FiniteRack, "racks",
         "pullback expects a rack-xmod request; use group-pullback for groups"),
        ("group-pullback", FiniteGroup, "groups", "group-pullback expects a group-xmod request"),
    ):
        pull = csub.add_parser(name, help=f"pull a crossed module of {what} back along a hom")
        pull.add_argument("file", help="a pullback-request document")
        pull.add_argument("--out", required=True)
        pull.add_argument("--hom-out", help="also write the comparison hom")
        pull.set_defaults(func=cmd_construct_pullback, kind=kind, wrong_kind=wrong_kind)

    certify = sub.add_parser("certify", help="run an exhaustive verification")
    ssub = certify.add_subparsers(dest="what", required=True)

    universal = ssub.add_parser(
        "universal", help="brute-force the pullback universal property"
    )
    universal.add_argument("request", metavar="file", help="a pullback-request document")
    universal.add_argument("--report")
    universal.set_defaults(func=cmd_certify_universal)

    adj = ssub.add_parser("adjunction", help="rack homs vs presented group homs")
    adj.add_argument("rack")
    adj.add_argument("group")
    adj.add_argument("--report")
    adj.set_defaults(func=cmd_certify_adjunction)

    xadj = ssub.add_parser(
        "xmod-adjunction", help="crossed-module morphisms vs presented pairs"
    )
    xadj.add_argument("rack_xmod")
    xadj.add_argument("group_xmod")
    xadj.add_argument("--report")
    xadj.set_defaults(func=cmd_certify_xmod_adjunction)

    conjp = ssub.add_parser(
        "conj-preserves", help="conjugation of a group pullback vs rack pullback"
    )
    conjp.add_argument("request", metavar="file", help="a pullback-request document")
    conjp.add_argument("--report")
    conjp.set_defaults(func=cmd_certify_conj_preserves)

    corpus = sub.add_parser("corpus", help="enumerate small racks and dump the catalog")
    corpus.add_argument("--out", dest="outdir", metavar="OUT",
                        help="directory to write catalog documents into")
    corpus.add_argument(
        "--bound",
        type=int,
        default=3,
        help=f"largest rack size, at most {ENUMERATION_CEILING} (default: 3)",
    )
    corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # every output is claimed, in write order, before any input is read
    outputs = [getattr(args, flag, None) for flag in ("hom_out", "out", "report")]
    try:
        args.writes, args.digests = _claim_outputs(o for o in outputs if o is not None), {}
        return args.func(args)
    except (ParseError, BoundExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        print(f"FAIL {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
