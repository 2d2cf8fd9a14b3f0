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
import sys
import time
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
    certificate_document,
    digest_file,
    document_for,
    hom_document,
    load_document,
    parse_action,
    parse_document,
    parse_group,
    parse_group_xmod,
    parse_hom,
    parse_pullback_request,
    parse_rack,
    parse_rack_xmod,
    rack_document,
    unpointed_rack_document,
    write_document,
)
from .isomorphism import enumerate_pointed_racks
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


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _failure(exc: AxiomError) -> dict[str, Any]:
    return {
        "law": exc.law,
        "error": type(exc).__name__,
        "message": str(exc),
        "witness": _jsonable(exc.witness),
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
    return {}


def _emit(
    args: argparse.Namespace,
    command: str,
    inputs: list[tuple[str, str]],
    verdict: str,
    *,
    counts: dict[str, int] | None = None,
    witnesses: list[Any] | None = None,
    search_space: int | None = None,
    t0: float,
) -> int:
    report = getattr(args, "report", None)
    if report:
        doc = certificate_document(
            command,
            verdict,
            counts=counts,
            witnesses=witnesses,
            search_space=search_space,
            timing_ms=round((time.perf_counter() - t0) * 1000.0, 3),
            input_digests={name: digest_file(path) for name, path in inputs},
        )
        write_document(doc, report)
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


def _certified(args: argparse.Namespace, command: str, inputs: list[tuple[str, str]], fn) -> int:
    t0 = time.perf_counter()
    try:
        counts, witnesses, search_space = fn()
    except AxiomError as exc:
        return _emit(args, command, inputs, "fail", witnesses=[_failure(exc)], t0=t0)
    return _emit(
        args,
        command,
        inputs,
        "pass",
        counts=counts,
        witnesses=witnesses,
        search_space=search_space,
        t0=t0,
    )


# -------------------------------------------------------------------- check


def cmd_check(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    kind = doc.get("kind")
    if kind == "certificate":
        raise ParseError("certificate documents are tool output, not checkable structures")

    def fn():
        return _counts_for(parse_document(doc)), None, None

    return _certified(args, f"check {kind}", [("input", args.file)], fn)


# ---------------------------------------------------------------- construct


def _write(doc: dict[str, Any], out: str, note: str) -> int:
    write_document(doc, out)
    print(f"wrote {doc['kind']} to {out} ({note})")
    return 0


def cmd_construct_conj(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    kind = doc.get("kind")
    if kind == "group":
        rack = conj_rack(parse_group(doc))
        return _write(rack_document(rack), args.out, f"size {rack.size}")
    if kind == "hom":
        hom = parse_hom(doc)
        if not isinstance(hom.dom, FiniteGroup):
            raise ParseError("conj of a hom needs group endpoints")
        rh = conj_hom(hom)
        return _write(hom_document(rh), args.out, f"sizes {rh.dom.size} -> {rh.cod.size}")
    raise ParseError(f"conj expects a group or a group hom, got {kind!r}")


def cmd_construct_core(args: argparse.Namespace) -> int:
    rack = core_rack(parse_group(load_document(args.file)))
    return _write(unpointed_rack_document(rack), args.out, f"size {rack.size}")


def cmd_construct_product(args: argparse.Namespace) -> int:
    left = parse_rack(load_document(args.left))
    right = parse_rack(load_document(args.right))
    rack = product_rack(left, right)
    return _write(rack_document(rack), args.out, f"size {rack.size}")


def cmd_construct_hemisemi(args: argparse.Namespace) -> int:
    action = parse_action(load_document(args.file))
    rack = hemi_semidirect(action)
    return _write(rack_document(rack), args.out, f"size {rack.size}")


def cmd_construct_fiber(args: argparse.Namespace) -> int:
    left_doc = load_document(args.left)
    right_doc = load_document(args.right)
    kinds = (left_doc.get("kind"), right_doc.get("kind"))
    if kinds == ("rack-xmod", "rack-xmod"):
        xm = fiber_product_xmod(parse_rack_xmod(left_doc), parse_rack_xmod(right_doc))
        return _write(document_for(xm), args.out, f"carrier size {xm.dom.size}")
    if kinds == ("hom", "hom"):
        alpha = parse_hom(left_doc)
        beta = parse_hom(right_doc)
        if not (isinstance(alpha.dom, FiniteRack) and isinstance(beta.dom, FiniteRack)):
            raise ParseError("fiber of homs needs rack endpoints")
        fp = fiber_product(alpha, beta)
        return _write(rack_document(fp.carrier), args.out, f"size {fp.carrier.size}")
    raise ParseError(f"fiber expects two rack-xmods or two rack homs, got {kinds}")


def cmd_construct_pullback(args: argparse.Namespace) -> int:
    """``construct pullback`` and ``construct group-pullback``; ``args.kind`` is
    the structure the subcommand pulls back, ``args.wrong_kind`` its refusal."""
    source, phi = parse_pullback_request(load_document(args.file))
    if not isinstance(source.dom, args.kind):
        raise ParseError(args.wrong_kind)
    pb = pullback_xmod(source, phi)
    if args.hom_out:
        write_document(hom_document(pb.phi_prime), args.hom_out)
        print(f"wrote hom to {args.hom_out} (comparison back to the source)")
    return _write(document_for(pb.xmod), args.out, f"carrier size {pb.carrier.size}")


# ------------------------------------------------------------------ certify


def cmd_certify_universal(args: argparse.Namespace) -> int:
    inputs = [("request", args.file)]
    source, phi = parse_pullback_request(load_document(args.file))

    def fn():
        pb = pullback_xmod(source, phi)
        cert = verify_universal_property(pb, pb.phi_prime, pb.xmod)
        counts = {
            "carrier-size": pb.carrier.size,
            "factorizations": cert.satisfying_count,
        }
        return counts, None, cert.search_space

    return _certified(args, "certify universal", inputs, fn)


def cmd_certify_adjunction(args: argparse.Namespace) -> int:
    inputs = [("rack", args.rack), ("group", args.group)]
    rack = parse_rack(load_document(args.rack))
    group = parse_group(load_document(args.group))

    def fn():
        rep = check_adjunction_bijection(rack, group)
        counts = {
            "rack-homs": rep.rack_hom_count,
            "presented-homs": rep.presented_hom_count,
        }
        return counts, None, group.size**rack.size

    return _certified(args, "certify adjunction", inputs, fn)


def cmd_certify_xmod_adjunction(args: argparse.Namespace) -> int:
    inputs = [("rack-xmod", args.rack_xmod), ("group-xmod", args.group_xmod)]
    rx = parse_rack_xmod(load_document(args.rack_xmod))
    gx = parse_group_xmod(load_document(args.group_xmod))

    def fn():
        rep = check_xmod_adjunction(rx, gx)
        counts = {"rack-side": rep.rack_side_count, "group-side": rep.group_side_count}
        space = (gx.dom.size ** rx.dom.size) * (gx.cod.size ** rx.cod.size)
        return counts, None, space

    return _certified(args, "certify xmod-adjunction", inputs, fn)


def cmd_certify_conj_preserves(args: argparse.Namespace) -> int:
    inputs = [("request", args.file)]
    source, phi = parse_pullback_request(load_document(args.file))
    if not isinstance(source.dom, FiniteGroup):
        raise ParseError("conj-preserves expects a group-xmod request")

    def fn():
        rep = check_conj_preserves_pullback(source, phi)
        witnesses = [
            {"f1": list(rep.morphism.f1.map), "f0": list(rep.morphism.f0.map)}
        ]
        return {"carrier-size": rep.carrier_size}, witnesses, None

    return _certified(args, "certify conj-preserves", inputs, fn)


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


# The largest order whose enumeration finishes in seconds (order 6: about 2 s;
# order 7 does not finish in practical time).
CORPUS_CEILING = 6


def cmd_corpus(args: argparse.Namespace) -> int:
    bound = args.bound
    if bound < 1:
        raise ParseError(f"bound must be at least 1, got {bound}")
    if bound > CORPUS_CEILING:
        raise BoundExceeded(f"corpus bound {bound} is above the ceiling {CORPUS_CEILING}")
    per_size = {n: enumerate_pointed_racks(n, bound=bound) for n in range(1, bound + 1)}
    for n, found in per_size.items():
        print(f"pointed racks of size {n}, up to isomorphism: {len(found)}")
    for prefix, catalog in _CATALOGS:
        print(f"catalog {prefix}: {len(catalog())} entries")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        written = 0
        for prefix, catalog in _CATALOGS:
            for name, obj in catalog().items():
                write_document(document_for(obj), outdir / f"{prefix}-{name}.json")
                written += 1
        for n, found in per_size.items():
            for i, rk in enumerate(found):
                write_document(rack_document(rk), outdir / f"enum-rack-{n}-{i}.json")
                written += 1
        print(f"wrote {written} documents to {outdir}")
    return 0


# --------------------------------------------------------------------- glue


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rackmod",
        description="validate, construct, and certify finite racks and crossed modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate one document")
    check.add_argument("file")
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
    universal.add_argument("file", help="a pullback-request document")
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
    conjp.add_argument("file", help="a pullback-request document")
    conjp.add_argument("--report")
    conjp.set_defaults(func=cmd_certify_conj_preserves)

    corpus = sub.add_parser("corpus", help="enumerate small racks and dump the catalog")
    corpus.add_argument("--out", help="directory to write catalog documents into")
    corpus.add_argument(
        "--bound",
        type=int,
        default=3,
        help=f"largest rack size, at most {CORPUS_CEILING} (default: 3)",
    )
    corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BoundExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        print(f"FAIL {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
