"""JSON interchange for racks, groups, homs, actions, and crossed modules.

Document shape
--------------

Every file holds one JSON object with two required keys:

* ``"format-version"``: currently ``1``
* ``"kind"``: one of ``rack``, ``unpointed-rack``, ``group``, ``hom``,
  ``action``, ``rack-xmod``, ``group-xmod``, ``xmod-morphism``,
  ``pullback-request``, ``certificate``

plus kind-specific payload keys (see the ``*_document`` builders below for
the exact layout).  Wherever a sub-document is expected, a reference object
``{"path": "other.json"}`` may appear instead; the path is resolved relative
to the file containing the reference, and the file it names is loaded and
inlined as the decoder closes the reference object, so a document is read
in one pass.  Files are told apart by device and inode, so a reference
back to a file being loaded, through a symlink or a hard link too, is a
cycle.  Emission always inlines.

Canonical form is ``json.dumps(doc, indent=2, sort_keys=True,
ensure_ascii=False)`` plus a trailing newline, so canonical files round-trip
byte for byte.

Malformed documents, an object that repeats a key among them, raise
:class:`~rackmod.errors.ParseError`; documents that parse but describe
structures violating the axioms raise the relevant
:class:`~rackmod.errors.AxiomError` subclass from the validators.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from functools import wraps
from pathlib import Path
from typing import Any

from .errors import ParseError
from .groups import FiniteGroup, validate_group
from .racks import FiniteRack, UnpointedRack, validate_rack, validate_unpointed_rack
from .tables import FiniteStructure, Hom, validate_hom
from .xmod import (
    RackAction,
    XMod,
    XModMorphism,
    validate_action,
    validate_xmod,
    validate_xmod_morphism,
)

FORMAT_VERSION = 1


def canonical_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_document(doc: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


def _file_identity(path: str | Path) -> tuple[int, int]:
    """The (device, inode) pair of the file at path, symlinks followed: two
    paths name one file, hard links included, when their pairs are equal."""
    st = os.stat(path)
    return st.st_dev, st.st_ino


def load_document(path: str | Path, *, read: list | None = None) -> dict[str, Any]:
    """Read a document file, inlining every ``{"path": ...}`` reference as
    the decoder closes it.

    When ``read`` is a list, every file read, the files that references
    name included, is appended to it as (identity, digest, chain): its
    ``_file_identity``, ``"sha256:"`` and the hex digest of the very bytes
    that were decoded, and the reference strings, as written, through
    which it was reached (empty for the file at path).  A file that several
    references from one directory name is read, digested, decoded and
    appended once, through the first reference to it; every later one
    inlines the same value.
    """
    return _load(Path(path), (), (), [] if read is None else read, {})


def _load(
    p: Path, loading: tuple, chain: tuple[str, ...], read: list, done: dict
) -> dict[str, Any]:
    """``loading`` holds the identities of the files whose references are
    being inlined, ``chain`` the references that reach p, and ``done`` the
    value of each file loaded, by its identity and the directory that its
    references resolve from."""
    try:
        here = _file_identity(p)
        if (here, p.parent) in done:
            return done[here, p.parent]
        data = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    read.append((here, "sha256:" + hashlib.sha256(data).hexdigest(), chain))
    if here in loading:
        raise ParseError(f"{p}: path reference cycle")
    loading += (here,)

    def inline(pairs: list[tuple[str, Any]]) -> Any:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for n, k in enumerate(keys) if k in keys[:n])
            raise ParseError(f"{p}: duplicate key {key!r}")
        if obj.keys() != {"path"}:
            return obj
        ref = obj["path"]
        if not isinstance(ref, str):
            raise ParseError("path reference must be a string")
        return _load(p.parent / ref, loading, chain + (ref,), read, done)

    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=inline)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{p}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{p}: top-level value must be an object")
    done[here, p.parent] = raw
    return raw


def _payload(doc: Any, expected_kind: str | None = None) -> dict[str, Any]:
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {type(doc).__name__}")
    version = doc.get("format-version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format-version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ParseError("missing document kind")
    if expected_kind is not None and kind != expected_kind:
        raise ParseError(f"expected kind {expected_kind!r}, got {kind!r}")
    return doc


def _field(doc: dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise ParseError(f"{doc.get('kind', 'document')}: missing key {key!r}")
    return doc[key]


def _labels(doc: dict[str, Any]) -> list[str] | None:
    labels = doc.get("labels")
    if labels is None:
        return None
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError("labels must be a list of strings")
    return labels


def _check_size(doc: dict[str, Any], actual: int) -> None:
    declared = doc.get("size")
    if declared is not None and (type(declared) is not int or declared != actual):
        raise ParseError(f"declared size {declared!r} but table has {actual} rows")


# -- parsing ---------------------------------------------------------------

_PARSERS: dict[str, Callable[[dict[str, Any]], Any]] = {}


def _parser(kind: str):
    """Register the decorated function as the parser of ``kind``.

    The parser checks the header (``_payload``) before the function reads
    the document, and a ``ValueError`` or ``TypeError`` that the function
    raises, a validator's included, becomes a ``ParseError`` prefixed with
    ``kind``.
    """

    def register(parse):
        @wraps(parse)
        def parser(doc: dict[str, Any]) -> Any:
            doc = _payload(doc, kind)
            try:
                return parse(doc)
            except (ValueError, TypeError) as exc:
                raise ParseError(f"{kind}: {exc}") from exc

        _PARSERS[kind] = parser
        return parser

    return register


def _structure(doc: dict[str, Any], validate, *keys: str) -> Any:
    """A rack, unpointed rack or group: ``validate`` gets the values under
    ``keys`` and the labels."""
    x = validate(*[_field(doc, key) for key in keys], labels=_labels(doc))
    _check_size(doc, x.size)
    return x


@_parser("rack")
def parse_rack(doc: dict[str, Any]) -> FiniteRack:
    return _structure(doc, validate_rack, "table", "basepoint")


@_parser("unpointed-rack")
def parse_unpointed_rack(doc: dict[str, Any]) -> UnpointedRack:
    return _structure(doc, validate_unpointed_rack, "table")


@_parser("group")
def parse_group(doc: dict[str, Any]) -> FiniteGroup:
    return _structure(doc, validate_group, "table", "identity")


def _endpoints(doc: dict[str, Any], what: str, keys: tuple[str, str], parsers, allowed: str):
    """The two endpoint documents under ``keys``, which must be of one kind
    whose parser is one of ``parsers``, each parsed by it."""
    docs = [_field(doc, key) for key in keys]
    kinds = [_payload(d)["kind"] for d in docs]
    if kinds[0] != kinds[1]:
        raise ParseError(f"{what} endpoints disagree: {kinds[0]!r} vs {kinds[1]!r}")
    parse = _PARSERS.get(kinds[0])
    if parse not in parsers:
        raise ParseError(f"{what} endpoints must be {allowed}, got {kinds[0]!r}")
    return [parse(d) for d in docs]


@_parser("hom")
def parse_hom(doc: dict[str, Any]) -> Hom:
    parsers = (parse_rack, parse_group)
    dom, cod = _endpoints(doc, "hom", ("dom", "cod"), parsers, "racks or groups")
    return validate_hom(dom, cod, _field(doc, "map"))


@_parser("action")
def parse_action(doc: dict[str, Any]) -> RackAction:
    return validate_action(
        _field(doc, "table"), parse_rack(_field(doc, "actee")), parse_rack(_field(doc, "actor"))
    )


def _xmod(doc: dict[str, Any], parse_structure) -> XMod:
    dom = parse_structure(_field(doc, "dom"))
    cod = parse_structure(_field(doc, "cod"))
    return validate_xmod(validate_hom(dom, cod, _field(doc, "boundary")), _field(doc, "action"))


@_parser("rack-xmod")
def parse_rack_xmod(doc: dict[str, Any]) -> XMod:
    return _xmod(doc, parse_rack)


@_parser("group-xmod")
def parse_group_xmod(doc: dict[str, Any]) -> XMod:
    return _xmod(doc, parse_group)


@_parser("xmod-morphism")
def parse_xmod_morphism(doc: dict[str, Any]) -> XModMorphism:
    parsers = (parse_rack_xmod, parse_group_xmod)
    src, dst = _endpoints(doc, "morphism", ("src", "dst"), parsers, "crossed modules")
    f1 = validate_hom(src.dom, dst.dom, _field(doc, "f1"))
    f0 = validate_hom(src.cod, dst.cod, _field(doc, "f0"))
    return validate_xmod_morphism(f1, f0, src, dst)


@_parser("pullback-request")
def parse_pullback_request(doc: dict[str, Any]) -> tuple[XMod, Hom]:
    """A crossed module paired with a hom into its base, ready to pull back."""
    xmod_doc = _field(doc, "xmod")
    hom = parse_hom(_field(doc, "hom"))
    kind = _payload(xmod_doc)["kind"]
    parse = _PARSERS.get(kind)
    if parse not in (parse_rack_xmod, parse_group_xmod):
        raise ValueError(f"unsupported xmod kind {kind!r}")
    if not isinstance(hom.dom, FiniteRack if parse is parse_rack_xmod else FiniteGroup):
        raise ValueError(f"{kind} needs a {kind.split('-')[0]} hom")
    source = parse(xmod_doc)
    if hom.cod != source.cod:
        raise ValueError("hom codomain is not the base of the crossed module")
    return source, hom


def parse_document(doc: dict[str, Any]) -> Any:
    kind = _payload(doc)["kind"]
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ParseError(f"unknown kind {kind!r}")
    return parser(doc)


# -- emission --------------------------------------------------------------


def _structure_document(kind: str, x: FiniteStructure, **distinguished: int) -> dict[str, Any]:
    doc = {
        "format-version": FORMAT_VERSION,
        "kind": kind,
        "size": x.size,
        "table": [list(row) for row in x.table],
        **distinguished,
    }
    if x.labels is not None:
        doc["labels"] = list(x.labels)
    return doc


def rack_document(rack: FiniteRack) -> dict[str, Any]:
    return _structure_document("rack", rack, basepoint=rack.basepoint)


def unpointed_rack_document(rack: UnpointedRack) -> dict[str, Any]:
    return _structure_document("unpointed-rack", rack)


def group_document(group: FiniteGroup) -> dict[str, Any]:
    return _structure_document("group", group, identity=group.identity)


def hom_document(hom: Hom) -> dict[str, Any]:
    return {
        "format-version": FORMAT_VERSION,
        "kind": "hom",
        "dom": document_for(hom.dom),
        "cod": document_for(hom.cod),
        "map": list(hom.map),
    }


def action_document(action: RackAction) -> dict[str, Any]:
    return {
        "format-version": FORMAT_VERSION,
        "kind": "action",
        "actee": rack_document(action.actee),
        "actor": rack_document(action.actor),
        "table": [list(row) for row in action.table],
    }


def _xmod_document(xmod: XMod) -> dict[str, Any]:
    """A ``group-xmod`` or a ``rack-xmod`` document, by the kind of ``xmod.dom``."""
    return {
        "format-version": FORMAT_VERSION,
        "kind": "group-xmod" if isinstance(xmod.dom, FiniteGroup) else "rack-xmod",
        "dom": document_for(xmod.dom),
        "cod": document_for(xmod.cod),
        "boundary": list(xmod.boundary.map),
        "action": [list(row) for row in xmod.action],
    }


# One builder serves both kinds; the two names stay for callers that name the kind.
def rack_xmod_document(xmod: XMod) -> dict[str, Any]:
    return _xmod_document(xmod)


def group_xmod_document(xmod: XMod) -> dict[str, Any]:
    return _xmod_document(xmod)


def xmod_morphism_document(m: XModMorphism) -> dict[str, Any]:
    return {
        "format-version": FORMAT_VERSION,
        "kind": "xmod-morphism",
        "src": document_for(m.src),
        "dst": document_for(m.dst),
        "f1": list(m.f1.map),
        "f0": list(m.f0.map),
    }


def certificate_document(
    command: str,
    verdict: str,
    *,
    counts: dict[str, int] | None = None,
    witnesses: list[Any] | None = None,
    search_space: int | None = None,
    timing_ms: float | None = None,
    input_digests: dict[str, str] | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format-version": FORMAT_VERSION,
        "kind": "certificate",
        "command": command,
        "verdict": verdict,
    }
    if counts is not None:
        doc["counts"] = counts
    if witnesses is not None:
        doc["witnesses"] = witnesses
    if search_space is not None:
        doc["search-space"] = search_space
    if timing_ms is not None:
        doc["timing-ms"] = timing_ms
    if input_digests is not None:
        doc["input-digests"] = input_digests
    return doc


def document_for(obj: Any) -> dict[str, Any]:
    """Build the interchange document for any supported in-memory object."""
    if isinstance(obj, FiniteRack):
        return rack_document(obj)
    if isinstance(obj, UnpointedRack):
        return unpointed_rack_document(obj)
    if isinstance(obj, FiniteGroup):
        return group_document(obj)
    if isinstance(obj, Hom):
        return hom_document(obj)
    if isinstance(obj, RackAction):
        return action_document(obj)
    if isinstance(obj, XMod):
        return _xmod_document(obj)
    if isinstance(obj, XModMorphism):
        return xmod_morphism_document(obj)
    raise TypeError(f"no document form for {type(obj).__name__}")
