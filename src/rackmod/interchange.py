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
to the file containing the reference.  Emission always inlines.

Canonical form is ``json.dumps(doc, indent=2, sort_keys=True,
ensure_ascii=False)`` plus a trailing newline, so canonical files round-trip
byte for byte.

Malformed documents raise :class:`~rackmod.errors.ParseError`; documents
that parse but describe structures violating the axioms raise the relevant
:class:`~rackmod.errors.AxiomError` subclass from the validators.
"""

from __future__ import annotations

import hashlib
import json
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


def digest_file(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_document(path: str | Path) -> dict[str, Any]:
    """Read a document file and inline every ``{"path": ...}`` reference."""
    return _load(Path(path), ())


def _load(p: Path, loading: tuple[Path, ...]) -> dict[str, Any]:
    """``loading`` holds the files whose references are being inlined."""
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    here = p.resolve()
    if here in loading:
        raise ParseError(f"{p}: path reference cycle")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{p}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{p}: top-level value must be an object")
    try:
        return _inline(raw, p.parent, loading + (here,))
    except RecursionError as exc:
        raise ParseError(f"{p}: document nested too deeply") from exc


def _inline(value: Any, base: Path, loading: tuple[Path, ...]) -> Any:
    if isinstance(value, dict):
        if set(value) == {"path"}:
            ref = value["path"]
            if not isinstance(ref, str):
                raise ParseError("path reference must be a string")
            return _load(base / ref, loading)
        return {k: _inline(v, base, loading) for k, v in value.items()}
    if isinstance(value, list):
        return [_inline(v, base, loading) for v in value]
    return value


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


def _parse_structure(doc: dict[str, Any], kind: str, validate, *keys: str) -> Any:
    """Parse a rack, unpointed rack or group: ``validate`` gets the values
    under ``keys`` and the labels."""
    doc = _payload(doc, kind)
    values = [_field(doc, key) for key in keys]
    try:
        x = validate(*values, labels=_labels(doc))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{kind}: {exc}") from exc
    _check_size(doc, x.size)
    return x


def parse_rack(doc: dict[str, Any]) -> FiniteRack:
    return _parse_structure(doc, "rack", validate_rack, "table", "basepoint")


def parse_unpointed_rack(doc: dict[str, Any]) -> UnpointedRack:
    return _parse_structure(doc, "unpointed-rack", validate_unpointed_rack, "table")


def parse_group(doc: dict[str, Any]) -> FiniteGroup:
    return _parse_structure(doc, "group", validate_group, "table", "identity")


def parse_hom(doc: dict[str, Any]) -> Hom:
    doc = _payload(doc, "hom")
    dom_doc = _field(doc, "dom")
    cod_doc = _field(doc, "cod")
    dom_kind = _payload(dom_doc)["kind"]
    cod_kind = _payload(cod_doc)["kind"]
    if dom_kind != cod_kind:
        raise ParseError(f"hom endpoints disagree: {dom_kind!r} vs {cod_kind!r}")
    mapping = _field(doc, "map")
    parse = {"rack": parse_rack, "group": parse_group}.get(dom_kind)
    if parse is None:
        raise ParseError(f"hom endpoints must be racks or groups, got {dom_kind!r}")
    try:
        return validate_hom(parse(dom_doc), parse(cod_doc), mapping)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"hom: {exc}") from exc


def parse_action(doc: dict[str, Any]) -> RackAction:
    doc = _payload(doc, "action")
    try:
        return validate_action(
            _field(doc, "table"), parse_rack(_field(doc, "actee")), parse_rack(_field(doc, "actor"))
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(f"action: {exc}") from exc


def _parse_xmod(doc: dict[str, Any], kind: str, parse_structure) -> XMod:
    doc = _payload(doc, kind)
    dom = parse_structure(_field(doc, "dom"))
    cod = parse_structure(_field(doc, "cod"))
    try:
        return validate_xmod(validate_hom(dom, cod, _field(doc, "boundary")), _field(doc, "action"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{kind}: {exc}") from exc


def parse_rack_xmod(doc: dict[str, Any]) -> XMod:
    return _parse_xmod(doc, "rack-xmod", parse_rack)


def parse_group_xmod(doc: dict[str, Any]) -> XMod:
    return _parse_xmod(doc, "group-xmod", parse_group)


def parse_xmod_morphism(doc: dict[str, Any]) -> XModMorphism:
    doc = _payload(doc, "xmod-morphism")
    src_doc = _field(doc, "src")
    dst_doc = _field(doc, "dst")
    src_kind = _payload(src_doc)["kind"]
    dst_kind = _payload(dst_doc)["kind"]
    if src_kind != dst_kind:
        raise ParseError(f"morphism endpoints disagree: {src_kind!r} vs {dst_kind!r}")
    parse = {"rack-xmod": parse_rack_xmod, "group-xmod": parse_group_xmod}.get(src_kind)
    if parse is None:
        raise ParseError(f"morphism endpoints must be crossed modules, got {src_kind!r}")
    try:
        src, dst = parse(src_doc), parse(dst_doc)
        f1 = validate_hom(src.dom, dst.dom, _field(doc, "f1"))
        f0 = validate_hom(src.cod, dst.cod, _field(doc, "f0"))
        return validate_xmod_morphism(f1, f0, src, dst)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"xmod-morphism: {exc}") from exc


def parse_pullback_request(doc: dict[str, Any]) -> tuple[XMod, Hom]:
    """A crossed module paired with a hom into its base, ready to pull back."""
    doc = _payload(doc, "pullback-request")
    xmod_doc = _field(doc, "xmod")
    hom = parse_hom(_field(doc, "hom"))
    xmod_kind = _payload(xmod_doc)["kind"]
    if xmod_kind == "rack-xmod":
        if not isinstance(hom.dom, FiniteRack):
            raise ParseError("pullback-request: rack-xmod needs a rack hom")
        source = parse_rack_xmod(xmod_doc)
    elif xmod_kind == "group-xmod":
        if not isinstance(hom.dom, FiniteGroup):
            raise ParseError("pullback-request: group-xmod needs a group hom")
        source = parse_group_xmod(xmod_doc)
    else:
        raise ParseError(f"pullback-request: unsupported xmod kind {xmod_kind!r}")
    if hom.cod != source.cod:
        raise ParseError("pullback-request: hom codomain is not the base of the crossed module")
    return source, hom


_PARSERS = {
    "rack": parse_rack,
    "unpointed-rack": parse_unpointed_rack,
    "group": parse_group,
    "hom": parse_hom,
    "action": parse_action,
    "rack-xmod": parse_rack_xmod,
    "group-xmod": parse_group_xmod,
    "xmod-morphism": parse_xmod_morphism,
    "pullback-request": parse_pullback_request,
}


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
