"""JSON interchange: canonical form, round-trips, and parse failures."""

import hashlib
import json
from pathlib import Path

import pytest

from rackmod import conjugation_action, enumerate_xmod_morphisms
from rackmod import corpus
from rackmod.errors import ParseError, SelfDistributivityFail
from rackmod.interchange import (
    action_document,
    canonical_json,
    certificate_document,
    document_for,
    group_document,
    group_xmod_document,
    hom_document,
    load_document,
    parse_document,
    parse_pullback_request,
    rack_document,
    rack_xmod_document,
    unpointed_rack_document,
    write_document,
    xmod_morphism_document,
)


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_canonical_json_keeps_unicode():
    assert canonical_json({"k": "é"}) == '{\n  "k": "é"\n}\n'


def test_rack_document_round_trip(tmp_path, racks):
    doc = rack_document(racks["cs3"])
    path = tmp_path / "cs3.json"
    write_document(doc, path)
    loaded = load_document(path)
    assert loaded == doc
    assert canonical_json(loaded) == path.read_text(encoding="utf-8")
    parsed = parse_document(loaded)
    assert parsed == racks["cs3"]
    assert document_for(parsed) == doc


def test_unpointed_rack_round_trip(tmp_path):
    r3 = corpus.unpointed_racks()["r3"]
    doc = unpointed_rack_document(r3)
    path = tmp_path / "r3.json"
    write_document(doc, path)
    assert parse_document(load_document(path)) == r3


def test_group_round_trip(tmp_path, groups):
    doc = group_document(groups["s3"])
    path = tmp_path / "s3.json"
    write_document(doc, path)
    parsed = parse_document(load_document(path))
    assert parsed == groups["s3"]
    assert document_for(parsed) == doc


def test_hom_round_trip_both_flavors(tmp_path, rack_homs, group_homs):
    for name, hom in [("rack", rack_homs["sgn_rack"]), ("group", group_homs["sgn"])]:
        doc = hom_document(hom)
        path = tmp_path / f"{name}.json"
        write_document(doc, path)
        parsed = parse_document(load_document(path))
        assert parsed == hom
        assert document_for(parsed) == doc


def test_action_round_trip(tmp_path, racks):
    act = conjugation_action(racks["cs3"])
    doc = action_document(act)
    path = tmp_path / "act.json"
    write_document(doc, path)
    assert parse_document(load_document(path)) == act


def test_document_for_an_action_round_trips(racks):
    act = conjugation_action(racks["cs3"])
    doc = document_for(act)
    assert doc == action_document(act)
    assert parse_document(doc) == act


def test_an_action_refuses_a_group_actee(racks, groups):
    doc = action_document(conjugation_action(racks["cs3"]))
    with pytest.raises(ParseError, match="expected kind 'rack', got 'group'"):
        parse_document(dict(doc, actee=group_document(groups["s3"])))


def test_rack_xmod_round_trip(tmp_path, rack_xmods):
    doc = rack_xmod_document(rack_xmods["a3r_cs3"])
    path = tmp_path / "xm.json"
    write_document(doc, path)
    parsed = parse_document(load_document(path))
    assert parsed == rack_xmods["a3r_cs3"]
    assert document_for(parsed) == doc


def test_group_xmod_round_trip(tmp_path, group_xmods):
    doc = group_xmod_document(group_xmods["a3_s3"])
    path = tmp_path / "gxm.json"
    write_document(doc, path)
    parsed = parse_document(load_document(path))
    assert parsed == group_xmods["a3_s3"]
    assert document_for(parsed) == doc


def test_xmod_morphism_round_trip(tmp_path, rack_xmods, group_xmods):
    seen = 0
    for name, x, y in [
        ("rack", rack_xmods["point_cs3"], rack_xmods["a3r_cs3"]),
        ("group", group_xmods["triv_s3"], group_xmods["a3_s3"]),
    ]:
        for i, m in enumerate(enumerate_xmod_morphisms(x, y)):
            doc = xmod_morphism_document(m)
            path = tmp_path / f"{name}-morph-{i}.json"
            write_document(doc, path)
            parsed = parse_document(load_document(path))
            assert parsed == m
            assert document_for(parsed) == doc
            seen += 1
    assert seen == 34


def test_write_is_deterministic(tmp_path, racks):
    doc = rack_document(racks["v3"])
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_document(doc, p1)
    write_document(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()
    read = []
    load_document(p1, read=read)
    load_document(p2, read=read)
    assert read[0][1] == read[1][1]


def test_digest_format(tmp_path):
    """load_document records the digest of the bytes it read."""
    path = tmp_path / "x.json"
    path.write_bytes(b"{}\n")
    expected = hashlib.sha256(b"{}\n").hexdigest()
    read = []
    load_document(path, read=read)
    assert [digest for _, digest, _ in read] == ["sha256:" + expected]


def test_path_references_resolve_relative_to_the_file(tmp_path, rack_homs):
    sgn = rack_homs["sgn_rack"]
    defs = tmp_path / "defs"
    defs.mkdir()
    write_document(rack_document(sgn.dom), defs / "dom.json")
    write_document(rack_document(sgn.cod), defs / "cod.json")
    hom_doc = {
        "format-version": 1,
        "kind": "hom",
        "dom": {"path": "defs/dom.json"},
        "cod": {"path": "defs/cod.json"},
        "map": list(sgn.map),
    }
    path = tmp_path / "hom.json"
    write_document(hom_doc, path)
    assert parse_document(load_document(path)) == sgn


def test_a_file_referenced_twice_is_read_once(tmp_path, racks, monkeypatch):
    """dom and cod both name cs3.json: it is read, digested and listed once,
    and both references inline the one decoded value."""
    cs3 = racks["cs3"]
    write_document(rack_document(cs3), tmp_path / "cs3.json")
    hom_doc = {
        "format-version": 1,
        "kind": "hom",
        "dom": {"path": "cs3.json"},
        "cod": {"path": "cs3.json"},
        "map": list(range(cs3.size)),
    }
    write_document(hom_doc, tmp_path / "hom.json")
    opened = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: opened.append(p.name) or read_bytes(p))
    read = []
    doc = load_document(tmp_path / "hom.json", read=read)
    assert opened == ["hom.json", "cs3.json"]
    digest = "sha256:" + hashlib.sha256((tmp_path / "cs3.json").read_bytes()).hexdigest()
    assert [(d, chain) for _, d, chain in read][1:] == [(digest, ("cs3.json",))]
    assert doc["dom"] is doc["cod"]
    hom = parse_document(doc)
    assert hom.dom == hom.cod == cs3 and hom.map == tuple(range(cs3.size))


def test_path_reference_must_be_a_string(tmp_path):
    path = tmp_path / "bad.json"
    write_document({"format-version": 1, "kind": "hom", "dom": {"path": 3}}, path)
    with pytest.raises(ParseError, match="path reference"):
        load_document(path)


def test_a_repeated_key_in_a_nested_object_is_refused(tmp_path, racks):
    """A reference that names two files is refused, not read as its last one."""
    for name in ("a.json", "b.json"):
        write_document(rack_document(racks["cs3"]), tmp_path / name)
    path = tmp_path / "hom.json"
    path.write_text(
        '{"format-version": 1, "kind": "hom", "cod": {"path": "a.json"},'
        ' "dom": {"path": "a.json", "path": "b.json"}, "map": [0, 1, 2, 3, 4, 5]}',
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        load_document(path)
    assert str(exc.value) == f"{path}: duplicate key 'path'"


def test_a_reference_cycle_through_a_hard_link_is_refused(tmp_path):
    """a.json reaches itself again through a hard link: another path, the
    same file, refused as soon as it is read a second time."""
    a = tmp_path / "a.json"
    write_document({"format-version": 1, "kind": "rack", "table": {"path": "link.json"}}, a)
    (tmp_path / "link.json").hardlink_to(a)
    read = []
    with pytest.raises(ParseError) as exc:
        load_document(a, read=read)
    assert str(exc.value) == f"{tmp_path / 'link.json'}: path reference cycle"
    assert len(read) == 2


def test_load_document_failure_modes(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_document(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_document(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"labels": ["\xe9"]}')
    with pytest.raises(ParseError, match="latin1.json: invalid JSON: 'utf-8' codec"):
        load_document(latin1)
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ParseError, match="top-level"):
        load_document(toplevel)


def test_payload_validation():
    with pytest.raises(ParseError, match="expected an object"):
        parse_document([1, 2])
    with pytest.raises(ParseError, match="format-version"):
        parse_document({"format-version": 2, "kind": "rack"})
    with pytest.raises(ParseError, match="missing document kind"):
        parse_document({"format-version": 1})
    with pytest.raises(ParseError, match="unknown kind"):
        parse_document({"format-version": 1, "kind": "torsor"})
    # certificates are write-only
    with pytest.raises(ParseError, match="unknown kind"):
        parse_document({"format-version": 1, "kind": "certificate", "verdict": "pass"})


def test_structural_parse_errors(racks):
    good = rack_document(racks["t2"])
    ragged = dict(good, table=[[0, 0], [1]])
    with pytest.raises(ParseError):
        parse_document(ragged)
    with pytest.raises(ParseError, match="declared size"):
        parse_document(dict(good, size=5))
    with pytest.raises(ParseError, match="labels"):
        parse_document(dict(good, labels=[0, 1]))
    with pytest.raises(ParseError, match="missing key"):
        parse_document({"format-version": 1, "kind": "rack", "basepoint": 0})


def test_axiom_violations_pass_through_untouched(racks):
    doc = dict(rack_document(racks["t2"]), table=[[0, 1], [1, 0]])
    with pytest.raises(SelfDistributivityFail) as exc:
        parse_document(doc)
    assert exc.value.witness == (0, 0, 1)


def test_hom_endpoint_mismatch(racks, groups):
    doc = {
        "format-version": 1,
        "kind": "hom",
        "dom": rack_document(racks["cz2"]),
        "cod": group_document(groups["z2"]),
        "map": [0, 1],
    }
    with pytest.raises(ParseError, match="disagree"):
        parse_document(doc)
    action_ends = dict(
        doc,
        dom=action_document(conjugation_action(racks["t2"])),
        cod=action_document(conjugation_action(racks["t2"])),
    )
    with pytest.raises(ParseError, match="racks or groups"):
        parse_document(action_ends)


def test_pullback_request_parsing(rack_xmods, rack_homs, group_homs):
    doc = {
        "format-version": 1,
        "kind": "pullback-request",
        "xmod": rack_xmod_document(rack_xmods["identity_cz2"]),
        "hom": hom_document(rack_homs["sgn_rack"]),
    }
    source, hom = parse_pullback_request(doc)
    assert source == rack_xmods["identity_cz2"]
    assert hom == rack_homs["sgn_rack"]
    mixed = dict(doc, hom=hom_document(group_homs["sgn"]))
    with pytest.raises(ParseError, match="needs a rack hom"):
        parse_document(mixed)
    wrong_base = dict(doc, hom=hom_document(rack_homs["id_cs3"]))
    with pytest.raises(ParseError, match="not the base"):
        parse_document(wrong_base)


def test_a_pullback_request_refuses_a_rack_as_its_crossed_module(racks, rack_homs):
    doc = {
        "format-version": 1,
        "kind": "pullback-request",
        "xmod": rack_document(racks["cz2"]),
        "hom": hom_document(rack_homs["sgn_rack"]),
    }
    with pytest.raises(ParseError, match="pullback-request: unsupported xmod kind 'rack'"):
        parse_document(doc)


def test_certificate_document_fields():
    doc = certificate_document(
        "certify universal",
        "pass",
        counts={"factorizations": 1},
        search_space=46656,
        timing_ms=12.5,
        input_digests={"xmod.json": "sha256:00"},
    )
    assert doc["kind"] == "certificate"
    assert doc["verdict"] == "pass"
    assert doc["search-space"] == 46656
    assert "witnesses" not in doc
    bare = certificate_document("check", "fail")
    assert set(bare) == {"format-version", "kind", "command", "verdict"}


def test_document_for_rejects_unknown_objects():
    with pytest.raises(TypeError):
        document_for(17)


def _planted(doc, key, *where, value=9):
    """A copy of doc with entry doc[key][where...] replaced by value."""
    doc = json.loads(json.dumps(doc))
    entry = doc[key]
    for w in where[:-1]:
        entry = entry[w]
    entry[where[-1]] = value
    return doc


def _refused_documents():
    """By kind, a document with one entry that its validator refuses, or,
    for the request, a hom into another base."""
    racks, groups, rack_homs = corpus.racks(), corpus.groups(), corpus.rack_homs()
    rack_xmods, group_xmods = corpus.rack_xmods(), corpus.group_xmods()
    ident = rack_xmods["identity_cs3"]
    morphism = enumerate_xmod_morphisms(ident, ident)[0]
    request = {
        "format-version": 1,
        "kind": "pullback-request",
        "xmod": rack_xmod_document(rack_xmods["identity_cz2"]),
        "hom": hom_document(rack_homs["id_cs3"]),
    }
    return {
        "rack": _planted(rack_document(racks["cs3"]), "table", 1, 2),
        "unpointed-rack": _planted(
            unpointed_rack_document(corpus.unpointed_racks()["r3"]), "table", 0, 0
        ),
        "group": _planted(group_document(groups["s3"]), "table", 2, 1),
        "hom": _planted(hom_document(rack_homs["sgn_rack"]), "map", 1),
        "action": _planted(action_document(conjugation_action(racks["cs3"])), "table", 0, 1),
        "rack-xmod": _planted(rack_xmod_document(ident), "boundary", 2),
        "group-xmod": _planted(group_xmod_document(group_xmods["a3_s3"]), "action", 1, 0),
        "xmod-morphism": _planted(xmod_morphism_document(morphism), "f1", 0),
        "pullback-request": request,
    }


REFUSALS = {
    "action": "action: action table[0][1] = 9 is out of range(0, 6)",
    "group": "group: multiplication table[2][1] = 9 is out of range(0, 6)",
    "group-xmod": "group-xmod: action table[1][0] = 9 is out of range(0, 3)",
    "hom": "hom: hom map[1] = 9 is out of range(0, 2)",
    "pullback-request": "pullback-request: hom codomain is not the base of the crossed module",
    "rack": "rack: rack table[1][2] = 9 is out of range(0, 6)",
    "rack-xmod": "rack-xmod: hom map[2] = 9 is out of range(0, 6)",
    "unpointed-rack": "unpointed-rack: rack table[0][0] = 9 is out of range(0, 3)",
    "xmod-morphism": "xmod-morphism: hom map[0] = 9 is out of range(0, 6)",
}


@pytest.mark.parametrize("kind", sorted(REFUSALS))
def test_each_parser_prefixes_a_refusal_with_its_kind(kind):
    doc = _refused_documents()[kind]
    assert doc["kind"] == kind
    with pytest.raises(ParseError) as exc:
        parse_document(doc)
    assert str(exc.value) == REFUSALS[kind]
