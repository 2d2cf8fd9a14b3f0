"""End-to-end CLI runs through main(argv): exit codes, stdout lines,
written documents, and certificate reports.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from rackmod import (
    cli,
    conjugation_action,
    identity_hom,
    pullback,
    pullback_xmod,
    validate_xmod_morphism,
)
from rackmod.interchange import (
    action_document,
    certificate_document,
    group_document,
    group_xmod_document,
    hom_document,
    load_document,
    canonical_json,
    parse_document,
    rack_document,
    rack_xmod_document,
    write_document,
    xmod_morphism_document,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    write_document(doc, path)
    return str(path)


def digest(path):
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pullback_request(xmod_doc, hom_doc):
    return {
        "format-version": 1,
        "kind": "pullback-request",
        "xmod": xmod_doc,
        "hom": hom_doc,
    }


def test_check_valid_rack(tmp_path, racks, capsys):
    path = write(tmp_path, "cs3.json", rack_document(racks["cs3"]))
    assert cli.main(["check", path]) == 0
    assert capsys.readouterr().out == "PASS check rack size=6\n"


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("action", "PASS check action actee-size=6 actor-size=6\n"),
        ("xmod-morphism", "PASS check xmod-morphism dst-dom-size=6 src-dom-size=3\n"),
        ("pullback-request", "PASS check pullback-request hom-dom-size=6 xmod-dom-size=2\n"),
    ],
)
def test_check_reports_the_sizes_of_a_composite_document(
    tmp_path, racks, rack_xmods, rack_homs, capsys, kind, expected
):
    incl, ident = rack_xmods["a3r_cs3"], rack_xmods["identity_cs3"]
    docs = {
        "action": lambda: action_document(conjugation_action(racks["cs3"])),
        "xmod-morphism": lambda: xmod_morphism_document(
            validate_xmod_morphism(incl.boundary, identity_hom(racks["cs3"]), incl, ident)
        ),
        "pullback-request": lambda: pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]), hom_document(rack_homs["sgn_rack"])
        ),
    }
    path = write(tmp_path, f"{kind}.json", docs[kind]())
    assert cli.main(["check", path]) == 0
    assert capsys.readouterr().out == expected


def test_check_reports_axiom_failure(tmp_path, capsys):
    doc = {"format-version": 1, "kind": "rack", "table": [[0, 1], [1, 0]], "basepoint": 0}
    path = write(tmp_path, "bad.json", doc)
    assert cli.main(["check", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL check rack [SelfDistributivityFail")


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_a_repeated_key_exits_2(tmp_path, capsys):
    """The last value of a repeated key does not win: the document is refused."""
    path = tmp_path / "twice.json"
    path.write_text(
        '{"format-version": 1, "kind": "rack", "kind": "group", "table": [[0]],'
        ' "basepoint": 0, "identity": 0}',
        encoding="utf-8",
    )
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: duplicate key 'kind'" in captured.err


def test_check_bad_version_exits_2(tmp_path, capsys):
    path = write(tmp_path, "v9.json", {"format-version": 9, "kind": "rack"})
    assert cli.main(["check", path]) == 2
    assert "format-version" in capsys.readouterr().err


def _rack_text(table, basepoint=0):
    doc = {"format-version": 1, "kind": "rack", "table": table, "basepoint": basepoint}
    return json.dumps(doc)


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "files",
    [
        # the first file is the one checked; entries must be ints as written
        {"float.json": _rack_text([[0.9, 0.2], [1.7, 1]])},
        {"bool.json": _rack_text([[False, False], [True, True]])},
        {"string.json": _rack_text([["0", "0"], ["1", "1"]])},
        {"bool-basepoint.json": _rack_text([[0, 0], [1, 1]], basepoint=False)},
        {"self.json": _rack_text({"path": "self.json"})},
        {"a.json": _rack_text({"path": "b.json"}), "b.json": json.dumps({"path": "a.json"})},
        {"deep.json": _rack_text([[0]]).replace("[[0]]", _DEEP)},
        # version and size must be ints as written too
        {"bool-version.json": _rack_text([[0]]).replace('"format-version": 1', '"format-version": true')},
        {"float-version.json": _rack_text([[0]]).replace('"format-version": 1', '"format-version": 1.0')},
        {"float-size.json": _rack_text([[0, 0], [1, 1]]).replace("{", '{"size": 2.0, ', 1)},
        {"bool-size.json": _rack_text([[0]]).replace("{", '{"size": true, ', 1)},
    ],
    ids=["float-entries", "bool-entries", "string-entries", "bool-basepoint",
         "path-self-cycle", "path-two-file-cycle", "deep-nesting",
         "bool-version", "float-version", "float-size", "bool-size"],
)
def test_check_malformed_inputs_exit_2(tmp_path, capsys, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    first = tmp_path / next(iter(files))
    assert cli.main(["check", str(first)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _reference_chain(tmp_path, doc, depth):
    """c0.json holds doc and each c{k}.json is a reference to c{k-1}.json;
    returns the path of the last."""
    write(tmp_path, "c0.json", doc)
    for k in range(1, depth + 1):
        write(tmp_path, f"c{k}.json", {"path": f"c{k - 1}.json"})
    return str(tmp_path / f"c{depth}.json")


def test_check_loads_a_deep_reference_chain(tmp_path, racks, capsys):
    path = _reference_chain(tmp_path, rack_document(racks["cs3"]), 100)
    assert cli.main(["check", path]) == 0
    assert capsys.readouterr().out == "PASS check rack size=6\n"


def test_check_refuses_a_too_deep_reference_chain(tmp_path, racks, capsys):
    """A chain deeper than Python's recursion limit is a parse error, with
    one line on stderr and no traceback."""
    path = _reference_chain(tmp_path, rack_document(racks["cs3"]), 2000)
    assert cli.main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith("nested too deeply\n")
    assert captured.err.count("\n") == 1


def test_certify_refuses_a_report_hard_linked_to_a_referenced_file(
    monkeypatch, tmp_path, group_xmods, group_homs, capsys
):
    """A hard link has its own path but is the same file, so a report onto a
    hard link to a file the request reaches only through a reference is
    refused, and that file's bytes stay as they were."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "xmod.json", group_xmod_document(group_xmods["a3_s3"]))
    request = pullback_request({"path": "xmod.json"}, hom_document(group_homs["z3_to_s3"]))
    write(tmp_path, "request.json", request)
    (tmp_path / "hard.json").hardlink_to(tmp_path / "xmod.json")
    before = (tmp_path / "xmod.json").read_bytes()
    assert cli.main(["certify", "universal", "request.json", "--report", "hard.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write hard.json: it is an input of the command\n"
    assert (tmp_path / "xmod.json").read_bytes() == before


def test_check_rejects_certificates(tmp_path, capsys):
    path = write(tmp_path, "cert.json", certificate_document("check rack", "pass"))
    assert cli.main(["check", path]) == 2
    assert "tool output" in capsys.readouterr().err


def test_check_writes_a_certificate(tmp_path, racks, capsys):
    path = write(tmp_path, "v3.json", rack_document(racks["v3"]))
    report = tmp_path / "report.json"
    assert cli.main(["check", path, "--report", str(report)]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["kind"] == "certificate"
    assert doc["command"] == "check rack"
    assert doc["verdict"] == "pass"
    assert doc["counts"] == {"size": 3}
    assert doc["input-digests"] == {"input": digest(path)}
    assert isinstance(doc["timing-ms"], float)


def test_check_refuses_a_report_onto_its_input(tmp_path, racks, capsys):
    """The certificate would replace the document it certifies."""
    path = write(tmp_path, "r.json", rack_document(racks["cs3"]))
    before = (tmp_path / "r.json").read_bytes()
    assert cli.main(["check", path, "--report", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: it is an input of the command\n"
    assert (tmp_path / "r.json").read_bytes() == before


@pytest.mark.parametrize("report", ["s3.json", "./s3.json", "r.json", "link.json"])
def test_certify_refuses_a_report_onto_an_input_before_searching(
    monkeypatch, tmp_path, racks, groups, capsys, report
):
    """Any spelling of either input, or a link to one, is refused before the
    search runs."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "r.json", rack_document(racks["cs3"]))
    write(tmp_path, "s3.json", group_document(groups["s3"]))
    (tmp_path / "link.json").symlink_to("s3.json")
    before = {name: (tmp_path / name).read_bytes() for name in ("r.json", "s3.json")}

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "check_adjunction_bijection", no_search)
    assert cli.main(["certify", "adjunction", "r.json", "s3.json", "--report", report]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "it is an input of the command" in captured.err
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("report", ["out-dir", "missing/cert.json"])
@pytest.mark.parametrize(
    "argv,check",
    [
        (["certify", "adjunction", "r.json", "s3.json", "--report"], "check_adjunction_bijection"),
        (["check", "r.json", "--report"], "parse_document"),
        (["construct", "conj", "s3.json", "--out"], "conj_rack"),
    ],
)
def test_an_unusable_report_is_refused_before_the_check(
    monkeypatch, tmp_path, racks, groups, capsys, argv, check, report
):
    """A report, or an output, that names an existing directory, or whose
    directory does not exist, exits 2 with nothing on stdout before the
    check or the construction runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out-dir").mkdir()
    write(tmp_path, "r.json", rack_document(racks["cs3"]))
    write(tmp_path, "s3.json", group_document(groups["s3"]))

    def not_called(*args):
        raise AssertionError(f"{check} ran")

    monkeypatch.setattr(cli, check, not_called)
    assert cli.main(argv + [report]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {report}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out-dir", "r.json", "s3.json"]
    assert list((tmp_path / "out-dir").iterdir()) == []


@pytest.mark.parametrize(
    "argv,work",
    [
        (["certify", "adjunction", "r.json", "z2.json", "--report", ""], "check_adjunction_bijection"),
        (["check", "r.json", "--report", ""], "parse_document"),
        (["construct", "pullback", "req.json", "--hom-out", "", "--out", "pb.json"], "pullback_xmod"),
        (["construct", "core", "s3.json", "--out", ""], "core_rack"),
        (["corpus", "--out", ""], "enumerate_pointed_racks"),
    ],
    ids=["certify-report", "check-report", "hom-out", "construct-out", "corpus-out"],
)
def test_an_empty_output_path_is_refused_before_any_input_is_read(
    monkeypatch, tmp_path, racks, groups, rack_xmods, rack_homs, capsys, argv, work
):
    """An empty path names no file: it exits 2 with nothing on stdout before
    any input is read or any structure is built, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "r.json", rack_document(racks["cs3"]))
    write(tmp_path, "z2.json", group_document(groups["z2"]))
    write(tmp_path, "s3.json", group_document(groups["s3"]))
    xmod, hom = rack_xmod_document(rack_xmods["identity_cz2"]), hom_document(rack_homs["sgn_rack"])
    write(tmp_path, "req.json", pullback_request(xmod, hom))
    inputs = sorted(p.name for p in tmp_path.iterdir())

    def not_called(*args, **kwargs):
        raise AssertionError("the command went on")

    monkeypatch.setattr(cli, "load_document", not_called)
    monkeypatch.setattr(cli, work, not_called)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write to an empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_certificate_write_leaves_no_report(
    monkeypatch, tmp_path, racks, groups, capsys, existing
):
    """The certificate is staged and renamed like every output: a write that
    fails part way exits 2 with nothing on stdout, leaves no temporary
    file, and leaves an earlier report as it was."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "r.json", rack_document(racks["t2"]))
    write(tmp_path, "s3.json", group_document(groups["s3"]))
    if existing:
        (tmp_path / "cert.json").write_text("earlier\n", encoding="utf-8")

    def failing(doc, path):
        Path(path).write_text(canonical_json(doc)[:20], encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_document", failing)
    argv = ["certify", "adjunction", "r.json", "s3.json", "--report", "cert.json"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: disk full\n"
    expected = ["cert.json", "r.json", "s3.json"] if existing else ["r.json", "s3.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    if existing:
        assert (tmp_path / "cert.json").read_text(encoding="utf-8") == "earlier\n"


def test_a_certificate_digests_the_bytes_that_were_checked(monkeypatch, tmp_path, racks, groups, capsys):
    """An input rewritten while the search runs is certified with the digest
    of the bytes that were parsed, not of the bytes on disk afterwards."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "r.json", rack_document(racks["t2"]))
    write(tmp_path, "s3.json", group_document(groups["s3"]))
    checked = {name: digest(tmp_path / name) for name in ("r.json", "s3.json")}
    real = cli.check_adjunction_bijection

    def rewriting(rack, group):
        write(tmp_path, "s3.json", group_document(groups["z6"]))
        return real(rack, group)

    monkeypatch.setattr(cli, "check_adjunction_bijection", rewriting)
    argv = ["certify", "adjunction", "r.json", "s3.json", "--report", "cert.json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "PASS certify adjunction presented-homs=6 rack-homs=6 search-space=36\n"
    )
    cert = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert cert["input-digests"] == {"rack": checked["r.json"], "group": checked["s3.json"]}
    assert digest(tmp_path / "s3.json") != checked["s3.json"]


def test_a_certificate_digests_every_referenced_file(monkeypatch, tmp_path, rack_xmods, racks, rack_homs, capsys):
    """Each file reached through a ``{"path"}`` reference is digested under
    the input's role and the references as written, whatever the spelling
    of the path on the command line."""
    (tmp_path / "defs").mkdir()
    write(tmp_path / "defs", "cz2.json", rack_document(racks["cz2"]))
    xmod = rack_xmod_document(rack_xmods["identity_cz2"])
    write(tmp_path, "xmod.json", dict(xmod, dom={"path": "defs/cz2.json"}))
    request = pullback_request({"path": "xmod.json"}, hom_document(rack_homs["sgn_rack"]))
    write(tmp_path, "ref-request.json", request)
    expected = {
        "request": digest(tmp_path / "ref-request.json"),
        "request -> xmod.json": digest(tmp_path / "xmod.json"),
        "request -> xmod.json -> defs/cz2.json": digest(tmp_path / "defs" / "cz2.json"),
    }
    monkeypatch.chdir(tmp_path)
    for spelling in ("ref-request.json", "./ref-request.json", str(tmp_path / "ref-request.json")):
        argv = ["certify", "universal", spelling, "--report", "c.json"]
        assert cli.main(argv) == 0, spelling
        assert capsys.readouterr().out == (
            "PASS certify universal carrier-size=6 factorizations=1 search-space=46656\n"
        )
        cert = json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))
        assert cert["input-digests"] == expected, spelling


@pytest.mark.parametrize("report", ["xmod.json", "hom.json", "./link.json"])
@pytest.mark.parametrize("command", ["universal", "conj-preserves"])
def test_certify_refuses_a_report_onto_a_referenced_file(
    monkeypatch, tmp_path, group_xmods, group_homs, capsys, command, report
):
    """A file that the request reaches only through a ``{"path"}`` reference
    is read by the command too, so it is refused as a report before the
    search runs, and its bytes stay as they were."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "xmod.json", group_xmod_document(group_xmods["a3_s3"]))
    write(tmp_path, "hom.json", hom_document(group_homs["z3_to_s3"]))
    (tmp_path / "link.json").symlink_to("hom.json")
    write(tmp_path, "request.json", pullback_request({"path": "xmod.json"}, {"path": "hom.json"}))
    before = {name: (tmp_path / name).read_bytes() for name in ("request.json", "xmod.json", "hom.json")}

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "verify_universal_property", no_search)
    monkeypatch.setattr(cli, "check_conj_preserves_pullback", no_search)
    assert cli.main(["certify", command, "request.json", "--report", report]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {report}: it is an input of the command\n"
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_construct_refuses_an_out_onto_its_input(tmp_path, groups, capsys):
    """``construct core s3.json --out s3.json`` would replace the group with
    its core rack; it is refused before anything is written."""
    path = write(tmp_path, "s3.json", group_document(groups["s3"]))
    before = (tmp_path / "s3.json").read_bytes()
    assert cli.main(["construct", "core", path, "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: it is an input of the command\n"
    assert (tmp_path / "s3.json").read_bytes() == before
    assert list(tmp_path.glob(".*.tmp")) == []


@pytest.mark.parametrize("flag", ["--out", "--hom-out"])
@pytest.mark.parametrize("target", ["req.json", "xmod.json", "./link.json"])
def test_construct_pullback_refuses_an_output_onto_a_file_it_read(
    monkeypatch, tmp_path, rack_xmods, rack_homs, capsys, flag, target
):
    """Neither output of ``construct pullback`` may be the request or a file
    that the request reaches through a ``{"path"}`` reference: exit 2, empty
    stdout, every input byte for byte as it was, and no other file."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "xmod.json", rack_xmod_document(rack_xmods["identity_cz2"]))
    (tmp_path / "link.json").symlink_to("xmod.json")
    request = pullback_request({"path": "xmod.json"}, hom_document(rack_homs["sgn_rack"]))
    write(tmp_path, "req.json", request)
    before = {name: (tmp_path / name).read_bytes() for name in ("req.json", "xmod.json")}
    outputs = {"--out": "pb.json", "--hom-out": "phi.json", flag: target}
    argv = ["construct", "pullback", "req.json"] + [a for item in outputs.items() for a in item]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: it is an input of the command\n"
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.json", "req.json", "xmod.json"]


def test_construct_conj_of_group_and_hom(tmp_path, groups, group_homs, racks, rack_homs, capsys):
    s3 = write(tmp_path, "s3.json", group_document(groups["s3"]))
    out = tmp_path / "cs3.json"
    assert cli.main(["construct", "conj", s3, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote rack to {out} (size 6)\n"
    assert parse_document(load_document(out)) == racks["cs3"]

    sgn = write(tmp_path, "sgn.json", hom_document(group_homs["sgn"]))
    hout = tmp_path / "sgn-rack.json"
    assert cli.main(["construct", "conj", sgn, "--out", str(hout)]) == 0
    assert parse_document(load_document(hout)) == rack_homs["sgn_rack"]


def test_construct_conj_rejects_rack_documents(tmp_path, racks, capsys):
    path = write(tmp_path, "r.json", rack_document(racks["t2"]))
    assert cli.main(["construct", "conj", path, "--out", str(tmp_path / "x.json")]) == 2
    assert "conj expects" in capsys.readouterr().err


def test_construct_conj_rejects_rack_homs(tmp_path, rack_homs, capsys):
    path = write(tmp_path, "h.json", hom_document(rack_homs["sgn_rack"]))
    out = tmp_path / "x.json"
    assert cli.main(["construct", "conj", path, "--out", str(out)]) == 2
    assert "needs group endpoints" in capsys.readouterr().err
    assert not out.exists()


def test_construct_core(tmp_path, groups, capsys):
    z3 = write(tmp_path, "z3.json", group_document(groups["z3"]))
    out = tmp_path / "core.json"
    assert cli.main(["construct", "core", z3, "--out", str(out)]) == 0
    core = parse_document(load_document(out))
    assert core.size == 3
    # x <| y = y x^-1 y in additive notation is 2y - x
    assert core.table[0][1] == 2


def test_construct_product(tmp_path, racks, capsys):
    left = write(tmp_path, "cz2.json", rack_document(racks["cz2"]))
    right = write(tmp_path, "v3.json", rack_document(racks["v3"]))
    out = tmp_path / "prod.json"
    assert cli.main(["construct", "product", left, right, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote rack to {out} (size 6)\n"
    assert parse_document(load_document(out)).size == 6


def test_construct_hemisemi(tmp_path, racks, capsys):
    act = write(tmp_path, "act.json", action_document(conjugation_action(racks["cs3"])))
    out = tmp_path / "hemi.json"
    assert cli.main(["construct", "hemisemi", act, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote rack to {out} (size 36)\n"


def test_construct_hemisemi_non_rack_exits_1(tmp_path, racks, capsys):
    t2 = rack_document(racks["t2"])
    doc = {
        "format-version": 1,
        "kind": "action",
        "actee": t2,
        "actor": t2,
        "table": [[0, 0], [1, 0]],
    }
    path = write(tmp_path, "collapse.json", doc)
    assert cli.main(["construct", "hemisemi", path, "--out", str(tmp_path / "x.json")]) == 1
    assert "FAIL ResultNotRack" in capsys.readouterr().err


def test_construct_fiber_of_homs(tmp_path, rack_homs, capsys):
    sgn = write(tmp_path, "sgn.json", hom_document(rack_homs["sgn_rack"]))
    out = tmp_path / "fiber.json"
    assert cli.main(["construct", "fiber", sgn, sgn, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote rack to {out} (size 18)\n"


def test_construct_fiber_of_xmods(tmp_path, rack_xmods, capsys):
    a = write(tmp_path, "a.json", rack_xmod_document(rack_xmods["a3r_cs3"]))
    out = tmp_path / "fiber.json"
    assert cli.main(["construct", "fiber", a, a, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote rack-xmod to {out} (carrier size 3)\n"


def test_construct_fiber_mixed_kinds_exits_2(tmp_path, rack_homs, rack_xmods, capsys):
    hom = write(tmp_path, "h.json", hom_document(rack_homs["sgn_rack"]))
    xm = write(tmp_path, "x.json", rack_xmod_document(rack_xmods["a3r_cs3"]))
    assert cli.main(["construct", "fiber", hom, xm, "--out", str(tmp_path / "o.json")]) == 2


def test_construct_fiber_rejects_group_xmods(tmp_path, group_xmods, capsys):
    """The library takes fibre products of group crossed modules; the CLI
    reader does not."""
    a = write(tmp_path, "a.json", group_xmod_document(group_xmods["a3_s3"]))
    out = tmp_path / "o.json"
    assert cli.main(["construct", "fiber", a, a, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_construct_fiber_rejects_group_homs(tmp_path, group_homs, capsys):
    sgn = write(tmp_path, "sgn.json", hom_document(group_homs["sgn"]))
    out = tmp_path / "o.json"
    assert cli.main(["construct", "fiber", sgn, sgn, "--out", str(out)]) == 2
    assert "needs rack endpoints" in capsys.readouterr().err
    assert not out.exists()


def test_construct_pullback_with_hom_out(tmp_path, rack_xmods, rack_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]),
            hom_document(rack_homs["sgn_rack"]),
        ),
    )
    out, hom_out = tmp_path / "pb.json", tmp_path / "phi-prime.json"
    code = cli.main(
        ["construct", "pullback", req, "--out", str(out), "--hom-out", str(hom_out)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"wrote hom to {hom_out} (comparison back to the source)",
        f"wrote rack-xmod to {out} (carrier size 6)",
    ]
    expected = pullback_xmod(rack_xmods["identity_cz2"], rack_homs["sgn_rack"])
    assert parse_document(load_document(out)) == expected.src
    assert parse_document(load_document(hom_out)).map == expected.f1.map


def test_construct_pullback_wrong_kind_exits_2(tmp_path, group_xmods, group_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            group_xmod_document(group_xmods["a3_s3"]), hom_document(group_homs["z3_to_s3"])
        ),
    )
    assert cli.main(["construct", "pullback", req, "--out", str(tmp_path / "o.json")]) == 2
    assert "use group-pullback" in capsys.readouterr().err


def test_construct_group_pullback(tmp_path, group_xmods, group_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            group_xmod_document(group_xmods["a3_s3"]), hom_document(group_homs["z3_to_s3"])
        ),
    )
    out = tmp_path / "pb.json"
    assert cli.main(["construct", "group-pullback", req, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote group-xmod to {out} (carrier size 3)\n"
    assert parse_document(load_document(out)).dom.size == 3


def test_construct_group_pullback_writes_the_library_pullback(
    tmp_path, group_xmods, group_homs, capsys
):
    """pullback_xmod on a group request is what ``construct group-pullback``
    writes: a group carrier labelled by its pairs, and the same tables."""
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            group_xmod_document(group_xmods["a3_s3"]), hom_document(group_homs["z3_to_s3"])
        ),
    )
    out, hom_out = tmp_path / "pb.json", tmp_path / "phi-prime.json"
    argv = ["construct", "group-pullback", req, "--out", str(out), "--hom-out", str(hom_out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    pb = pullback_xmod(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    written = load_document(out)
    assert written == group_xmod_document(pb.src)
    assert written["dom"]["kind"] == "group"
    assert written["dom"]["labels"] == ["(e,0)", "((123),1)", "((132),2)"]
    assert load_document(hom_out) == hom_document(pb.f1)


def test_construct_group_pullback_wrong_kind_exits_2(tmp_path, rack_xmods, rack_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]), hom_document(rack_homs["sgn_rack"])
        ),
    )
    out = tmp_path / "o.json"
    assert cli.main(["construct", "group-pullback", req, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group-pullback expects a group-xmod request\n"
    assert not out.exists()


def test_certify_universal(tmp_path, rack_xmods, rack_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]),
            hom_document(rack_homs["sgn_rack"]),
        ),
    )
    report = tmp_path / "cert.json"
    assert cli.main(["certify", "universal", req, "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out == "PASS certify universal carrier-size=6 factorizations=1 search-space=46656\n"
    cert = json.loads(report.read_text(encoding="utf-8"))
    assert cert["verdict"] == "pass"
    assert cert["counts"] == {"carrier-size": 6, "factorizations": 1}
    assert cert["search-space"] == 46656
    assert cert["input-digests"] == {"request": digest(req)}


def test_certify_universal_group_side(tmp_path, group_xmods, group_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            group_xmod_document(group_xmods["a3_s3"]), hom_document(group_homs["z3_to_s3"])
        ),
    )
    assert cli.main(["certify", "universal", req]) == 0
    out = capsys.readouterr().out
    assert out == "PASS certify universal carrier-size=3 factorizations=1 search-space=27\n"


def test_certify_universal_reports_a_broken_construction(
    tmp_path, monkeypatch, rack_xmods, rack_homs, capsys
):
    """A failed internal check is a typed failure naming its law, not a traceback."""
    real = pullback.mediating_morphism

    def wrong(*args):
        med = real(*args)
        m, size = med.f1.map, med.f1.cod.size
        shifted = ((m[0] + 1) % size,) + m[1:]
        return dataclasses.replace(med, f1=dataclasses.replace(med.f1, map=shifted))

    monkeypatch.setattr(pullback, "mediating_morphism", wrong)
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]),
            hom_document(rack_homs["sgn_rack"]),
        ),
    )
    report = tmp_path / "cert.json"
    assert cli.main(["certify", "universal", req, "--report", str(report)]) == 1
    assert capsys.readouterr().out.startswith("FAIL certify universal [ConstructionFail: ")
    cert = json.loads(report.read_text(encoding="utf-8"))
    assert cert["verdict"] == "fail"
    assert cert["witnesses"][0]["law"] == "construction"


def test_certify_adjunction(tmp_path, racks, groups, capsys):
    rack = write(tmp_path, "t2.json", rack_document(racks["t2"]))
    group = write(tmp_path, "s3.json", group_document(groups["s3"]))
    assert cli.main(["certify", "adjunction", rack, group]) == 0
    out = capsys.readouterr().out
    assert out == "PASS certify adjunction presented-homs=6 rack-homs=6 search-space=36\n"


def test_certify_xmod_adjunction(tmp_path, rack_xmods, group_xmods, capsys):
    rx = write(tmp_path, "rx.json", rack_xmod_document(rack_xmods["point_t2"]))
    gx = write(tmp_path, "gx.json", group_xmod_document(group_xmods["identity_z2"]))
    assert cli.main(["certify", "xmod-adjunction", rx, gx]) == 0
    out = capsys.readouterr().out
    assert out == "PASS certify xmod-adjunction group-side=2 rack-side=2 search-space=8\n"


def test_certify_conj_preserves(tmp_path, group_xmods, group_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            group_xmod_document(group_xmods["a3_s3"]), hom_document(group_homs["z3_to_s3"])
        ),
    )
    report = tmp_path / "cert.json"
    assert cli.main(["certify", "conj-preserves", req, "--report", str(report)]) == 0
    assert capsys.readouterr().out == "PASS certify conj-preserves carrier-size=3\n"
    cert = json.loads(report.read_text(encoding="utf-8"))
    assert cert["witnesses"] == [{"f1": [0, 1, 2], "f0": [0, 1, 2]}]


def test_certify_conj_preserves_needs_group_request(tmp_path, rack_xmods, rack_homs, capsys):
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]),
            hom_document(rack_homs["sgn_rack"]),
        ),
    )
    assert cli.main(["certify", "conj-preserves", req]) == 2


def test_corpus_bound_defaults_to_3_and_reads_no_environment(monkeypatch, capsys):
    monkeypatch.setenv("RACKMOD_CORPUS_BOUND", "2")
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "pointed racks of size 3, up to isomorphism: 2" in out
    assert "size 4" not in out


def test_corpus_rejects_bad_bound(capsys):
    assert cli.main(["corpus", "--bound", "0"]) == 2


@pytest.mark.parametrize("argv", [["corpus", "--bound", "8"]], ids=["flag"])
def test_corpus_above_the_ceiling_exits_2_before_enumerating(monkeypatch, capsys, argv):
    def no_enumeration(n, **kwargs):
        raise AssertionError(f"enumerated order {n}")

    monkeypatch.setattr(cli, "enumerate_pointed_racks", no_enumeration)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "ceiling 7" in captured.err


def test_corpus_dumps_documents(tmp_path, capsys):
    outdir = tmp_path / "dump"
    assert cli.main(["corpus", "--bound", "2", "--out", str(outdir)]) == 0
    out = capsys.readouterr().out
    files = sorted(outdir.glob("*.json"))
    assert f"wrote {len(files)} documents to {outdir}" in out
    # every dumped document parses and validates
    for path in files:
        parse_document(load_document(path))
    assert (outdir / "rack-cs3.json").exists()
    assert (outdir / "enum-rack-2-0.json").exists()


def test_corpus_out_on_a_file_exits_2_with_nothing_on_stdout(tmp_path, capsys):
    """An --out that is a file, or lies under one, fails before any line is printed."""
    existing = tmp_path / "file.json"
    existing.write_text("{}")
    for out in (existing, existing / "dump"):
        assert cli.main(["corpus", "--bound", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_construct_pullback_failed_out_exits_2_with_nothing_on_stdout(
    tmp_path, rack_xmods, rack_homs, group_xmods, group_homs, capsys
):
    """--out fails after the --hom-out document is written: stdout stays
    empty, and neither document is left behind."""
    requests = {
        "pullback": (rack_xmod_document(rack_xmods["identity_cz2"]), rack_homs["sgn_rack"]),
        "group-pullback": (group_xmod_document(group_xmods["a3_s3"]), group_homs["z3_to_s3"]),
    }
    bad = tmp_path / "missing" / "pb.json"
    for command, (xmod_doc, hom) in requests.items():
        req = write(tmp_path, f"{command}.json", pullback_request(xmod_doc, hom_document(hom)))
        hom_out = tmp_path / f"{command}-phi-prime.json"
        argv = ["construct", command, req, "--hom-out", str(hom_out), "--out", str(bad)]
        assert cli.main(argv) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("error: "), command
        assert not bad.exists(), command
        assert not hom_out.exists(), command
        assert list(tmp_path.glob(".*.tmp")) == [], command


def test_construct_pullback_out_on_a_directory_leaves_no_file(
    tmp_path, rack_xmods, rack_homs, capsys
):
    """An --out that is an existing directory is refused before the --hom-out
    document is written, so no document and no temporary file is left."""
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]), hom_document(rack_homs["sgn_rack"])
        ),
    )
    outdir = tmp_path / "dir"
    outdir.mkdir()
    hom_out = tmp_path / "h.json"
    argv = ["construct", "pullback", req, "--hom-out", str(hom_out), "--out", str(outdir)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not hom_out.exists()
    assert list(tmp_path.glob(".*.tmp")) == []
    assert list(outdir.iterdir()) == []


def test_construct_pullback_refuses_one_path_named_twice(
    tmp_path, monkeypatch, rack_xmods, rack_homs, capsys
):
    """--hom-out and --out that resolve to one file, however spelled, are
    refused before anything is written: exit 2, empty stdout and no file."""
    req = write(
        tmp_path,
        "req.json",
        pullback_request(
            rack_xmod_document(rack_xmods["identity_cz2"]), hom_document(rack_homs["sgn_rack"])
        ),
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "here").symlink_to(tmp_path)
    for hom_out in ("same.json", "./same.json", "here/same.json"):
        argv = ["construct", "pullback", req, "--hom-out", hom_out, "--out", "same.json"]
        assert cli.main(argv) == 2, hom_out
        captured = capsys.readouterr()
        assert captured.out == "", hom_out
        assert captured.err == (
            "error: cannot write same.json: the command writes another document there\n"
        ), hom_out
        assert not (tmp_path / "same.json").exists(), hom_out
        assert list(tmp_path.glob(".*.tmp")) == [], hom_out


def test_corpus_out_failing_on_a_later_document_leaves_no_file(tmp_path, monkeypatch, capsys):
    """The tenth write fails: the nine documents before it are not left behind."""
    real, calls = cli.write_document, []

    def failing(doc, path):
        calls.append(path)
        if len(calls) == 10:
            raise OSError("disk full")
        real(doc, path)

    monkeypatch.setattr(cli, "write_document", failing)
    outdir = tmp_path / "dump"
    assert cli.main(["corpus", "--bound", "2", "--out", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: disk full\n"
    assert len(calls) == 10
    assert list(outdir.iterdir()) == []


def test_write_failure_exits_2(tmp_path, groups, capsys):
    s3 = write(tmp_path, "s3.json", group_document(groups["s3"]))
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    assert cli.main(["construct", "conj", s3, "--out", str(missing)]) == 2


def test_usage_errors_exit_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_of_a_process(tmp_path, rack_xmods, rack_homs, group_xmods, group_homs, capsys):
    """The parser is built once per process; calls with different subcommand
    defaults, and a call after an argparse error, behave as on fresh parsers."""
    rack_req = write(tmp_path, "rack.json", pullback_request(
        rack_xmod_document(rack_xmods["identity_cz2"]), hom_document(rack_homs["sgn_rack"])))
    group_req = write(tmp_path, "group.json", pullback_request(
        group_xmod_document(group_xmods["a3_s3"]), hom_document(group_homs["z3_to_s3"])))
    out = str(tmp_path / "o.json")
    calls = [
        ["construct", "pullback", group_req, "--out", out],
        ["construct", "group-pullback", rack_req, "--out", out],
        ["construct", "pullback", "--out"],
        ["construct", "group-pullback", group_req, "--out", out],
        ["construct", "pullback", rack_req, "--out", out],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 2, 2, 0, 0]
    assert cli._build_parser() is cli._build_parser()
