"""End-to-end CLI runs through main(argv): exit codes, stdout lines,
written documents, and certificate reports.
"""

import dataclasses
import json

import pytest

from rackmod import cli, conjugation_action, pullback, pullback_xmod
from rackmod.interchange import (
    action_document,
    certificate_document,
    digest_file,
    group_document,
    group_xmod_document,
    hom_document,
    load_document,
    parse_document,
    rack_document,
    rack_xmod_document,
    write_document,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    write_document(doc, path)
    return str(path)


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


def test_check_reports_axiom_failure(tmp_path, capsys):
    doc = {"format-version": 1, "kind": "rack", "table": [[0, 1], [1, 0]], "basepoint": 0}
    path = write(tmp_path, "bad.json", doc)
    assert cli.main(["check", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL check rack [SelfDistributivityFail")


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


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
    assert doc["input-digests"] == {"input": digest_file(path)}
    assert isinstance(doc["timing-ms"], float)


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
    assert cert["input-digests"] == {"request": digest_file(req)}


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


@pytest.mark.parametrize("argv", [["corpus", "--bound", "7"]], ids=["flag"])
def test_corpus_above_the_ceiling_exits_2_before_enumerating(monkeypatch, capsys, argv):
    def no_enumeration(n, **kwargs):
        raise AssertionError(f"enumerated order {n}")

    monkeypatch.setattr(cli, "enumerate_pointed_racks", no_enumeration)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "ceiling 6" in captured.err


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
    for hom_out in ("same.json", "./same.json"):
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
