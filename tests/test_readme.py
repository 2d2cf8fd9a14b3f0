"""The README's examples run as written: the Library block executes, the
console session replays through ``cli.main`` with the printed lines, and
every name the entry-point list gives exists."""

import builtins
import json
import re
import shlex
from importlib import import_module
from pathlib import Path

import rackmod
from rackmod import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(text: str) -> list[tuple[str, str]]:
    """(language, body) of each fenced block, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)


def _section(start: str, end: str) -> str:
    return README.split(start, 1)[1].split(end, 1)[0]


def test_library_block_runs():
    (code,) = [body for lang, body in _blocks(_section("## Library", "\n## ")) if lang == "python"]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # the block's own asserts vanish under python -O; these do not
    pb = namespace["pb"]
    assert namespace["cert"].mediating == rackmod.identity_xmod_morphism(pb.src)
    assert pb.src.dom.size == 3
    assert namespace["gpb"].src.dom.size == 3


def test_console_session_replays(tmp_path, monkeypatch, capsys):
    """Every ``$ rackmod`` line exits 0 and prints the lines shown under it;
    the JSON block is the ``request.json`` the session certifies."""
    monkeypatch.chdir(tmp_path)
    checked = []
    for lang, body in _blocks(_section("A session, starting from a group:", "\n## ")):
        if lang == "json":
            assert json.loads(body)["kind"] == "pullback-request"
            (tmp_path / "request.json").write_text(body, encoding="utf-8")
            continue
        assert lang == "console"
        commands = re.split(r"^\$ rackmod ", body, flags=re.M)[1:]
        for command in commands:
            line, *expected = command.splitlines()
            assert cli.main(shlex.split(line, comments=True)) == 0, line
            printed = capsys.readouterr().out.splitlines()
            if expected:
                assert printed == expected, line
                checked.extend(expected)
    assert checked == [
        "PASS check rack size=6",
        "wrote rack to cs3.json (size 6)",
        "PASS certify adjunction presented-homs=6 rack-homs=6 search-space=36",
        "PASS certify universal carrier-size=6 factorizations=1 search-space=46656",
    ]
    assert json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))["verdict"] == "pass"


def _resolves(name: str) -> bool:
    """An attribute of rackmod, a builtin, or a dotted path into the package."""
    if hasattr(rackmod, name) or hasattr(builtins, name):
        return True
    module, _, attr = name.rpartition(".")
    return module.startswith("rackmod") and hasattr(import_module(module), attr)


def test_entry_point_names_exist():
    bullets = README.split("The main entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][\w.]*)`", bullets)
    assert len(names) > 30
    assert [name for name in names if not _resolves(name)] == []
