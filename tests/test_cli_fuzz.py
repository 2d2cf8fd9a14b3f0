"""The exit-code contract under mutated inputs: every command run through
``cli.main`` ends in 0, 1 or 2, lets no exception escape, and prints
nothing on stdout when it exits 2.

The inputs are the documents of the corpus catalogs and the pullback
requests of the corpus instances, each with one to three edits: a leaf
replaced by a value of the wrong type or range or by a reference to a
missing file, a key deleted, or a list item dropped or duplicated.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rackmod import cli, corpus
from rackmod.interchange import FORMAT_VERSION, document_for

# the catalogs that ``corpus --out`` writes
DOCUMENTS = [document_for(obj) for _, catalog in cli._CATALOGS for obj in catalog().values()]
REQUESTS = [
    {"format-version": FORMAT_VERSION, "kind": "pullback-request",
     "xmod": document_for(xmod), "hom": document_for(phi)}
    for _, xmod, phi in corpus.pullback_instances() + corpus.conj_preservation_instances()
]
CHECK = ("check", "{input}")
REQUEST_COMMANDS = (
    CHECK,
    ("certify", "universal", "{input}"),
    ("certify", "conj-preserves", "{input}"),
    ("construct", "pullback", "{input}", "--out", "{output}"),
    ("construct", "group-pullback", "{input}", "--out", "{output}"),
)
LEAVES = (1.5, True, False, None, -1, 1000, [[0, 1], [1]], {"path": "missing.json"})


def _places(doc, at=()):
    """The path of every key and list item inside doc, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,), value
        yield from _places(value, at + (key,))


def _edit(doc, draw) -> None:
    """Apply one drawn edit to doc in place."""
    path, value = draw(st.sampled_from(list(_places(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    edits = [] if isinstance(value, (dict, list)) else ["replace"]
    edits += ["delete"] if isinstance(parent, dict) else ["delete", "duplicate"]
    edit = draw(st.sampled_from(edits))
    if edit == "replace":
        parent[key] = copy.deepcopy(draw(st.sampled_from(LEAVES)))
    elif edit == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(value))


@st.composite
def mutated_runs(draw):
    """(command, with ``{input}`` and ``{output}`` for the files, mutated document)."""
    if draw(st.booleans()):
        doc, command = draw(st.sampled_from(DOCUMENTS)), CHECK
    else:
        doc, command = draw(st.sampled_from(REQUESTS)), draw(st.sampled_from(REQUEST_COMMANDS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        if doc:
            _edit(doc, draw)
    return command, doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_runs())
def test_mutated_inputs_exit_0_1_or_2(run):
    command, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        files = {"input": str(Path(tmp) / "input.json"), "output": str(Path(tmp) / "output.json")}
        Path(files["input"]).write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main([a.format(**files) for a in command])
    assert code in (0, 1, 2), (command, doc)
    if code == 2:
        assert out.getvalue() == "", (command, doc)
