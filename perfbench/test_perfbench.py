"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that two seeds give identical counts and verdicts, that the
reference scans agree with rackmod's validators on planted defects, and
that the tracer accounts for the time it wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from rackmod import cli  # noqa: E402
from rackmod.errors import AxiomError  # noqa: E402
from rackmod.racks import validate_rack  # noqa: E402

# the two slowest searches; their counts are pinned constants, not seeded
SKIPPED = {"corpus-bound5", "adjunction-z6"}


def run_workload(name: str, seed: int, workdir: Path) -> list[tuple[str, str | None, str]]:
    """(job, failure reason, first stdout line up to any witness) for every job."""
    (workdir / "out").mkdir(parents=True)
    workload = inputs.WORKLOADS[name]
    if workload.prepare is not None:
        workload.prepare(workdir, cli)
    jobs = workload.build(seed, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rows = []
        for job in jobs:
            if job.name in SKIPPED:
                continue
            out = io.StringIO()
            raised, code = None, None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(job.argv)
                except Exception as exc:  # the known defects raise
                    raised = exc
            reason = oracle.judge(job, workdir, code, out.getvalue(), raised)
            rows.append((job.name, reason if job.known_defect is None else "known",
                         out.getvalue().split(" [")[0]))
        return rows
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_two_seeds_give_identical_counts_and_verdicts(name, tmp_path):
    first = run_workload(name, 1, tmp_path / "a")
    second = run_workload(name, 2, tmp_path / "b")
    assert [r for r in first if r[1] not in (None, "known")] == []
    assert first == second


def test_relabeling_changes_tables_but_not_validity():
    rack = inputs.product_rack_doc(inputs._cs3(), inputs._cz2())
    one, two = inputs.relabel(rack, 1), inputs.relabel(rack, 2)
    assert one["table"] != two["table"]
    assert one["basepoint"] == rack["basepoint"]
    for doc in (one, two):
        assert oracle.first_rack_violation(doc) is None
        validate_rack(doc["table"], doc["basepoint"])


def test_reference_scan_matches_rackmod_on_a_self_distributivity_break():
    rack = inputs.relabel(inputs.product_rack_doc(inputs._cs3(), inputs._cs3()), 5)
    table = rack["table"]
    # swap two entries of one column: columns stay bijective, the law breaks
    table[7][3], table[9][3] = table[9][3], table[7][3]
    expected = oracle.first_rack_violation(rack)
    assert expected[0] == "self-distributivity"
    with pytest.raises(AxiomError) as info:
        validate_rack(table, rack["basepoint"])
    assert (info.value.law, type(info.value).__name__, list(info.value.witness)) == expected


def test_tracer_accounts_for_wrapped_time_and_uninstalls(tmp_path):
    tracer = spans.Tracer()
    original = cli.load_document
    tracer.install()
    try:
        assert cli.load_document is not original
        doc = inputs.relabel(inputs.identity_rack_xmod_doc(inputs._cs3()), 3)
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert cli.load_document is original
    recorded = tracer.take()
    roots = [s for s in recorded if s[0] == -1]
    assert [s[1] for s in roots] == ["cli.main"]
    layer = spans.aggregate(recorded)
    total = sum(layer[k] for k in spans.MODULE_SELF) / 1000.0
    assert total == pytest.approx(roots[0][3] - roots[0][2], rel=1e-6)
    assert layer["xmod.validate_xmod.calls"] == 1
    assert layer["interchange.bytes_read"] == path.stat().st_size


def test_traced_set_up_times_the_catalog_builds(tmp_path):
    # last in the file: it re-imports rackmod, which the tests above hold
    import run

    _, recorded = run.traced_set_up(inputs.WORKLOADS["small-catalog"], tmp_path)
    assert spans.catalog_ms(recorded) > 0
    # the caches behind the wrappers were filled, and the wrappers are gone
    corpus = sys.modules["rackmod.corpus"]
    assert corpus.racks.cache_info().currsize == 1
    assert "racks" in {s[1].split(".")[1] for s in recorded if s[1].startswith("corpus.")}
    assert len(list((tmp_path / "raw").glob("*.json"))) == 76
