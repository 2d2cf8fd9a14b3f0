#!/usr/bin/env python3
"""Benchmark for the rackmod command line: four workloads, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. The benchmark imports ``rackmod`` from
``src/``, writes seeded inputs into a fresh directory under
``.perfbench-work/``, and then calls ``rackmod.cli.main(argv)`` in-process
for every job of the workload, one job at a time, in passes over the job
list for ``--seconds`` seconds. Every outcome is checked against the job's
expected exit code, stdout, certificate witness and written files.

``--trace 0`` prints the end-to-end metrics: ``pass_norm``, the median
pass time as a multiple of a fixed reference burst timed between jobs (see
``reference.py``), ``setup_s``, the median time of rackmod's own set-up
work in seconds at reference speed (a machine on which one burst takes
``reference.NOMINAL_S``), and ``peak_rss_mb``; the raw ``pass_s``,
per-family times and ``failed_frac`` are printed above the result line and
recorded. ``--trace 1`` alternates untraced passes with passes in which
rackmod's public functions are wrapped in spans, prints the per-layer
metrics (``corpus.catalog_ms`` from one more set-up run in spans), and writes the spans of the last traced pass to
``.perfbench-work/spans-<workload>-seed<n>.jsonl``. Human-readable lines
come first; the last line of stdout is one JSON object. ``--out`` appends
a full record (every metric, per-job times, output digests, environment)
as a JSON line, which ``compare.py`` reads.

Exit status: 0 when every job outside the known-defect list behaved as
expected, 1 when one did not, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Set-up is repeated and its median reported, so one slow import or disk
# hiccup does not set the figure. Each set-up is scaled by the reference
# bursts just before and after it, as passes are: raw set-up times spread
# by about 30% over ten runs on a shared 2-vCPU VM, scaled ones by about 10%.
SETUP_REPEATS = 15
SETUP_BURSTS = 5
# The traced run's self times must account for its pass time this closely.
TRACE_COVERAGE_TOLERANCE = 0.05
BURST_EVERY_S = 0.02

FAMILIES = ("check", "construct", "certify_universal", "certify_conj_preserves",
            "certify_adjunction", "certify_xmod_adjunction", "corpus")
# BENCHMARK.json's end-to-end metrics; the last JSON line carries exactly these
END_TO_END_UNITS = {"pass_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PERCENTILES = (50, 90, 95, 99, 99.9)


def fresh_import():
    """Import rackmod from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "rackmod" or m.startswith("rackmod.")]:
        del sys.modules[name]
    return importlib.import_module("rackmod.cli")


def warm_corpus() -> None:
    """Fill the corpus caches, which users pay for once per process.

    Under the tracer a cached catalog is bound to a wrapper, which reaches
    the cache through ``__wrapped__``.
    """
    corpus = sys.modules["rackmod.corpus"]
    for name in dir(corpus):
        fn = getattr(corpus, name)
        cached = fn if hasattr(fn, "cache_clear") else getattr(fn, "__wrapped__", None)
        if hasattr(cached, "cache_clear") and getattr(fn, "__module__", "") == corpus.__name__:
            fn()


def set_up(workload, workdir: Path):
    """rackmod's own set-up work: a fresh import, the corpus warm-up and the
    workload's ``prepare`` step. Returns ``rackmod.cli``."""
    shutil.rmtree(workdir / "raw", ignore_errors=True)
    cli = fresh_import()
    warm_corpus()
    if workload.prepare is not None:
        workload.prepare(workdir, cli)
    return cli


def traced_set_up(workload, workdir: Path):
    """One more set-up with the import done first and the rest in spans.

    Returns ``rackmod.cli`` and the spans, from which ``corpus.catalog_ms``
    is read.
    """
    import spans

    shutil.rmtree(workdir / "raw", ignore_errors=True)
    cli = fresh_import()
    tracer = spans.Tracer()
    tracer.install()
    try:
        warm_corpus()
        if workload.prepare is not None:
            workload.prepare(workdir, cli)
    finally:
        tracer.uninstall()
    return cli, tracer.take()


def why(name: str) -> str:
    """The workload's one-line reason, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), "")


def bursts_for(seconds: float) -> list[float]:
    """Reference bursts for half of ``seconds`` of job time, at least one."""
    import reference

    return [reference.burst() for _ in range(max(1, round(seconds / (2 * BURST_EVERY_S))))]


def run_job(cli, job, workdir: Path, expected: float):
    """Run one job between reference bursts in proportion to its length.

    Returns (job seconds, burst seconds, failure reason or None, digests).
    Sampling the machine's speed about every 20 ms of job time, half just
    before the job (sized by ``expected``, its time in the previous pass)
    and half just after, weights the speed estimate of a pass by time, so a
    3 s search counts as much as 150 tiny checks. The job's garbage is
    collected before the bursts, so they do not pay for it, and each job
    starts from a clean heap, as it would in a fresh ``rackmod`` process.
    """
    import oracle

    for rel in job.outputs + ((job.report,) if job.report else ()):
        (workdir / rel).unlink(missing_ok=True)
    before = bursts_for(expected)
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(job.argv)
        except (Exception, SystemExit) as exc:  # any raise is a wrong outcome
            raised = exc
        elapsed = time.perf_counter() - t0
    stdout = out.getvalue()
    reason = oracle.judge(job, workdir, code, stdout, raised)
    digests = oracle.digests(job, workdir, stdout)
    gc.collect()
    return elapsed, before + bursts_for(elapsed), reason, digests


def pass_time(results) -> float:
    return sum(r[0] for r in results)


def pass_norm(results) -> float:
    """Pass time as a multiple of the median reference burst of the same pass."""
    return pass_time(results) / statistics.median(b for r in results for b in r[1])


def run_pass(cli, jobs, workdir: Path, previous=None):
    """One pass over the jobs; ``previous`` is the last pass, for burst sizing."""
    expected = [r[0] for r in previous] if previous else [0.0] * len(jobs)
    return [run_job(cli, job, workdir, t) for job, t in zip(jobs, expected)]


def keep_going(started: float, seconds: float, last: float) -> bool:
    """Start another pass only if at least half of it fits in the run."""
    return time.perf_counter() + last / 2 < started + seconds


def run_passes(cli, jobs, workdir: Path, seconds: float):
    """Passes over the job list for about ``seconds``; at least one."""
    passes = []
    started = last = time.perf_counter()
    while not passes or keep_going(started, seconds, time.perf_counter() - last):
        last = time.perf_counter()
        passes.append(run_pass(cli, jobs, workdir, passes[-1] if passes else None))
    return passes


def run_traced(cli, jobs, workdir: Path, seconds: float):
    """Untraced and traced passes in turn, so drift in machine speed hits both.

    Returns (untraced passes, traced passes, per-layer metrics of each traced
    pass, spans of the last traced pass). Older spans are dropped once
    aggregated, which keeps memory flat on workloads with many short passes.
    """
    import spans

    plain, traced, layer_rows, last_spans = [], [], [], []
    tracer = spans.Tracer()
    started = last = time.perf_counter()
    while not traced or keep_going(started, seconds, time.perf_counter() - last):
        last = time.perf_counter()
        plain.append(run_pass(cli, jobs, workdir, plain[-1] if plain else None))
        tracer.install()
        try:
            traced.append(run_pass(cli, jobs, workdir, plain[-1]))
        finally:
            tracer.uninstall()
        last_spans = tracer.take()
        layer_rows.append(spans.aggregate(last_spans))
    return plain, traced, layer_rows, last_spans


def percentile_summary(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    usable = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    text = f"median {med:.6g} n={n}"
    if usable and n > 1:
        p = usable[-1]
        q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
        text += f" p{p:g} {q:.6g}"
    else:
        text += " (no percentile has ten samples beyond it)"
    return text


def summarize(jobs, passes):
    """Outcome counts, first failure reason per job, and digest stability."""
    attempted = failed = unexpected = 0
    reasons: dict[str, str] = {}
    first_digests = {job.name: r[3] for job, r in zip(jobs, passes[0])}
    for results in passes:
        for job, (_, _, reason, digests) in zip(jobs, results):
            if reason is None and digests != first_digests[job.name]:
                reason = "output differs from the first pass"
            attempted += 1
            if reason is not None:
                failed += 1
                unexpected += job.known_defect is None
                reasons.setdefault(job.name, reason)
    return attempted, failed, unexpected, reasons, first_digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record here as a JSON line")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "rackmod" / "cli.py").is_file():
        print(f"error: no rackmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import reference
    import spans

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    cwd = os.getcwd()
    try:
        os.chdir(workdir)  # argv paths are relative, so stdout does not name the temp dir
        # Only rackmod's work is timed. Inputs are generated and the
        # reference scans run once, after the last set-up.
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            bursts = [reference.burst() for _ in range(SETUP_BURSTS)]
            t0 = time.perf_counter()
            cli = set_up(workload, workdir)
            setup_times.append(time.perf_counter() - t0)
            bursts += [reference.burst() for _ in range(SETUP_BURSTS)]
            setup_scaled.append(setup_times[-1] / statistics.median(bursts) * reference.NOMINAL_S)
        if args.trace:
            cli, setup_spans = traced_set_up(workload, workdir)
        (workdir / "out").mkdir()
        jobs = workload.build(args.seed, workdir)
        # what set-up left is permanent; later collections skip it
        gc.collect()
        gc.freeze()
        first_pass_at = time.perf_counter() - start

        plain = []
        if args.trace:
            plain, passes, layer_rows, last_spans = run_traced(cli, jobs, workdir, args.seconds)
        else:
            passes = run_passes(cli, jobs, workdir, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, unexpected, reasons, digests = summarize(jobs, passes + plain)
    pass_times = [pass_time(results) for results in passes]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(jobs)} jobs per pass, "
          f"{len(passes)} passes; {why(workload.name)}")
    print(f"environment: python {platform.python_version()} on {platform.platform()}, "
          f"nproc {os.cpu_count()}; start to first pass {first_pass_at:.3f} s")
    for job in jobs:
        if job.name in reasons:
            tag = f"known defect ({job.known_defect})" if job.known_defect else "WRONG"
            print(f"  {tag} {job.name}: {reasons[job.name]}", file=sys.stderr)

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    correct = unexpected == 0
    if args.trace:
        for name, unit in spans.PER_LAYER:
            if name in spans.PER_PASS:
                metrics[name] = statistics.median(row[name] for row in layer_rows)
                units[name] = unit
        traced = statistics.median(pass_times)
        untraced = statistics.median(pass_time(r) for r in plain)
        shares = [{k: row[k] / 1000.0 / t for k in spans.MODULE_SELF} for row, t in zip(layer_rows, pass_times)]
        accounted = statistics.median(sum(share.values()) for share in shares)
        cli_share = statistics.median(share["cli.self_ms"] for share in shares)
        metrics.update({"corpus.catalog_ms": spans.catalog_ms(setup_spans), "trace.pass_s": traced,
                        "trace.accounted_frac": accounted, "trace.overhead_s": traced - untraced})
        units.update({"corpus.catalog_ms": "ms", "trace.pass_s": "s", "trace.accounted_frac": "ratio",
                      "trace.overhead_s": "s"})
        if abs(accounted - 1.0) > TRACE_COVERAGE_TOLERANCE:
            print(f"  WRONG trace: module self times cover {accounted:.3f} of the traced pass time",
                  file=sys.stderr)
            correct = False
        # cli's self time absorbs argparse and every unwrapped helper; a large
        # share of it means work escapes the layer spans
        print(f"  cli self time is {cli_share:.4f} of the traced pass time "
              f"(at most {workload.cli_share_max:g} on this workload)")
        if cli_share > workload.cli_share_max:
            print(f"  WRONG trace: cli self time is {cli_share:.3f} of the traced pass time, "
                  f"more than {workload.cli_share_max:g}", file=sys.stderr)
            correct = False
        spans.write_spans(last_spans, WORK / f"spans-{workload.name}-seed{args.seed}.jsonl")
        reported = {name: metrics[name] for name, _ in spans.PER_LAYER}
    else:
        norms = [pass_norm(results) for results in passes]
        metrics["pass_norm"] = statistics.median(norms)
        metrics["pass_s"] = statistics.median(pass_times)
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units.update(END_TO_END_UNITS, pass_s="s")
        print(f"  pass_norm: {percentile_summary(norms)} reference bursts")
        print(f"  pass_s: {percentile_summary(pass_times)} s")
        print(f"  setup_s, at reference speed: {percentile_summary(setup_scaled)} s; "
              f"unscaled median {statistics.median(setup_times):.6g} s")
        print(f"  peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
        for family in FAMILIES:
            sums = [sum(r[0] for job, r in zip(jobs, results) if job.family == family) * 1000.0
                    for results in passes]
            if any(job.family == family for job in jobs):
                metrics[f"{family}_ms"] = statistics.median(sums)
                units[f"{family}_ms"] = "ms"
                print(f"  {family}_ms: {percentile_summary(sums)} ms")
        job_ms = [r[0] * 1000.0 for results in passes for r in results]
        print(f"  job_ms: {percentile_summary(job_ms)} ms")
        metrics["failed_frac"] = failed / attempted
        units["failed_frac"] = "ratio"
        print(f"  failed_frac: {failed}/{attempted} = {failed / attempted:.4f} "
              f"({unexpected} outside the known-defect jobs)")
        reported = {name: metrics[name] for name in END_TO_END_UNITS}
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g} {units[name]}")

    if args.out:
        record = {
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "pass_times": pass_times, "setup_times": setup_times,
            "setup_scaled": setup_scaled,
            "untraced_pass_times": [pass_time(r) for r in plain],
            "job_ms": {job.name: statistics.median(r[i][0] for r in passes) * 1000.0
                       for i, job in enumerate(jobs)},
            "correct": correct,
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": units, "failures": reasons, "digests": digests,
            "env": {"python": platform.python_version(), "platform": platform.platform(),
                    "nproc": os.cpu_count()},
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
