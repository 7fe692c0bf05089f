"""One workload in one process: set-up, a closed-loop timed run, output checks, a report.

One caller on one thread sends each query only after the previous one
returned (a closed loop): the linker is a synchronous library call with
no queue of its own.  The four modes are interleaved in blocks of
``BLOCK`` queries with a rotating mode order, so a slow phase of the
host lands on every mode alike instead of on one contiguous pass.
Every run makes at least ``MIN_PASSES`` passes over its fixed query set,
each pass in a fresh seeded order and once per mode, and goes on until
``--seconds`` have passed, stopping at a block boundary inside a pass so
the run's length does not depend on where a pass ends.

The host's speed drifts between phases that last from seconds to
minutes, and a slow phase only ever adds time to a call.  So p50 is
taken over each query's fastest call across the passes, the estimate of
its cost that those phases move least.  p99 is taken over each query's
lower median call (of four calls, the second-fastest): it describes the
slowest queries, and a query's fastest call there would mostly measure
how lucky its few calls were.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import brandlink.pipeline as pipeline
import workloads
from brandlink.cli import run as cli_run
from brandlink.core import (
    labeled_query_to_record,
    link_result_from_record,
    link_result_to_record,
    read_jsonl,
    write_jsonl,
)
from brandlink.evaluation import metrics as eval_metrics
from brandlink.evaluation import score as eval_score
from tracing import Tracer, layer_metrics
from workloads import MODES

LINK_FN = {
    "lexical": "link_two_stage",
    "m2e": "link_two_stage",
    "q2e": "link_end_to_end",
    "fused": "link_fused",
}
BLOCK = 8
MIN_PASSES = 4
WARMUP_QUERIES = 32
# Set-up is repeated and its median reported; the 50k build runs once.
SETUP_REPEATS = {"head": 3, "tail": 3, "wide": 1}
# Modes whose F1 is never undefined on any workload are end-to-end metrics;
# the two-stage modes find nothing on tail, so their F1 is a traced detail.
GATED_F1 = ("q2e", "fused")


def calibration_ms() -> float:
    """A fixed pure-Python loop; its time shows how fast the host runs right now."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return (perf_counter() - start) * 1000.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def ensure_artifacts(size: str) -> Path:
    """Build the cached corpora and models in a child process when missing.

    A child keeps the build's memory out of this process's peak RSS.
    """
    path = workloads.artifact_dir(size)
    if not path.is_dir():
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--prepare",
             "--size", size],
            stdout=sys.stderr,
            check=True,
            timeout=850,
        )
    return path


class Run:
    """Samples, first-pass results and failures of one measured pass series."""

    def __init__(self, n_queries: int) -> None:
        self.samples = {m: [[] for _ in range(n_queries)] for m in MODES}
        self.results = {m: [None] * n_queries for m in MODES}
        self.attempted = dict.fromkeys(MODES, 0)
        self.failed = dict.fromkeys(MODES, 0)
        self.problems: list[str] = []
        self.passes = 0
        self.elapsed_s = 0.0

    def latencies(self, mode: str) -> list[float]:
        return [t for per_query in self.samples[mode] for t in per_query]

    def query_medians(self, mode: str) -> list[float]:
        return [statistics.median(t) for t in self.samples[mode] if t]

    def query_low_medians(self, mode: str) -> list[float]:
        return [statistics.median_low(t) for t in self.samples[mode] if t]

    def query_minimums(self, mode: str) -> list[float]:
        return [min(t) for t in self.samples[mode] if t]

    def fail(self, mode: str, why: str) -> None:
        self.failed[mode] += 1
        if len(self.problems) < 20:
            self.problems.append(f"{mode}: {why}")


def _blocks(n_queries: int, rng: random.Random):
    """Blocks of query indices; each pass is a fresh seeded permutation."""
    while True:
        perm = rng.sample(range(n_queries), n_queries)
        for start in range(0, n_queries, BLOCK):
            yield start + BLOCK >= n_queries, perm[start : start + BLOCK]


def measure(linkers, queries, rng, seconds: float, min_passes: int, tracer=None) -> Run:
    """Make ``min_passes`` passes over the queries, then go on until ``seconds`` have passed.

    The deadline is checked after every block, so the last pass may be
    partial: some queries then have one sample more than the others.
    """
    run = Run(len(queries))
    # Resolved here, after any tracer install, so the wrapped versions run.
    link = {m: getattr(pipeline, LINK_FN[m]) for m in MODES}
    began = perf_counter()
    deadline = began + seconds
    for number, (ends_pass, block) in enumerate(_blocks(len(queries), rng)):
        turn = number % len(MODES)
        for mode in MODES[turn:] + MODES[:turn]:
            fn, config = link[mode], linkers[mode]
            samples, seen = run.samples[mode], run.results[mode]
            for qi in block:
                run.attempted[mode] += 1
                if tracer is not None:
                    tracer.query = (mode, qi)
                start = perf_counter()
                try:
                    result = fn(config, queries[qi])
                except Exception:  # noqa: BLE001 - a raising linker is a counted failure
                    run.fail(mode, f"query {qi} raised: {traceback.format_exc(limit=3)}")
                    continue
                samples[qi].append(perf_counter() - start)
                if seen[qi] is None:
                    seen[qi] = result
                elif seen[qi] != result:
                    run.fail(mode, f"query {qi} changed its result between passes")
        if ends_pass:
            run.passes += 1
        if run.passes >= min_passes and perf_counter() >= deadline:
            break
    run.elapsed_s = perf_counter() - began
    return run


def _warm_up(linkers, queries, indices) -> None:
    for mode in MODES:
        fn = getattr(pipeline, LINK_FN[mode])
        for qi in indices:
            fn(linkers[mode], queries[qi])


def check_outputs(examples, run: Run, out_dir: Path) -> dict:
    """Round-trip each mode's results through jsonl, digest them, and score them twice.

    The file is written by ``core.write_jsonl`` exactly as ``brandlink link``
    writes it; its sha256 is what a later change must reproduce.  F1 is
    computed from the in-memory results and compared with what
    ``brandlink eval`` reports for the file.
    """
    gold = out_dir / "gold.jsonl"
    write_jsonl(gold, (labeled_query_to_record(e) for e in examples))
    checks = {}
    for mode in MODES:
        results = run.results[mode]
        if any(r is None for r in results):
            run.fail(mode, "some queries have no result to check")
            checks[mode] = {"f1": 0.0, "eval_agrees": False, "sha256": None}
            continue
        path = out_dir / f"{mode}.results.jsonl"
        write_jsonl(path, (link_result_to_record(r) for r in results))
        back = [link_result_from_record(record) for record in read_jsonl(path)]
        if len(back) != len(results):
            run.fail(mode, "results file has the wrong number of records")
        for qi, (kept, loaded) in enumerate(zip(results, back)):
            if kept != loaded:
                run.fail(mode, f"query {qi} does not survive the record round trip")
        row = eval_metrics(eval_score(zip(examples, results)))
        report = out_dir / f"{mode}.report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_run(
                ["eval", "--gold", str(gold), "--results", str(path), "--report", str(report)]
            )
        agrees = False
        if code == 0:
            reported = json.loads(report.read_text())["overall"]["metrics"]
            agrees = reported["f1"] == round(row.f1, 2) and (
                "f1" in reported["undefined"]
            ) == ("f1" in row.undefined)
        checks[mode] = {
            "f1": row.f1,
            "f1_undefined": "f1" in row.undefined,
            "eval_agrees": agrees,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }
    return checks


def _p50_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def _p99_ms(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100)[98] * 1000.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    env = environment()
    calibration_before = calibration_ms()
    artifacts = ensure_artifacts(size)
    examples = workloads.load_slice(artifacts, workload)
    queries = [e.query for e in examples]
    rng = random.Random(seed)
    warm = rng.sample(range(len(queries)), min(WARMUP_QUERIES, len(queries)))
    out_dir = workloads.CACHE / "runs" / f"{size}-{workload}"
    out_dir.mkdir(parents=True, exist_ok=True)

    # Set-up ends at the first timed query: loading or building, then warm-up
    # (which fills the rankers' lazily built mirrors).
    tracer = Tracer() if trace else None
    setup_s = []
    linkers = None
    for _ in range(1 if trace else SETUP_REPEATS[workload]):
        linkers = None
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.query = "setup"
        start = perf_counter()
        linkers = workloads.SETUPS[workload](artifacts, out_dir)
        if tracer is not None:
            tracer.query = "warmup"
        _warm_up(linkers, queries, warm)
        setup_s.append(perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()

    timed = measure(linkers, queries, rng, seconds, MIN_PASSES)
    runs = [timed]
    traced = None
    if tracer is not None:
        tracer.install()
        try:
            traced = measure(linkers, queries, rng, 0.0, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.check_fired(workload)
        runs.append(traced)
        for mode in MODES:
            for qi, (plain, seen) in enumerate(
                zip(timed.results[mode], traced.results[mode])
            ):
                if plain is not None and seen is not None and plain != seen:
                    traced.fail(mode, f"query {qi} differs between timed and traced runs")
    checks = check_outputs(examples, timed, out_dir)
    calibration_after = calibration_ms()

    attempted = {m: sum(r.attempted[m] for r in runs) for m in MODES}
    failed = {m: sum(r.failed[m] for r in runs) for m in MODES}
    correct = not any(failed.values()) and all(c["eval_agrees"] for c in checks.values())

    if traced is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for mode in MODES:
            metrics[f"{mode}.p50_ms"] = (_p50_ms(timed.query_minimums(mode)), "ms")
            metrics[f"{mode}.p99_ms"] = (_p99_ms(timed.query_low_medians(mode)), "ms")
        # One pass over the queries, each at its fastest call.
        fastest = timed.query_minimums("fused")
        metrics["fused.qps"] = (len(fastest) / sum(fastest), "queries/s")
        for mode in GATED_F1:
            metrics[f"{mode}.f1"] = (checks[mode]["f1"], "%")
        detail = {}
    else:
        two_stage_wins = {
            qi
            for qi, r in enumerate(traced.results["fused"])
            if r is not None and r.trace[-1].detail == "two-stage branch wins"
        }
        metrics, detail = layer_metrics(
            tracer, {m: len(traced.latencies(m)) for m in MODES}, two_stage_wins
        )
        for mode in MODES:
            metrics[f"{mode}.trace_overhead_ms"] = (
                _p50_ms(traced.latencies(mode)) - _p50_ms(timed.query_medians(mode)),
                "ms",
            )
        for mode in [m for m in MODES if m not in GATED_F1]:
            metrics[f"{mode}.f1"] = (checks[mode]["f1"], "%")

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "environment": env,
        "calibration_ms": {"before": calibration_before, "after": calibration_after},
        "setup_s": setup_s,
        "passes": timed.passes,
        "elapsed_s": timed.elapsed_s,
        "modes": {
            m: {
                "samples": len(timed.latencies(m)),
                "attempted": attempted[m],
                "failed": failed[m],
                **checks[m],
            }
            for m in MODES
        },
        "problems": [p for r in runs for p in r.problems],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": detail,
    }
    report_path = out_dir / f"report-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    _print_human(report)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(attempted.values()),
                "failed": sum(failed.values()),
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


def _print_human(report: dict) -> None:
    env = report["environment"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}"
        f"  size {report['size']}  nproc {env['nproc']}  python {env['python']}"
        f"  numpy {env['numpy']}  scipy {env['scipy']}"
    )
    cal = report["calibration_ms"]
    print(
        f"calibration loop {cal['before']:.1f} ms before, {cal['after']:.1f} ms after;"
        f" set-up {', '.join(f'{s:.3f}' for s in report['setup_s'])} s;"
        f" {report['passes']} full passes in {report['elapsed_s']:.1f} s"
    )
    for mode, row in report["modes"].items():
        print(
            f"  {mode:<8} samples {row['samples']:>6}  failed {row['failed']}/{row['attempted']}"
            f"  f1 {row['f1']:.2f}  eval agrees {row['eval_agrees']}"
            f"  sha256 {(row['sha256'] or '-')[:16]}"
        )
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6f} {metric['unit']}")
